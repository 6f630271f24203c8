//! K-ary fat-tree topology (the paper's datacenter context).
//!
//! The canonical three-tier Clos fabric of Al-Fares et al.: `k` pods,
//! each with `k/2` edge and `k/2` aggregation switches, `(k/2)²` core
//! switches, and `k³/4` hosts. [`FatTree::build_fabric`] builds it as a
//! [`FatTreeFabric`]: each switch-to-switch and host-to-edge connection
//! is a pair of directed links, and routing is deterministic up-down
//! with a static ECMP stand-in keyed by the destination host (see
//! [`FatTreeFabric`]). A given host pair always uses one path, so the
//! simulation stays reproducible, while cross-pod traffic as a whole
//! spreads over every aggregation and core switch.
//!
//! An **oversubscription** factor `f` divides the capacity of the
//! edge-to-aggregation and aggregation-to-core uplinks: `f = 1.0` is a
//! full-bisection fabric, `f = 4.0` the classic 4:1 oversubscribed
//! datacenter where cross-pod coflows actually contend — the regime where
//! scheduling policy matters most.

use crate::ids::{NodeId, ResourceId};
use crate::topology::Topology;

/// Builder for k-ary fat-trees.
#[derive(Debug, Clone, Copy)]
pub struct FatTree {
    /// Pod count / switch radix. Must be even and ≥ 2.
    pub k: usize,
    /// Host NIC / edge downlink capacity.
    pub host_capacity: f64,
    /// Oversubscription factor: every edge↔aggregation and
    /// aggregation↔core link gets `host_capacity / factor`.
    pub oversubscription: f64,
}

impl FatTree {
    /// Creates a full-bisection k-ary fat-tree spec.
    pub fn new(k: usize) -> FatTree {
        FatTree {
            k,
            host_capacity: 1.0,
            oversubscription: 1.0,
        }
    }

    /// Sets the oversubscription factor.
    pub fn with_oversubscription(mut self, f: f64) -> FatTree {
        assert!(f >= 1.0 && f.is_finite(), "bad oversubscription {f}");
        self.oversubscription = f;
        self
    }

    /// Number of hosts: `k³/4`.
    pub fn hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Builds the tree as a [`FatTreeFabric`]: closed-form O(1) routing
    /// (no route table) plus a pod partition over every link.
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd or < 2.
    pub fn build_fabric(&self) -> Topology {
        Topology::FatTree(FatTreeFabric::new(
            self.k,
            self.host_capacity,
            self.oversubscription,
        ))
    }
}

/// Formulaic k-ary fat-tree: routes and pod tags computed in closed form
/// from the host indices, capacities held in one dense vector.
///
/// Resource numbering (directed links; `half = k/2`, `hosts = k·half²`):
/// - host `h`: up (host→edge) `2h`, down (edge→host) `2h+1`;
/// - edge↔agg, base `B1 = 2·hosts`: pod `p`, edge `e`, agg `a` →
///   up `B1 + 2·((p·half + e)·half + a)`, down `+1`;
/// - agg↔core, base `B2 = B1 + 2·k·half²`: pod `p`, agg `a`, core slot
///   `i` (core switch `a·half + i`) → up `B2 + 2·((p·half + a)·half + i)`,
///   down `+1`.
///
/// Every resource belongs to exactly one pod (agg↔core links count as
/// the aggregation side's pod), so the pods partition the link set: a
/// flow whose endpoints share a pod touches only that pod's links, which
/// is what makes pod-decomposed allocation exact.
///
/// Routing is deterministic up-down: the aggregation switch is
/// `dst % half` and the core slot `(dst / half) % half`, a static ECMP
/// stand-in keyed by the destination so a host pair always uses one path.
#[derive(Debug, Clone)]
pub struct FatTreeFabric {
    k: u32,
    half: u32,
    hosts: u32,
    /// Dense capacity per resource (mutable: the fault-injection path).
    caps: Vec<f64>,
    /// Pod id per resource.
    pod_of_resource: Vec<u32>,
}

impl FatTreeFabric {
    /// Builds the fabric. Uplinks (edge↔agg, agg↔core) get
    /// `host_capacity / oversubscription`, host links `host_capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd or < 2.
    pub fn new(k: usize, host_capacity: f64, oversubscription: f64) -> FatTreeFabric {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree needs even k >= 2, got {k}"
        );
        let half = k / 2;
        let hosts = k * half * half;
        let up_links = 2 * k * half * half; // per tier, both directions
        let total = 2 * hosts + 2 * up_links;
        let edge_cap = host_capacity;
        let up_cap = host_capacity / oversubscription;

        let mut caps = Vec::with_capacity(total);
        let mut pods = Vec::with_capacity(total);
        for h in 0..hosts {
            let pod = (h / (half * half)) as u32;
            caps.push(edge_cap); // up
            caps.push(edge_cap); // down
            pods.push(pod);
            pods.push(pod);
        }
        for tier in 0..2 {
            let _ = tier; // edge↔agg then agg↔core: same shape and caps
            for p in 0..k {
                for _pair in 0..(half * half) {
                    caps.push(up_cap);
                    caps.push(up_cap);
                    pods.push(p as u32);
                    pods.push(p as u32);
                }
            }
        }
        debug_assert_eq!(caps.len(), total);
        FatTreeFabric {
            k: k as u32,
            half: half as u32,
            hosts: hosts as u32,
            caps,
            pod_of_resource: pods,
        }
    }

    /// Pod count (= k).
    pub fn pods(&self) -> u32 {
        self.k
    }

    /// Number of hosts: `k³/4`.
    pub fn hosts(&self) -> usize {
        self.hosts as usize
    }

    /// Hosts + edge + aggregation + core switches.
    pub fn num_nodes(&self) -> usize {
        (self.hosts + 2 * self.k * self.half + self.half * self.half) as usize
    }

    /// Total directed links: `6·k·(k/2)²`.
    pub fn num_resources(&self) -> usize {
        self.caps.len()
    }

    /// Dense capacity vector, indexed by resource id.
    pub fn caps(&self) -> &[f64] {
        &self.caps
    }

    /// Pod id per resource.
    pub fn pod_of_resource(&self) -> &[u32] {
        &self.pod_of_resource
    }

    /// The pod host `n` lives in.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a host.
    pub fn host_pod(&self, n: NodeId) -> u32 {
        assert!(
            n.0 < self.hosts,
            "node {n} is not a host (hosts={})",
            self.hosts
        );
        n.0 / (self.half * self.half)
    }

    /// Capacity of a resource.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.caps[r.0 as usize]
    }

    /// Overwrites a resource's capacity (zero allowed: downed link).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `cap` is negative or non-finite.
    pub fn set_capacity(&mut self, r: ResourceId, cap: f64) {
        assert!(
            cap >= 0.0 && cap.is_finite(),
            "capacity must be finite and non-negative: {cap}"
        );
        assert!(
            (r.0 as usize) < self.caps.len(),
            "resource {r} out of range"
        );
        self.caps[r.0 as usize] = cap;
    }

    fn edge_agg(&self, pod: u32, edge: u32, agg: u32, down: bool) -> ResourceId {
        let b1 = 2 * self.hosts;
        ResourceId(b1 + 2 * ((pod * self.half + edge) * self.half + agg) + down as u32)
    }

    fn agg_core(&self, pod: u32, agg: u32, slot: u32, down: bool) -> ResourceId {
        let b2 = 2 * self.hosts + 2 * self.k * self.half * self.half;
        ResourceId(b2 + 2 * ((pod * self.half + agg) * self.half + slot) + down as u32)
    }

    /// Closed-form up-down route, appended into `out` (cleared first).
    ///
    /// # Panics
    ///
    /// Panics if the endpoints coincide or either is not a host.
    pub fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<ResourceId>) {
        assert!(src != dst, "flow endpoints coincide: {src}");
        assert!(src.0 < self.hosts, "node {src} is not a host");
        assert!(dst.0 < self.hosts, "node {dst} is not a host");
        out.clear();
        let half = self.half;
        let (s, d) = (src.0, dst.0);
        let (ps, pd) = (s / (half * half), d / (half * half));
        let (es, ed) = ((s / half) % half, (d / half) % half);
        out.push(ResourceId(2 * s)); // host up
        if ps == pd && es == ed {
            // Same edge switch: two hops.
        } else {
            let a = d % half; // destination-keyed ECMP
            if ps == pd {
                out.push(self.edge_agg(ps, es, a, false));
                out.push(self.edge_agg(pd, ed, a, true));
            } else {
                let i = (d / half) % half;
                out.push(self.edge_agg(ps, es, a, false));
                out.push(self.agg_core(ps, a, i, false));
                out.push(self.agg_core(pd, a, i, true));
                out.push(self.edge_agg(pd, ed, a, true));
            }
        }
        out.push(ResourceId(2 * d + 1)); // host down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k4_counts() {
        let ft = FatTree::new(4);
        assert_eq!(ft.hosts(), 16);
        let topo = ft.build_fabric();
        // 16 hosts + 8 edge + 8 agg + 4 core = 36 nodes.
        assert_eq!(topo.num_nodes(), 36);
        // 16 host links, 16 edge-agg and 16 agg-core links, both ways.
        assert_eq!(topo.num_resources(), 96);
    }

    #[test]
    fn same_edge_traffic_stays_local() {
        let topo = FatTree::new(4).build_fabric();
        // Hosts 0 and 1 share an edge switch: two hops.
        let route = topo.route(NodeId(0), NodeId(1));
        assert_eq!(route.len(), 2);
    }

    #[test]
    fn cross_pod_traffic_traverses_core() {
        let topo = FatTree::new(4).build_fabric();
        // Host 0 (pod 0) to host 15 (pod 3): up to core and down = 6 hops.
        let route = topo.route(NodeId(0), NodeId(15));
        assert_eq!(route.len(), 6);
    }

    #[test]
    fn oversubscription_shrinks_uplinks() {
        let full = FatTree::new(4).build_fabric();
        let over = FatTree::new(4).with_oversubscription(4.0).build_fabric();
        // Cross-pod bottleneck shrinks by the factor.
        let b_full = full.bottleneck_capacity(NodeId(0), NodeId(15));
        let b_over = over.bottleneck_capacity(NodeId(0), NodeId(15));
        assert!((b_full - 1.0).abs() < 1e-12);
        assert!((b_over - 0.25).abs() < 1e-12);
        // Same-edge traffic is unaffected.
        assert!((over.bottleneck_capacity(NodeId(0), NodeId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_host_pair_is_connected() {
        let topo = FatTree::new(4).build_fabric();
        for a in 0..16u32 {
            for b in 0..16u32 {
                if a != b {
                    let route = topo.route(NodeId(a), NodeId(b));
                    assert!(!route.is_empty());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn odd_k_rejected() {
        let _ = FatTree::new(3).build_fabric();
    }

    #[test]
    fn fabric_counts_and_pods_partition_all_links() {
        let topo = FatTree::new(4).build_fabric();
        assert_eq!(topo.num_nodes(), 36);
        assert_eq!(topo.num_resources(), 6 * 4 * 4); // 6·k·(k/2)²
        let (pods, tags) = topo.pod_partition().expect("fabric has pods");
        assert_eq!(pods, 4);
        assert_eq!(tags.len(), topo.num_resources());
        assert!(tags.iter().all(|&p| p < pods));
        // Every pod owns the same number of links.
        let mut counts = vec![0usize; pods as usize];
        for &p in tags {
            counts[p as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == tags.len() / pods as usize));
    }

    /// Every host pair's hop count and bottleneck follow from where the
    /// two hosts sit in the tree: 2 hops under one edge switch, 4 within
    /// a pod, 6 across pods, and the full host capacity only when the
    /// route never leaves the edge switch.
    #[test]
    fn fabric_hop_counts_and_bottlenecks_follow_the_tree() {
        let spec = FatTree {
            host_capacity: 2.0,
            ..FatTree::new(4).with_oversubscription(4.0)
        };
        let topo = spec.build_fabric();
        let (edge, pod) = (|h: u32| h / 2, |h: u32| h / 4);
        for a in 0..16u32 {
            for b in 0..16u32 {
                if a == b {
                    continue;
                }
                let (src, dst) = (NodeId(a), NodeId(b));
                let (hops, bottleneck) = if edge(a) == edge(b) {
                    (2, 2.0)
                } else if pod(a) == pod(b) {
                    (4, 0.5)
                } else {
                    (6, 0.5)
                };
                assert_eq!(topo.route(src, dst).len(), hops, "hop count {a}->{b}");
                assert_eq!(
                    topo.bottleneck_capacity(src, dst),
                    bottleneck,
                    "bottleneck {a}->{b}"
                );
            }
        }
    }

    /// Destination-keyed ECMP spreads cross-pod traffic: every
    /// aggregation↔core link carries some cross-pod host pair, and no
    /// switch-to-switch link carries more of them than one host NIC does
    /// (one pair per host outside its pod).
    #[test]
    fn fabric_spreads_cross_pod_pairs_over_every_core_link() {
        for k in [4usize, 8] {
            let tree = FatTree::new(k);
            let topo = tree.build_fabric();
            let hosts = tree.hosts() as u32;
            let per_pod = hosts / k as u32;
            let mut pairs = vec![0u32; topo.num_resources()];
            let mut core_links = std::collections::BTreeSet::<ResourceId>::new();
            for a in 0..hosts {
                for b in (0..hosts).filter(|b| b / per_pod != a / per_pod) {
                    let route = topo.route(NodeId(a), NodeId(b));
                    assert_eq!(route.len(), 6, "cross-pod route {a}->{b}");
                    // Hops 1..5 are the switch-to-switch links, 2 and 3
                    // the aggregation↔core pair.
                    for r in &route[1..5] {
                        pairs[r.0 as usize] += 1;
                    }
                    core_links.extend(&route[2..4]);
                }
            }
            let half = k / 2;
            assert_eq!(
                core_links.len(),
                2 * k * half * half,
                "k={k}: some aggregation-core link carries no cross-pod pair"
            );
            let worst = pairs.iter().max().copied().unwrap();
            assert!(
                worst <= hosts - per_pod,
                "k={k}: a switch link carries {worst} cross-pod pairs, a host NIC {}",
                hosts - per_pod
            );
        }
    }

    #[test]
    fn fabric_pod_local_routes_stay_in_pod() {
        let topo = FatTree::new(4).build_fabric();
        let (_, tags) = topo.pod_partition().unwrap();
        for a in 0..16u32 {
            for b in 0..16u32 {
                if a == b {
                    continue;
                }
                let (pa, pb) = (
                    topo.host_pod(NodeId(a)).unwrap(),
                    topo.host_pod(NodeId(b)).unwrap(),
                );
                let route = topo.route(NodeId(a), NodeId(b));
                if pa == pb {
                    assert!(
                        route.iter().all(|r| tags[r.0 as usize] == pa),
                        "pod-local route {a}->{b} escaped its pod"
                    );
                } else {
                    // Cross-pod: exactly the two endpoint pods appear.
                    assert!(route
                        .iter()
                        .all(|r| tags[r.0 as usize] == pa || tags[r.0 as usize] == pb));
                    assert!(route.iter().any(|r| tags[r.0 as usize] == pa));
                    assert!(route.iter().any(|r| tags[r.0 as usize] == pb));
                }
            }
        }
    }

    #[test]
    fn fabric_route_into_recycles_and_routes_are_duplicate_free() {
        let topo = FatTree::new(4).build_fabric();
        let mut buf = vec![ResourceId(99)];
        topo.route_into(NodeId(0), NodeId(15), &mut buf);
        assert_eq!(buf.len(), 6);
        let mut sorted = buf.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), buf.len(), "route has duplicate resources");
        assert!(buf.iter().all(|r| (r.0 as usize) < topo.num_resources()));
        // Mutating a fabric capacity flows through the dense mirror.
        let mut topo = topo;
        topo.set_capacity(buf[2], 0.0);
        let mut caps = Vec::new();
        topo.capacities_into(&mut caps);
        assert_eq!(caps[buf[2].0 as usize], 0.0);
    }

    #[test]
    fn fabric_scales_without_quadratic_precompute() {
        // k=16: 1024 hosts, 6144 links — builds instantly because there
        // is no all-pairs BFS.
        let topo = FatTree::new(16).build_fabric();
        assert_eq!(topo.num_nodes(), 1024 + 256 + 64);
        assert_eq!(topo.num_resources(), 6144);
        let route = topo.route(NodeId(0), NodeId(1023));
        assert_eq!(route.len(), 6);
    }
}
