//! Network topology models.
//!
//! Two models cover everything in the paper's setting:
//!
//! - [`BigSwitch`]: the canonical Coflow-literature abstraction (Varys,
//!   Sincronia) of a non-blocking datacenter fabric. Hosts connect to one
//!   giant switch; the only contended resources are each host's egress and
//!   ingress NIC ports. This is the default model for all experiments.
//! - [`LinkGraph`]: an explicit directed graph of capacitated links with
//!   static shortest-path routing, for experiments where flows share an
//!   oversubscribed bottleneck link (e.g. the single inter-worker link of
//!   the paper's Fig. 2).
//!
//! Both reduce to the same interface: a flow between two nodes consumes a
//! list of [`ResourceId`]s, each with a fixed capacity. The fluid layer and
//! the allocators work purely on resources and never inspect the topology
//! kind.

use crate::fattree::FatTreeFabric;
use crate::ids::{LinkId, NodeId, ResourceId};
use std::collections::{BTreeMap, VecDeque};

/// A non-blocking switch fabric with per-host NIC capacities.
///
/// Resource numbering: host `h` owns egress port `ResourceId(2h)` and
/// ingress port `ResourceId(2h + 1)`.
#[derive(Debug, Clone)]
pub struct BigSwitch {
    egress: Vec<f64>,
    ingress: Vec<f64>,
}

impl BigSwitch {
    /// Creates a fabric with explicit per-host egress/ingress capacities.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length, are empty, or contain a
    /// non-positive or non-finite capacity.
    pub fn new(egress: Vec<f64>, ingress: Vec<f64>) -> BigSwitch {
        assert_eq!(egress.len(), ingress.len(), "per-host capacity mismatch");
        assert!(!egress.is_empty(), "topology must have at least one host");
        for &c in egress.iter().chain(ingress.iter()) {
            assert!(c > 0.0 && c.is_finite(), "capacities must be positive: {c}");
        }
        BigSwitch { egress, ingress }
    }

    /// Creates a fabric of `hosts` hosts, all with the same NIC capacity.
    pub fn uniform(hosts: usize, capacity: f64) -> BigSwitch {
        BigSwitch::new(vec![capacity; hosts], vec![capacity; hosts])
    }

    /// Number of hosts.
    pub fn hosts(&self) -> usize {
        self.egress.len()
    }

    fn check_node(&self, n: NodeId) {
        assert!(
            (n.0 as usize) < self.hosts(),
            "node {n} out of range (hosts={})",
            self.hosts()
        );
    }

    /// The egress-port resource of host `n`.
    pub fn egress_port(&self, n: NodeId) -> ResourceId {
        self.check_node(n);
        ResourceId(2 * n.0)
    }

    /// The ingress-port resource of host `n`.
    pub fn ingress_port(&self, n: NodeId) -> ResourceId {
        self.check_node(n);
        ResourceId(2 * n.0 + 1)
    }
}

/// A directed graph of capacitated links with static shortest-path routes.
///
/// Routes are computed by breadth-first search at construction (fewest
/// hops; ties broken by smallest link id so routing is deterministic).
/// Resource numbering: link `l` is `ResourceId(l)`.
#[derive(Debug, Clone)]
pub struct LinkGraph {
    nodes: usize,
    /// (src, dst, capacity) per link, indexed by `LinkId`.
    links: Vec<(NodeId, NodeId, f64)>,
    /// Adjacency: for each node, outgoing `LinkId`s in ascending id order.
    adjacency: Vec<Vec<LinkId>>,
    /// Precomputed route cache: `(src, dst) -> link path`.
    routes: BTreeMap<(NodeId, NodeId), Vec<LinkId>>,
}

impl LinkGraph {
    /// Builds a graph from directed `(src, dst, capacity)` link triples.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, non-positive capacities, or
    /// self-loops.
    pub fn new(nodes: usize, link_specs: Vec<(NodeId, NodeId, f64)>) -> LinkGraph {
        assert!(nodes > 0, "graph must have at least one node");
        let mut adjacency = vec![Vec::new(); nodes];
        for (i, &(src, dst, cap)) in link_specs.iter().enumerate() {
            assert!((src.0 as usize) < nodes, "link source {src} out of range");
            assert!((dst.0 as usize) < nodes, "link dest {dst} out of range");
            assert!(src != dst, "self-loop link at {src}");
            assert!(cap > 0.0 && cap.is_finite(), "bad link capacity {cap}");
            adjacency[src.0 as usize].push(LinkId(i as u32));
        }
        let mut graph = LinkGraph {
            nodes,
            links: link_specs,
            adjacency,
            routes: BTreeMap::new(),
        };
        graph.precompute_routes();
        graph
    }

    /// A bidirectional chain `0 — 1 — ... — (n-1)` with uniform capacity:
    /// the natural topology of a pipeline-parallel stage sequence.
    pub fn chain(nodes: usize, capacity: f64) -> LinkGraph {
        let mut links = Vec::new();
        for i in 0..nodes.saturating_sub(1) {
            links.push((NodeId(i as u32), NodeId(i as u32 + 1), capacity));
            links.push((NodeId(i as u32 + 1), NodeId(i as u32), capacity));
        }
        LinkGraph::new(nodes, links)
    }

    fn precompute_routes(&mut self) {
        for src in 0..self.nodes {
            let src = NodeId(src as u32);
            // BFS from src; parent[n] = link taken to reach n.
            let mut parent: Vec<Option<LinkId>> = vec![None; self.nodes];
            let mut visited = vec![false; self.nodes];
            visited[src.0 as usize] = true;
            let mut queue = VecDeque::new();
            queue.push_back(src);
            while let Some(node) = queue.pop_front() {
                for &lid in &self.adjacency[node.0 as usize] {
                    let (_, dst, _) = self.links[lid.0 as usize];
                    if !visited[dst.0 as usize] {
                        visited[dst.0 as usize] = true;
                        parent[dst.0 as usize] = Some(lid);
                        queue.push_back(dst);
                    }
                }
            }
            for dst in 0..self.nodes {
                let dst = NodeId(dst as u32);
                if dst == src || !visited[dst.0 as usize] {
                    continue;
                }
                let mut path = Vec::new();
                let mut cur = dst;
                while cur != src {
                    // Unreachable from the public API: the search sets a
                    // node's parent link when it first visits it, src
                    // aside, and each parent link leaves a node visited
                    // earlier, so the walk meets only visited nodes and
                    // ends at src.
                    let lid = parent[cur.0 as usize].expect("visited node has parent");
                    path.push(lid);
                    cur = self.links[lid.0 as usize].0;
                }
                path.reverse();
                self.routes.insert((src, dst), path);
            }
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of links.
    pub fn links(&self) -> usize {
        self.links.len()
    }

    /// The `(src, dst, capacity)` of a link.
    pub fn link(&self, id: LinkId) -> (NodeId, NodeId, f64) {
        self.links[id.0 as usize]
    }

    /// The link path from `src` to `dst`, or `None` if unreachable.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<&[LinkId]> {
        self.routes.get(&(src, dst)).map(|v| v.as_slice())
    }
}

/// A network topology: any model, reduced to capacitated resources.
#[derive(Debug, Clone)]
pub enum Topology {
    /// Non-blocking fabric with per-host NIC ports.
    BigSwitch(BigSwitch),
    /// Explicit link graph with static shortest-path routing.
    LinkGraph(LinkGraph),
    /// Formulaic k-ary fat-tree fabric: O(1) closed-form routing and a
    /// pod partition over all links, with no O(n²) route precompute —
    /// the scale model for 10k-host experiments
    /// ([`crate::fattree::FatTree::build_fabric`]).
    FatTree(FatTreeFabric),
}

impl Topology {
    /// Uniform-capacity big switch over `hosts` hosts.
    pub fn big_switch_uniform(hosts: usize, capacity: f64) -> Topology {
        Topology::BigSwitch(BigSwitch::uniform(hosts, capacity))
    }

    /// Bidirectional uniform-capacity chain (pipeline topology).
    pub fn chain(nodes: usize, capacity: f64) -> Topology {
        Topology::LinkGraph(LinkGraph::chain(nodes, capacity))
    }

    /// A dumbbell: `left` hosts and `right` hosts joined by one
    /// bidirectional core link of capacity `core_cap`; every host's edge
    /// link has capacity `edge_cap`. The standard topology for studying a
    /// shared oversubscribed bottleneck: all left→right traffic contends
    /// on the core.
    ///
    /// Node numbering: hosts `0..left` on the left, `left..left+right` on
    /// the right, then the two internal switch nodes.
    pub fn dumbbell(left: usize, right: usize, edge_cap: f64, core_cap: f64) -> Topology {
        assert!(
            left >= 1 && right >= 1,
            "dumbbell needs hosts on both sides"
        );
        let ls = NodeId((left + right) as u32); // left switch
        let rs = NodeId((left + right + 1) as u32); // right switch
        let mut links = Vec::new();
        for h in 0..left {
            let n = NodeId(h as u32);
            links.push((n, ls, edge_cap));
            links.push((ls, n, edge_cap));
        }
        for h in 0..right {
            let n = NodeId((left + h) as u32);
            links.push((n, rs, edge_cap));
            links.push((rs, n, edge_cap));
        }
        links.push((ls, rs, core_cap));
        links.push((rs, ls, core_cap));
        Topology::LinkGraph(LinkGraph::new(left + right + 2, links))
    }

    /// Number of hosts/nodes.
    pub fn num_nodes(&self) -> usize {
        match self {
            Topology::BigSwitch(bs) => bs.hosts(),
            Topology::LinkGraph(g) => g.nodes(),
            Topology::FatTree(f) => f.num_nodes(),
        }
    }

    /// Total number of allocatable resources.
    pub fn num_resources(&self) -> usize {
        match self {
            Topology::BigSwitch(bs) => 2 * bs.hosts(),
            Topology::LinkGraph(g) => g.links(),
            Topology::FatTree(f) => f.num_resources(),
        }
    }

    /// Pod partition metadata: `Some((pod_count, pod_of_resource))` when
    /// every resource of this topology belongs to exactly one pod (the
    /// fat-tree fabric: host and edge↔agg links carry their pod's id,
    /// agg↔core links the aggregation side's pod). `None` for topologies
    /// without a pod structure — consumers must then fall back to
    /// whole-fabric allocation.
    pub fn pod_partition(&self) -> Option<(u32, &[u32])> {
        match self {
            Topology::FatTree(f) => Some((f.pods(), f.pod_of_resource())),
            _ => None,
        }
    }

    /// The pod a host lives in, when the topology has pods.
    pub fn host_pod(&self, n: NodeId) -> Option<u32> {
        match self {
            Topology::FatTree(f) => Some(f.host_pod(n)),
            _ => None,
        }
    }

    /// Capacity of a resource.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        match self {
            Topology::BigSwitch(bs) => {
                let host = (r.0 / 2) as usize;
                if r.0.is_multiple_of(2) {
                    bs.egress[host]
                } else {
                    bs.ingress[host]
                }
            }
            Topology::LinkGraph(g) => g.links[r.0 as usize].2,
            Topology::FatTree(f) => f.capacity(r),
        }
    }

    /// Overwrites the capacity of a resource — the fault-injection
    /// mutation path ([`crate::fault`]). Unlike construction, a zero
    /// capacity is allowed here: it models a downed link (flows crossing
    /// it stall at rate 0 until restored). Routes are unaffected — a
    /// downed link keeps carrying its flows' routes, it just serves them
    /// at zero rate (the fluid analogue of packets blackholing on a dead
    /// interface rather than being rerouted).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `cap` is negative or non-finite.
    pub fn set_capacity(&mut self, r: ResourceId, cap: f64) {
        assert!(
            cap >= 0.0 && cap.is_finite(),
            "capacity must be finite and non-negative: {cap}"
        );
        match self {
            Topology::BigSwitch(bs) => {
                let host = (r.0 / 2) as usize;
                assert!(host < bs.hosts(), "resource {r} out of range");
                if r.0.is_multiple_of(2) {
                    bs.egress[host] = cap;
                } else {
                    bs.ingress[host] = cap;
                }
            }
            Topology::LinkGraph(g) => {
                assert!((r.0 as usize) < g.links.len(), "resource {r} out of range");
                g.links[r.0 as usize].2 = cap;
            }
            Topology::FatTree(f) => f.set_capacity(r, cap),
        }
    }

    /// Writes every resource's capacity into `out` (indexed by resource
    /// id), reusing its storage. The dense mirror of [`Self::capacity`],
    /// used to seed residual buffers without a per-call allocation.
    pub fn capacities_into(&self, out: &mut Vec<f64>) {
        out.clear();
        match self {
            Topology::BigSwitch(bs) => {
                out.reserve(2 * bs.hosts());
                for h in 0..bs.hosts() {
                    out.push(bs.egress[h]);
                    out.push(bs.ingress[h]);
                }
            }
            Topology::LinkGraph(g) => {
                out.extend(g.links.iter().map(|&(_, _, cap)| cap));
            }
            Topology::FatTree(f) => out.extend_from_slice(f.caps()),
        }
    }

    /// The resources a `src → dst` flow occupies, in deterministic order.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints coincide or no route exists.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<ResourceId> {
        let mut out = Vec::new();
        self.route_into(src, dst, &mut out);
        out
    }

    /// Appends the `src → dst` route into `out` (cleared first), reusing
    /// its storage — the allocation-free form of [`Self::route`] used by
    /// the flow arena's recycled route buffers.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints coincide or no route exists.
    pub fn route_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<ResourceId>) {
        assert!(src != dst, "flow endpoints coincide: {src}");
        out.clear();
        match self {
            Topology::BigSwitch(bs) => {
                out.push(bs.egress_port(src));
                out.push(bs.ingress_port(dst));
            }
            Topology::LinkGraph(g) => {
                let path = g
                    .path(src, dst)
                    .unwrap_or_else(|| panic!("no route from {src} to {dst}"));
                out.extend(path.iter().map(|l| ResourceId(l.0)));
            }
            Topology::FatTree(f) => f.route_into(src, dst, out),
        }
    }

    /// The tightest capacity along the route: an upper bound on any single
    /// flow's rate between the two nodes.
    pub fn bottleneck_capacity(&self, src: NodeId, dst: NodeId) -> f64 {
        self.route(src, dst)
            .into_iter()
            .map(|r| self.capacity(r))
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_switch_resources() {
        let t = Topology::big_switch_uniform(3, 2.0);
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_resources(), 6);
        assert_eq!(t.capacity(ResourceId(0)), 2.0);
        let route = t.route(NodeId(0), NodeId(2));
        assert_eq!(route, vec![ResourceId(0), ResourceId(5)]);
    }

    #[test]
    fn big_switch_asymmetric_capacities() {
        let bs = BigSwitch::new(vec![1.0, 2.0], vec![3.0, 4.0]);
        let t = Topology::BigSwitch(bs);
        assert_eq!(t.capacity(ResourceId(0)), 1.0); // host0 egress
        assert_eq!(t.capacity(ResourceId(1)), 3.0); // host0 ingress
        assert_eq!(t.capacity(ResourceId(2)), 2.0); // host1 egress
        assert_eq!(t.capacity(ResourceId(3)), 4.0); // host1 ingress
    }

    #[test]
    fn capacities_into_matches_capacity() {
        let topos = [
            Topology::BigSwitch(BigSwitch::new(vec![1.0, 2.0], vec![3.0, 4.0])),
            Topology::chain(4, 2.5),
            Topology::dumbbell(2, 2, 10.0, 1.0),
        ];
        let mut caps = vec![99.0]; // stale contents must be discarded
        for t in &topos {
            t.capacities_into(&mut caps);
            assert_eq!(caps.len(), t.num_resources());
            for (r, &c) in caps.iter().enumerate() {
                assert_eq!(c, t.capacity(ResourceId(r as u32)));
            }
        }
    }

    #[test]
    fn set_capacity_mutates_both_models() {
        let mut bs = Topology::big_switch_uniform(2, 2.0);
        bs.set_capacity(ResourceId(1), 0.0); // host0 ingress down
        assert_eq!(bs.capacity(ResourceId(1)), 0.0);
        assert_eq!(bs.capacity(ResourceId(0)), 2.0);
        bs.set_capacity(ResourceId(1), 0.5);
        assert_eq!(bs.capacity(ResourceId(1)), 0.5);

        let mut g = Topology::chain(3, 4.0);
        g.set_capacity(ResourceId(2), 1.0);
        assert_eq!(g.capacity(ResourceId(2)), 1.0);
        let mut caps = Vec::new();
        g.capacities_into(&mut caps);
        assert_eq!(caps[2], 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_capacity_mutation_rejected() {
        let mut t = Topology::big_switch_uniform(2, 1.0);
        t.set_capacity(ResourceId(0), -1.0);
    }

    #[test]
    fn chain_routes_are_hop_by_hop() {
        let t = Topology::chain(4, 1.0);
        // 0 -> 3 must traverse three forward links.
        let route = t.route(NodeId(0), NodeId(3));
        assert_eq!(route.len(), 3);
        // 3 -> 0 traverses three backward links, disjoint from forward ones.
        let back = t.route(NodeId(3), NodeId(0));
        assert_eq!(back.len(), 3);
        for r in &route {
            assert!(!back.contains(r), "forward/backward links must differ");
        }
    }

    #[test]
    fn chain_adjacent_route_single_link() {
        let t = Topology::chain(3, 5.0);
        let route = t.route(NodeId(1), NodeId(2));
        assert_eq!(route.len(), 1);
        assert_eq!(t.capacity(route[0]), 5.0);
        assert_eq!(t.bottleneck_capacity(NodeId(1), NodeId(2)), 5.0);
    }

    #[test]
    fn bottleneck_capacity_min_along_path() {
        let g = LinkGraph::new(
            3,
            vec![(NodeId(0), NodeId(1), 10.0), (NodeId(1), NodeId(2), 1.0)],
        );
        let t = Topology::LinkGraph(g);
        assert_eq!(t.bottleneck_capacity(NodeId(0), NodeId(2)), 1.0);
    }

    #[test]
    fn dumbbell_shares_core_link() {
        let t = Topology::dumbbell(2, 2, 10.0, 1.0);
        assert_eq!(t.num_nodes(), 6);
        // Cross traffic 0→2 and 1→3 shares exactly one resource: the
        // forward core link.
        let r0 = t.route(NodeId(0), NodeId(2));
        let r1 = t.route(NodeId(1), NodeId(3));
        let shared: Vec<_> = r0.iter().filter(|r| r1.contains(r)).collect();
        assert_eq!(shared.len(), 1);
        assert_eq!(t.capacity(*shared[0]), 1.0);
        assert_eq!(t.bottleneck_capacity(NodeId(0), NodeId(2)), 1.0);
        // Same-side traffic avoids the core.
        let same = t.route(NodeId(0), NodeId(1));
        for r in &same {
            assert!(t.capacity(*r) > 1.0);
        }
        // Reverse direction uses the reverse core link, not the forward.
        let back = t.route(NodeId(2), NodeId(0));
        for r in &back {
            assert!(!r0.contains(r));
        }
    }

    #[test]
    fn bfs_prefers_fewest_hops() {
        // 0->2 directly and 0->1->2; direct must win.
        let g = LinkGraph::new(
            3,
            vec![
                (NodeId(0), NodeId(1), 1.0),
                (NodeId(1), NodeId(2), 1.0),
                (NodeId(0), NodeId(2), 1.0),
            ],
        );
        assert_eq!(g.path(NodeId(0), NodeId(2)).unwrap(), &[LinkId(2)]);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unreachable_route_panics() {
        let g = LinkGraph::new(2, vec![(NodeId(0), NodeId(1), 1.0)]);
        let t = Topology::LinkGraph(g);
        let _ = t.route(NodeId(1), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "endpoints coincide")]
    fn self_route_panics() {
        let t = Topology::big_switch_uniform(2, 1.0);
        let _ = t.route(NodeId(0), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        let t = Topology::big_switch_uniform(2, 1.0);
        let _ = t.route(NodeId(0), NodeId(9));
    }
}
