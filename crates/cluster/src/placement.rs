//! GPU placement policies over a topology-aware host pool.
//!
//! Multi-tenant clusters fragment: a job's workers are often not
//! contiguous, which spreads its flows across more of the fabric and
//! increases contention with other jobs. This module assigns each job a
//! disjoint set of hosts under one of five policies, from the dedicated
//! ideal (packed) through the fragmented reality (scattered) to the
//! network-aware placers the CASSINI/Dally line of work motivates:
//! pod-packed ring affinity, phase-interleaving, and contention-aware
//! least-loaded selection.
//!
//! Three layers:
//!
//! - [`HostPool`] — the free/busy host set, partitioned into pods when
//!   the topology has a pod structure ([`Topology::host_pod`]); flat
//!   (one pod) on big switches and link graphs, so every policy degrades
//!   gracefully off the fat-tree.
//! - [`Placer`] — the policy object: given a request (job index, demand,
//!   optionally a profiled phase gap) and the current pool, picks a host
//!   set or returns a typed [`PlacementError`]. Stateful placers
//!   remember what they placed ([`Placer::forget`] releases a job on
//!   retirement) so admission-time placement can account for live
//!   neighbours only.
//! - [`place_jobs`] — the batch front-end used by closed-loop workload
//!   generation: place every job up front against a fresh pool,
//!   claiming as it goes.
//!
//! Determinism contract: every policy is a pure function of (policy
//! config, request sequence, pool state, topology). `Scattered` derives
//! a per-job subseed from its seed and the job index, so editing one
//! job's demand never reshuffles another job's hosts — the sweep's
//! placement axis is stable under demand edits.

use echelon_core::JobId;
use echelon_detrand::DetRng;
use echelon_simnet::ids::{NodeId, ResourceId};
use echelon_simnet::linkload::LinkLoad;
use echelon_simnet::topology::Topology;
use std::collections::BTreeSet;

/// How jobs' workers map onto hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Contiguous host blocks in arrival order (dedicated-cluster ideal).
    Packed,
    /// Hosts drawn from a per-job seeded shuffle of the free pool (the
    /// fragmented multi-tenant reality).
    Scattered {
        /// Base seed; each job shuffles under a subseed derived from this
        /// and its index (kept separate from the workload seed so the
        /// two can vary independently).
        seed: u64,
    },
    /// Minimize the pods a job spans on a pod-structured fabric
    /// (ring-affinity: all-reduce neighbours stay under the same edge
    /// and aggregation layer). Flat topologies degrade to
    /// [`PlacementPolicy::Packed`].
    PodPacked,
    /// CASSINI-style phase interleaving: prefer pods whose resident jobs
    /// have communication periods compatible with the new job's profiled
    /// phase gap, so their bursts can stagger instead of collide.
    PhaseInterleaved {
        /// Tie-break seed (used only when scores tie exactly).
        seed: u64,
    },
    /// Contention-aware least-loaded: greedily pick hosts minimizing the
    /// expected link overlap between the new job's internal routes and
    /// the routes of already-placed live jobs.
    LeastContended,
}

impl PlacementPolicy {
    /// The five comparable policies in report order.
    pub const ALL: [PlacementPolicy; 5] = [
        PlacementPolicy::Packed,
        PlacementPolicy::Scattered { seed: 0 },
        PlacementPolicy::PodPacked,
        PlacementPolicy::PhaseInterleaved { seed: 0 },
        PlacementPolicy::LeastContended,
    ];

    /// Display name (stable across seeds).
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::Packed => "packed",
            PlacementPolicy::Scattered { .. } => "scattered",
            PlacementPolicy::PodPacked => "pod-packed",
            PlacementPolicy::PhaseInterleaved { .. } => "phase-interleaved",
            PlacementPolicy::LeastContended => "least-contended",
        }
    }

    /// Same policy, reseeded (no-op for seedless policies). Lets sweeps
    /// vary the placement axis without matching on variants.
    pub fn with_seed(self, seed: u64) -> PlacementPolicy {
        match self {
            PlacementPolicy::Scattered { .. } => PlacementPolicy::Scattered { seed },
            PlacementPolicy::PhaseInterleaved { .. } => PlacementPolicy::PhaseInterleaved { seed },
            other => other,
        }
    }
}

/// Why a placement could not be produced. `Insufficient` is the
/// *waitlist* outcome: the demand may fit later once hosts free, so
/// admission-time callers park the job instead of aborting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// Demand exceeds the currently free host count.
    Insufficient {
        /// Hosts the job needs.
        demand: usize,
        /// Hosts currently free.
        free: usize,
    },
    /// The pool size does not fit the `u32` node-id space.
    PoolTooLarge {
        /// Requested host count.
        hosts: usize,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::Insufficient { demand, free } => {
                write!(f, "placement needs {demand} hosts but only {free} are free")
            }
            PlacementError::PoolTooLarge { hosts } => {
                write!(f, "pool of {hosts} hosts exceeds the u32 node-id space")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// The free/busy host set, partitioned into pods when the topology has
/// a pod structure. Hosts are `0..hosts`; pods are contiguous host
/// groups on a fat-tree fabric and a single flat pod everywhere else.
///
/// The free set is a bitset with a free count per pod and in total, so
/// counting is O(1) and listing free hosts reads one word per 64 hosts.
#[derive(Debug, Clone)]
pub struct HostPool {
    /// Hosts grouped by pod; ascending within each pod and across pods.
    pods: Vec<Vec<NodeId>>,
    /// Pod of each host; its length is the host count.
    pod_of: Vec<u32>,
    /// Free hosts: bit `h % 64` of word `h / 64` is set iff host `h` is
    /// free. Bits past the last host stay clear.
    free: Vec<u64>,
    /// Free hosts per pod.
    pod_free: Vec<usize>,
    /// Free hosts in all.
    num_free: usize,
}

impl HostPool {
    /// A flat pool (one pod) over hosts `0..hosts`, all free.
    pub fn flat(hosts: usize) -> Result<HostPool, PlacementError> {
        let n = u32::try_from(hosts).map_err(|_| PlacementError::PoolTooLarge { hosts })?;
        Ok(HostPool::from_pods(vec![(0..n).map(NodeId).collect()]))
    }

    /// A pool over hosts `0..hosts` partitioned by the topology's pod
    /// structure ([`Topology::host_pod`]); flat when the topology has
    /// none.
    pub fn on_topology(hosts: usize, topo: &Topology) -> Result<HostPool, PlacementError> {
        let n = u32::try_from(hosts).map_err(|_| PlacementError::PoolTooLarge { hosts })?;
        let mut pods: Vec<Vec<NodeId>> = Vec::new();
        for h in (0..n).map(NodeId) {
            let pod = topo.host_pod(h).unwrap_or(0) as usize;
            if pods.len() <= pod {
                pods.resize(pod + 1, Vec::new());
            }
            pods[pod].push(h);
        }
        // `free_in_pod` reads each pod as one range of the free set.
        let contiguous = |p: &Vec<NodeId>| {
            p.last()
                .is_none_or(|l| (l.0 - p[0].0) as usize + 1 == p.len())
        };
        assert!(
            pods.iter().all(contiguous),
            "pods must be contiguous host ranges"
        );
        Ok(HostPool::from_pods(pods))
    }

    /// A pool over the given pods of hosts `0..n`, all free.
    fn from_pods(pods: Vec<Vec<NodeId>>) -> HostPool {
        let hosts = pods.iter().map(Vec::len).sum::<usize>();
        let mut pod_of = vec![0; hosts];
        for (p, pod) in pods.iter().enumerate() {
            for h in pod {
                pod_of[h.0 as usize] = p as u32;
            }
        }
        let mut pool = HostPool {
            pod_free: vec![0; pods.len()],
            pods,
            pod_of,
            free: Vec::new(),
            num_free: 0,
        };
        pool.reset_with_busy(&BTreeSet::new());
        pool
    }

    /// Currently free hosts.
    pub fn num_free(&self) -> usize {
        self.num_free
    }

    /// Number of pods (1 on flat topologies).
    pub fn num_pods(&self) -> usize {
        self.pods.len()
    }

    /// The hosts of pod `p`, ascending (free and busy alike).
    pub fn pod_hosts(&self, p: usize) -> &[NodeId] {
        &self.pods[p]
    }

    /// Currently free hosts of pod `p`.
    pub fn num_free_in_pod(&self, p: usize) -> usize {
        self.pod_free[p]
    }

    /// Whether `h` is currently free.
    pub fn is_free(&self, h: NodeId) -> bool {
        let h = h.0 as usize;
        h < self.pod_of.len() && self.free[h / 64] & (1 << (h % 64)) != 0
    }

    /// All free hosts, ascending.
    pub fn free_hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        SetBits::new(&self.free, 0, self.pod_of.len())
    }

    /// Free hosts of pod `p`, ascending. Pods are contiguous host ranges,
    /// so these are one range of the free set: no per-host lookup.
    pub fn free_in_pod(&self, p: usize) -> impl Iterator<Item = NodeId> + '_ {
        let pod = &self.pods[p];
        let (lo, hi) = match (pod.first(), pod.last()) {
            (Some(first), Some(last)) => (first.0 as usize, last.0 as usize + 1),
            _ => (0, 0),
        };
        SetBits::new(&self.free, lo, hi)
    }

    /// Marks hosts busy.
    ///
    /// # Panics
    ///
    /// Panics if a host was not free (double-claims are placement bugs).
    pub fn claim(&mut self, hosts: &[NodeId]) {
        for &h in hosts {
            assert!(self.is_free(h), "host {h} claimed twice");
            self.take(h.0 as usize);
        }
    }

    /// Marks free host `h` busy.
    fn take(&mut self, h: usize) {
        self.free[h / 64] &= !(1 << (h % 64));
        self.pod_free[self.pod_of[h] as usize] -= 1;
        self.num_free -= 1;
    }

    /// Resets the pool so exactly the hosts *not* in `busy` are free —
    /// the admission-time entry point, where the runtime owns the claim
    /// set and the pool is rebuilt per admission pass. Costs one word per
    /// 64 hosts plus one step per busy host.
    pub fn reset_with_busy(&mut self, busy: &BTreeSet<NodeId>) {
        let hosts = self.pod_of.len();
        self.free.clear();
        self.free.resize(hosts / 64, !0);
        let tail = hosts % 64;
        if tail > 0 {
            self.free.push((1 << tail) - 1);
        }
        for (count, pod) in self.pod_free.iter_mut().zip(&self.pods) {
            *count = pod.len();
        }
        self.num_free = hosts;
        for &h in busy {
            if self.is_free(h) {
                self.take(h.0 as usize);
            }
        }
    }
}

/// The set bits of a bitset in the bit range `lo..hi`, ascending.
struct SetBits<'a> {
    words: &'a [u64],
    /// Index of the word `bits` came from.
    word: usize,
    /// The not yet listed set bits of that word.
    bits: u64,
    hi: usize,
}

impl<'a> SetBits<'a> {
    fn new(words: &'a [u64], lo: usize, hi: usize) -> SetBits<'a> {
        let bits = if lo < hi {
            words[lo / 64] & (!0 << (lo % 64))
        } else {
            0
        };
        SetBits {
            words,
            word: lo / 64,
            bits,
            hi,
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.bits == 0 {
            self.word += 1;
            if self.word * 64 >= self.hi {
                return None;
            }
            self.bits = self.words[self.word];
        }
        let h = self.word * 64 + self.bits.trailing_zeros() as usize;
        if h >= self.hi {
            self.bits = 0;
            return None;
        }
        self.bits &= self.bits - 1;
        Some(NodeId(h as u32))
    }
}

/// One job's placement request.
#[derive(Debug, Clone, Copy)]
pub struct PlacementRequest {
    /// Job identity (stateful placers key their memory on this).
    pub job: JobId,
    /// Stream/workload index of the job — the per-job subseed input, so
    /// it must be stable across modes and demand edits.
    pub index: usize,
    /// Hosts the job needs.
    pub demand: usize,
    /// Profiled communication-phase gap (`paradigms::profiler`), when
    /// the caller computed one; `None` falls back to a unit period.
    pub phase_gap: Option<f64>,
}

/// A placement policy object: picks host sets from a pool, one job at a
/// time, optionally remembering what it placed.
pub trait Placer {
    /// Stable display name.
    fn name(&self) -> &'static str;

    /// Whether [`PlacementRequest::phase_gap`] influences this policy —
    /// callers skip the profiling run otherwise.
    fn wants_phase_gap(&self) -> bool {
        false
    }

    /// Picks `req.demand` free hosts from `pool`, or returns the typed
    /// waitlist outcome. Must not mutate the pool — the caller claims.
    ///
    /// Two rules every policy keeps, which admission relies on to skip
    /// calls and passes whose outcome it already knows:
    ///
    /// - it returns `Err` exactly when `req.demand > pool.num_free()`;
    /// - a failed call leaves the placer's memory unchanged, so failing
    ///   calls interleaved between successful ones change none of them.
    fn place(
        &mut self,
        req: &PlacementRequest,
        pool: &HostPool,
        topo: &Topology,
    ) -> Result<Vec<NodeId>, PlacementError>;

    /// Drops a placed job from the policy's memory (retirement).
    fn forget(&mut self, _job: JobId) {}
}

/// The policy object behind a [`PlacementPolicy`] value.
pub fn placer_for(policy: PlacementPolicy) -> Box<dyn Placer> {
    match policy {
        PlacementPolicy::Packed => Box::new(PackedPlacer),
        PlacementPolicy::Scattered { seed } => Box::new(ScatteredPlacer { seed }),
        PlacementPolicy::PodPacked => Box::new(PodPackedPlacer),
        PlacementPolicy::PhaseInterleaved { seed } => Box::new(PhaseInterleavedPlacer {
            seed,
            resident: Vec::new(),
        }),
        PlacementPolicy::LeastContended => Box::new(LeastContendedPlacer {
            load: LinkLoad::new(),
            resident: Vec::new(),
            started: false,
            route_buf: Vec::new(),
        }),
    }
}

fn check_demand(req: &PlacementRequest, pool: &HostPool) -> Result<(), PlacementError> {
    if req.demand > pool.num_free() {
        Err(PlacementError::Insufficient {
            demand: req.demand,
            free: pool.num_free(),
        })
    } else {
        Ok(())
    }
}

/// Contiguous-ideal: the lowest-id free hosts.
struct PackedPlacer;

impl Placer for PackedPlacer {
    fn name(&self) -> &'static str {
        "packed"
    }

    fn place(
        &mut self,
        req: &PlacementRequest,
        pool: &HostPool,
        _topo: &Topology,
    ) -> Result<Vec<NodeId>, PlacementError> {
        check_demand(req, pool)?;
        Ok(pool.free_hosts().take(req.demand).collect())
    }
}

/// Per-job subseed: disperses the job index before mixing it into the
/// base seed so consecutive indices land in unrelated streams.
fn subseed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64)
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Fragmented reality: a fresh seeded shuffle of the free pool per job.
struct ScatteredPlacer {
    seed: u64,
}

impl Placer for ScatteredPlacer {
    fn name(&self) -> &'static str {
        "scattered"
    }

    fn place(
        &mut self,
        req: &PlacementRequest,
        pool: &HostPool,
        _topo: &Topology,
    ) -> Result<Vec<NodeId>, PlacementError> {
        check_demand(req, pool)?;
        let mut free: Vec<NodeId> = pool.free_hosts().collect();
        DetRng::seed_from_u64(subseed(self.seed, req.index)).shuffle(&mut free);
        free.truncate(req.demand);
        Ok(free)
    }
}

/// Pods ordered largest-free-count first (ties: lower pod index). Taking
/// whole pods in this order provably minimizes the number of pods
/// spanned: any `m` pods hold at most the sum of the `m` largest free
/// counts.
fn pods_by_free_desc(pool: &HostPool) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> = (0..pool.num_pods())
        .map(|p| (p, pool.num_free_in_pod(p)))
        .collect();
    order.sort_by_key(|&(p, free)| (std::cmp::Reverse(free), p));
    order
}

/// Ring-affinity: span as few pods as possible.
struct PodPackedPlacer;

impl Placer for PodPackedPlacer {
    fn name(&self) -> &'static str {
        "pod-packed"
    }

    fn place(
        &mut self,
        req: &PlacementRequest,
        pool: &HostPool,
        _topo: &Topology,
    ) -> Result<Vec<NodeId>, PlacementError> {
        check_demand(req, pool)?;
        let mut out = Vec::with_capacity(req.demand);
        for (p, _) in pods_by_free_desc(pool) {
            for h in pool.free_in_pod(p) {
                if out.len() == req.demand {
                    return Ok(out);
                }
                out.push(h);
            }
            if out.len() == req.demand {
                break;
            }
        }
        Ok(out)
    }
}

/// How badly two communication periods interleave: 0 when equal (bursts
/// can be phase-shifted apart, the CASSINI-compatible case), approaching
/// 1 as the periods diverge (rolling collisions).
fn period_mismatch(a: f64, b: f64) -> f64 {
    let (a, b) = (a.max(1e-9), b.max(1e-9));
    (a - b).abs() / a.max(b)
}

/// CASSINI-style phase interleaving: keep the job with pods whose
/// resident jobs have compatible communication periods, preferring
/// emptier pods on ties.
struct PhaseInterleavedPlacer {
    seed: u64,
    /// Live placed jobs: `(job, hosts, phase gap)`.
    resident: Vec<(JobId, Vec<NodeId>, f64)>,
}

impl Placer for PhaseInterleavedPlacer {
    fn name(&self) -> &'static str {
        "phase-interleaved"
    }

    fn wants_phase_gap(&self) -> bool {
        true
    }

    fn place(
        &mut self,
        req: &PlacementRequest,
        pool: &HostPool,
        _topo: &Topology,
    ) -> Result<Vec<NodeId>, PlacementError> {
        check_demand(req, pool)?;
        let gap = req.phase_gap.unwrap_or(1.0);
        // Score each pod: summed period mismatch against resident jobs
        // touching it, then resident host count (less shared fabric
        // first), then a seeded jitter that only breaks exact ties.
        let mut tiebreak = DetRng::seed_from_u64(subseed(self.seed, req.index));
        let mut scored: Vec<(f64, usize, u64, usize)> = (0..pool.num_pods())
            .map(|p| {
                let mut mismatch = 0.0;
                let mut residents = 0usize;
                for (_, hosts, g) in &self.resident {
                    let here = hosts
                        .iter()
                        .filter(|h| pool.pod_hosts(p).binary_search(h).is_ok())
                        .count();
                    if here > 0 {
                        mismatch += period_mismatch(gap, *g) * here as f64;
                        residents += here;
                    }
                }
                (mismatch, residents, tiebreak.next_u64(), p)
            })
            .collect();
        scored.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
        let mut out = Vec::with_capacity(req.demand);
        for &(_, _, _, p) in &scored {
            for h in pool.free_in_pod(p) {
                if out.len() == req.demand {
                    break;
                }
                out.push(h);
            }
            if out.len() == req.demand {
                break;
            }
        }
        self.resident.push((req.job, out.clone(), gap));
        Ok(out)
    }

    fn forget(&mut self, job: JobId) {
        self.resident.retain(|(j, _, _)| *j != job);
    }
}

/// Contention-aware least-loaded: greedy host selection minimizing the
/// expected overlap between the new job's internal routes and the routes
/// already loaded by live jobs ([`LinkLoad`] is the accumulator).
struct LeastContendedPlacer {
    load: LinkLoad,
    /// Live placed jobs and the routes they loaded (for [`forget`]).
    resident: Vec<(JobId, Vec<ResourceId>)>,
    started: bool,
    route_buf: Vec<ResourceId>,
}

impl LeastContendedPlacer {
    fn ensure_started(&mut self, topo: &Topology) {
        if !self.started {
            self.load.begin(topo.num_resources());
            self.started = true;
        }
    }

    /// Load along the candidate's access path: the links of the routes
    /// between `h` and each already-chosen host, or — for the first
    /// pick — a witness route toward host 0, which climbs the fabric's
    /// shared layers exactly where cross-job overlap happens.
    fn cost(&mut self, topo: &Topology, h: NodeId, chosen: &[NodeId]) -> f64 {
        let mut total = 0.0;
        let witness = [if h == NodeId(0) { NodeId(1) } else { NodeId(0) }];
        let peers: &[NodeId] = if chosen.is_empty() { &witness } else { chosen };
        for &c in peers {
            if c == h {
                continue;
            }
            topo.route_into(h, c, &mut self.route_buf);
            for i in 0..self.route_buf.len() {
                total += self.load.get(self.route_buf[i]);
            }
            topo.route_into(c, h, &mut self.route_buf);
            for i in 0..self.route_buf.len() {
                total += self.load.get(self.route_buf[i]);
            }
        }
        total
    }
}

impl Placer for LeastContendedPlacer {
    fn name(&self) -> &'static str {
        "least-contended"
    }

    fn place(
        &mut self,
        req: &PlacementRequest,
        pool: &HostPool,
        topo: &Topology,
    ) -> Result<Vec<NodeId>, PlacementError> {
        check_demand(req, pool)?;
        self.ensure_started(topo);
        let free: Vec<NodeId> = pool.free_hosts().collect();
        let mut chosen: Vec<NodeId> = Vec::with_capacity(req.demand);
        let mut used = vec![false; free.len()];
        for _ in 0..req.demand {
            let mut best: Option<(f64, usize)> = None;
            for (i, &h) in free.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let c = self.cost(topo, h, &chosen);
                if best.is_none_or(|(bc, _)| c < bc) {
                    best = Some((c, i));
                }
            }
            let (_, i) = best.expect("demand checked against free count");
            used[i] = true;
            chosen.push(free[i]);
        }
        // Record the job's internal routes as resident load.
        let mut touched = Vec::new();
        for &a in &chosen {
            for &b in &chosen {
                if a == b {
                    continue;
                }
                topo.route_into(a, b, &mut self.route_buf);
                for i in 0..self.route_buf.len() {
                    let r = self.route_buf[i];
                    self.load.add(r, 1.0);
                    touched.push(r);
                }
            }
        }
        self.resident.push((req.job, touched));
        Ok(chosen)
    }

    fn forget(&mut self, job: JobId) {
        let mut kept = Vec::with_capacity(self.resident.len());
        for (j, routes) in std::mem::take(&mut self.resident) {
            if j == job {
                for r in routes {
                    self.load.add(r, -1.0);
                }
            } else {
                kept.push((j, routes));
            }
        }
        self.resident = kept;
    }
}

/// Allocates disjoint host sets for jobs needing `demands[i]` hosts
/// each, against a fresh flat pool (use [`place_jobs_on`] for
/// topology-aware policies). Returns one host list per job, in job
/// order, or the first job's typed error.
pub fn place_jobs(
    policy: PlacementPolicy,
    hosts: usize,
    demands: &[usize],
) -> Result<Vec<Vec<NodeId>>, PlacementError> {
    let topo = Topology::big_switch_uniform(hosts, 1.0);
    place_jobs_on(policy, hosts, demands, &topo, &[])
}

/// [`place_jobs`] on an explicit topology: the pool inherits the
/// topology's pod structure and contention-aware policies see its
/// routes. `phase_gaps` supplies profiled phase gaps per job (empty, or
/// one entry per job with `None` for unprofiled jobs).
pub fn place_jobs_on(
    policy: PlacementPolicy,
    hosts: usize,
    demands: &[usize],
    topo: &Topology,
    phase_gaps: &[Option<f64>],
) -> Result<Vec<Vec<NodeId>>, PlacementError> {
    let mut pool = HostPool::on_topology(hosts, topo)?;
    let mut placer = placer_for(policy);
    let mut out = Vec::with_capacity(demands.len());
    for (i, &demand) in demands.iter().enumerate() {
        let req = PlacementRequest {
            job: JobId(i as u32),
            index: i,
            demand,
            phase_gap: phase_gaps.get(i).copied().flatten(),
        };
        let hosts = placer.place(&req, &pool, topo)?;
        debug_assert_eq!(hosts.len(), demand);
        pool.claim(&hosts);
        out.push(hosts);
    }
    Ok(out)
}

/// Number of distinct pods a host set touches on `topo` (1 on
/// topologies without a pod structure, 0 for an empty set).
pub fn pods_spanned(topo: &Topology, hosts: &[NodeId]) -> usize {
    let pods: BTreeSet<u32> = hosts
        .iter()
        .map(|&h| topo.host_pod(h).unwrap_or(0))
        .collect();
    pods.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use echelon_simnet::fattree::FatTree;

    #[test]
    fn packed_is_contiguous() {
        let placed = place_jobs(PlacementPolicy::Packed, 8, &[3, 2]).unwrap();
        assert_eq!(placed[0], vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(placed[1], vec![NodeId(3), NodeId(4)]);
    }

    #[test]
    fn scattered_is_deterministic_per_seed() {
        let a = place_jobs(PlacementPolicy::Scattered { seed: 7 }, 8, &[3, 2]).unwrap();
        let b = place_jobs(PlacementPolicy::Scattered { seed: 7 }, 8, &[3, 2]).unwrap();
        assert_eq!(a, b);
        let c = place_jobs(PlacementPolicy::Scattered { seed: 8 }, 8, &[3, 2]).unwrap();
        assert_ne!(a, c);
    }

    /// The per-job subseed fix: editing job 0's demand must not
    /// reshuffle job 1's draw (it previously shifted the shared-pool
    /// cursor under every later job).
    #[test]
    fn scattered_subseeds_are_stable_under_demand_edits() {
        let policy = PlacementPolicy::Scattered { seed: 11 };
        let before = place_jobs(policy, 16, &[3, 4]).unwrap();
        let after = place_jobs(policy, 16, &[2, 4]).unwrap();
        // Job 1 draws from its own subseeded shuffle; only entries taken
        // by job 0 can differ (they are skipped as busy).
        let kept: Vec<_> = after[1].iter().filter(|h| !before[0].contains(h)).collect();
        let expect: Vec<_> = before[1]
            .iter()
            .filter(|h| !after[0].contains(h) && kept.contains(h))
            .collect();
        for h in expect {
            assert!(after[1].contains(h), "job 1 lost stable host {h}");
        }
    }

    #[test]
    fn placements_are_disjoint() {
        for policy in PlacementPolicy::ALL {
            let placed = place_jobs(policy.with_seed(1), 10, &[4, 3, 3]).unwrap();
            let mut all: Vec<NodeId> = placed.into_iter().flatten().collect();
            let before = all.len();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), before, "{} overlapped", policy.name());
        }
    }

    #[test]
    fn overcommit_returns_typed_error() {
        let err = place_jobs(PlacementPolicy::Packed, 4, &[3, 2]).unwrap_err();
        assert_eq!(err, PlacementError::Insufficient { demand: 2, free: 1 });
        assert!(err.to_string().contains("placement needs"));
    }

    #[test]
    fn pod_packed_spans_one_pod_when_possible() {
        let topo = FatTree::new(4).build_fabric();
        let placed = place_jobs_on(PlacementPolicy::PodPacked, 16, &[4, 4, 3], &topo, &[]).unwrap();
        for (i, hosts) in placed.iter().enumerate() {
            assert_eq!(pods_spanned(&topo, hosts), 1, "job {i} spans {:?}", hosts);
        }
    }

    #[test]
    fn pod_packed_degrades_to_packed_on_big_switch() {
        let packed = place_jobs(PlacementPolicy::Packed, 12, &[3, 5]).unwrap();
        let pod = place_jobs(PlacementPolicy::PodPacked, 12, &[3, 5]).unwrap();
        assert_eq!(packed, pod);
    }

    #[test]
    fn phase_interleaved_separates_mismatched_periods() {
        let topo = FatTree::new(4).build_fabric();
        // Two jobs with identical periods pack together; a third with a
        // wildly different period is steered to the emptiest compatible
        // pod (which is any untouched pod, mismatch 0).
        let placed = place_jobs_on(
            PlacementPolicy::PhaseInterleaved { seed: 3 },
            16,
            &[4, 4, 4],
            &topo,
            &[Some(1.0), Some(1.0), Some(10.0)],
        )
        .unwrap();
        let third = &placed[2];
        // Job 2 avoids pods holding jobs 0 and 1 (mismatch 0.9 each).
        for h in third {
            let pod = topo.host_pod(*h).unwrap();
            for prior in &placed[..2] {
                for p in prior {
                    assert_ne!(
                        topo.host_pod(*p).unwrap(),
                        pod,
                        "mismatched-period job shares pod {pod}"
                    );
                }
            }
        }
    }

    #[test]
    fn least_contended_avoids_loaded_pods() {
        let topo = FatTree::new(4).build_fabric();
        // Jobs 0 and 1 fill pods; job 2 must pick the least-overlapping
        // free hosts. With pods 0 and 1 loaded, its greedy picks should
        // use untouched pods' hosts once forced off the witness path.
        let placed =
            place_jobs_on(PlacementPolicy::LeastContended, 16, &[4, 4, 4], &topo, &[]).unwrap();
        let mut all: Vec<NodeId> = placed.iter().flatten().copied().collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 12, "overlapping placement");
    }

    #[test]
    fn placer_forget_releases_memory() {
        let topo = FatTree::new(4).build_fabric();
        let mut pool = HostPool::on_topology(16, &topo).unwrap();
        let mut placer = placer_for(PlacementPolicy::LeastContended);
        let req = |i: usize, d: usize| PlacementRequest {
            job: JobId(i as u32),
            index: i,
            demand: d,
            phase_gap: None,
        };
        let a = placer.place(&req(0, 4), &pool, &topo).unwrap();
        pool.claim(&a);
        let b = placer.place(&req(1, 4), &pool, &topo).unwrap();
        pool.claim(&b);
        // Retire job 0, free its hosts: a fresh identical request must
        // be satisfiable again and stay disjoint from job 1.
        placer.forget(JobId(0));
        pool.reset_with_busy(&b.iter().copied().collect());
        let c = placer.place(&req(2, 4), &pool, &topo).unwrap();
        for h in &c {
            assert!(!b.contains(h), "reused a live job's host {h}");
        }
    }

    #[test]
    fn pool_too_large_is_checked() {
        if usize::BITS <= 32 {
            return; // the overflowing pool size is unrepresentable
        }
        let err = HostPool::flat(u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, PlacementError::PoolTooLarge { .. }));
    }

    #[test]
    fn reset_with_busy_rebuilds_free_set() {
        let topo = FatTree::new(4).build_fabric();
        let mut pool = HostPool::on_topology(16, &topo).unwrap();
        let busy: BTreeSet<NodeId> = [NodeId(0), NodeId(5)].into();
        pool.reset_with_busy(&busy);
        assert_eq!(pool.num_free(), 14);
        assert!(!pool.is_free(NodeId(0)));
        assert!(pool.is_free(NodeId(1)));
        assert_eq!(pool.num_free_in_pod(0), 3);
        assert_eq!(pool.num_free_in_pod(1), 3);
        assert_eq!(pool.num_free_in_pod(2), 4);
    }

    /// `free_in_pod` reads a range of the free set; it must list exactly
    /// the pod's hosts that are free, in ascending order, through claims
    /// and resets, on fat-tree and flat pools alike.
    #[test]
    fn free_in_pod_lists_the_pods_free_hosts() {
        let topo = FatTree::new(4).build_fabric();
        let mut pools = [
            HostPool::on_topology(16, &topo).unwrap(),
            HostPool::flat(16).unwrap(),
            HostPool::flat(0).unwrap(),
        ];
        for pool in &mut pools {
            let check = |pool: &HostPool| {
                for p in 0..pool.num_pods() {
                    let want: Vec<NodeId> = pool
                        .pod_hosts(p)
                        .iter()
                        .copied()
                        .filter(|&h| pool.is_free(h))
                        .collect();
                    assert_eq!(pool.num_free_in_pod(p), want.len(), "pod {p}");
                    assert_eq!(pool.free_in_pod(p).collect::<Vec<_>>(), want, "pod {p}");
                }
            };
            check(pool);
            let hosts: usize = (0..pool.num_pods()).map(|p| pool.pod_hosts(p).len()).sum();
            let busy: Vec<NodeId> = [0, 3, 4, 7, 8, 15]
                .into_iter()
                .filter(|&h| (h as usize) < hosts)
                .map(NodeId)
                .collect();
            pool.claim(&busy);
            check(pool);
            pool.reset_with_busy(&busy[busy.len() / 2..].iter().copied().collect());
            check(pool);
            pool.reset_with_busy(&[NodeId(5), NodeId(12)].into());
            check(pool);
        }
    }
}
