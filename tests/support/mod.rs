//! Test-only references shared by the differential suites: the
//! pod-sequential max-min reference and the map-based MADD reference,
//! plus the digest their pinned tables use, and a feed of pre-built
//! jobs.

use echelonflow::core::coflow::Coflow;
use echelonflow::core::echelon::EchelonFlow;
use echelonflow::core::{EchelonId, JobId};
use echelonflow::paradigms::dag::JobDag;
use echelonflow::paradigms::runtime::JobFeed;
use echelonflow::sched::book::EchelonBook;
use echelonflow::sched::echelon::{EchelonMadd, InterOrder, IntraMode};
use echelonflow::sched::sincronia::{bssi_order, GroupLoad};
use echelonflow::simnet::alloc::{waterfill_dense, AllocScratch};
use echelonflow::simnet::flow::ActiveFlowView;
use echelonflow::simnet::ids::{FlowId, NodeId};
use echelonflow::simnet::runner::{FlowOutcomes, FullRecompute, RatePolicy};
use echelonflow::simnet::time::{SimTime, EPS};
use echelonflow::simnet::topology::Topology;
use echelonflow::simnet::trace::TraceEventKind;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

/// The pod-sequential reference for `PodMaxMinPolicy`, re-derived from
/// the flow slice on every call with no state at all: every flow is
/// classified from the topology, and each pod is filled on its own, in
/// ascending pod order: `waterfill_dense` over that pod's views alone,
/// gathered in id order, with the rates scattered back. Any
/// core-crossing flow (or a topology without pods) takes the
/// whole-fabric `waterfill_dense` over every flow instead.
#[derive(Debug, Default)]
pub struct PodReference;

impl RatePolicy for PodReference {
    fn allocate_dense(
        &mut self,
        _now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(flows.len(), 0.0);
        let Some((npods, _)) = topo.pod_partition() else {
            waterfill_dense(topo, flows, None, out, ws);
            return;
        };
        let mut members = vec![Vec::new(); npods as usize];
        for (i, v) in flows.iter().enumerate() {
            match (topo.host_pod(v.src), topo.host_pod(v.dst)) {
                (Some(a), Some(b)) if a == b => members[a as usize].push(i),
                _ => {
                    waterfill_dense(topo, flows, None, out, ws);
                    return;
                }
            }
        }
        for pod in &members {
            let views: Vec<ActiveFlowView> = pod.iter().map(|&i| flows[i].clone()).collect();
            let mut rates = vec![0.0; views.len()];
            waterfill_dense(topo, &views, None, &mut rates, ws);
            for (&i, r) in pod.iter().zip(rates) {
                out[i] = r;
            }
        }
    }
}

/// One MADD configuration, buildable as the production scheduler or as
/// the map-based reference. `coflow` picks the grouping: the declared
/// EchelonFlows, or the coflows as one-stage groups (Eq. 5).
#[derive(Debug, Clone, Copy)]
pub struct Madd {
    pub inter: InterOrder,
    pub coflow: bool,
    pub intra: IntraMode,
    pub backfill: bool,
}

impl Madd {
    /// Every EchelonFlow configuration (4 orders × 2 intra modes, then
    /// the default with backfill off), then the coflow rankings (SEBF,
    /// i.e. `LeastWork`, and BSSI) with backfill on and off.
    pub fn all() -> Vec<Madd> {
        let inters = [
            InterOrder::MostTardy,
            InterOrder::LeastWork,
            InterOrder::EarliestDeadline,
            InterOrder::Bssi,
        ];
        let mut all = Vec::new();
        for inter in inters {
            for intra in [IntraMode::FinishEarly, IntraMode::Equalize] {
                all.push(Madd {
                    inter,
                    coflow: false,
                    intra,
                    backfill: true,
                });
            }
        }
        all.push(Madd {
            inter: InterOrder::EarliestDeadline,
            coflow: false,
            intra: IntraMode::FinishEarly,
            backfill: false,
        });
        for inter in [InterOrder::LeastWork, InterOrder::Bssi] {
            for backfill in [true, false] {
                all.push(Madd {
                    inter,
                    coflow: true,
                    intra: IntraMode::FinishEarly,
                    backfill,
                });
            }
        }
        all
    }

    /// The configuration's groups: `echelons`, or `coflows` as one-stage
    /// EchelonFlows.
    fn groups(self, echelons: &[EchelonFlow], coflows: &[Coflow]) -> Vec<EchelonFlow> {
        if self.coflow {
            coflows.iter().cloned().map(Coflow::into_echelon).collect()
        } else {
            echelons.to_vec()
        }
    }

    /// The production scheduler, `EchelonMadd` over the configuration's
    /// groups.
    pub fn engine(self, echelons: &[EchelonFlow], coflows: &[Coflow]) -> EchelonMadd {
        EchelonMadd::new(self.groups(echelons, coflows))
            .with_inter(self.inter)
            .with_intra(self.intra)
            .with_backfill(self.backfill)
    }

    /// The map-based reference over the same groups.
    pub fn reference(self, echelons: &[EchelonFlow], coflows: &[Coflow]) -> MaddReference {
        MaddReference {
            cfg: self,
            book: EchelonBook::new(self.groups(echelons, coflows)),
        }
    }
}

/// Group key: a declared group, or a flow of no group on its own.
/// Declared groups sort first, as in the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Group(EchelonId),
    Solo(FlowId),
}

/// The map-based MADD reference: regroups the flow slice on every call
/// and keeps only the book's reference times. Members are served in
/// (ideal finish, id) order, one MADD stage per ideal finish time; a solo
/// flow's ideal finish is its release.
#[derive(Debug)]
pub struct MaddReference {
    cfg: Madd,
    book: EchelonBook,
}

/// Per-resource occupancy seconds of `members` (`scale` divides each
/// flow's remaining bytes by link capacity), summed in member order.
fn load(
    members: &[(SimTime, usize)],
    flows: &[ActiveFlowView],
    topo: &Topology,
    scale: bool,
) -> BTreeMap<u32, f64> {
    let mut per_resource = BTreeMap::new();
    for &(_, i) in members {
        let v = &flows[i];
        for r in &v.route {
            let div = if scale { topo.capacity(*r) } else { 1.0 };
            *per_resource.entry(r.0).or_insert(0.0) += v.remaining / div;
        }
    }
    per_resource
}

fn max_value(per_resource: &BTreeMap<u32, f64>) -> f64 {
    per_resource.values().fold(0.0f64, |a, &b| a.max(b))
}

/// Tardiness of `members` served EDD in isolation: the max over EDD
/// prefixes of `now + prefix occupancy − deadline`.
fn projected_tardiness(
    now: SimTime,
    members: &[(SimTime, usize)],
    flows: &[ActiveFlowView],
    topo: &Topology,
) -> f64 {
    let mut worst = f64::NEG_INFINITY;
    let mut per_resource: BTreeMap<u32, f64> = BTreeMap::new();
    for &(d, i) in members {
        let v = &flows[i];
        for r in &v.route {
            *per_resource.entry(r.0).or_insert(0.0) += v.remaining / topo.capacity(*r);
        }
        let finish = v
            .route
            .iter()
            .map(|r| per_resource[&r.0])
            .fold(0.0, f64::max);
        worst = worst.max(now.secs() + finish - d.secs());
    }
    worst
}

/// The leading members that share the head's ideal finish time.
fn stage(members: &[(SimTime, usize)]) -> &[(SimTime, usize)] {
    let head = members[0].0;
    let len = members.iter().take_while(|m| m.0.approx_eq(head)).count();
    &members[..len]
}

impl MaddReference {
    fn weight(&self, key: Key) -> f64 {
        match key {
            Key::Group(id) => self.book.get(id).map_or(1.0, |h| h.weight()),
            Key::Solo(_) => 1.0,
        }
    }

    /// The serve order over the active groups.
    fn order(
        &self,
        now: SimTime,
        groups: &BTreeMap<Key, Vec<(SimTime, usize)>>,
        flows: &[ActiveFlowView],
        topo: &Topology,
    ) -> Vec<Key> {
        use InterOrder as I;
        if self.cfg.inter == I::Bssi {
            // BSSI sums each group's load in id order, not EDD order.
            let keys: Vec<Key> = groups.keys().copied().collect();
            let loads: Vec<GroupLoad> = keys
                .iter()
                .enumerate()
                .map(|(i, k)| {
                    let mut by_id = groups[k].clone();
                    by_id.sort_by_key(|m| m.1);
                    GroupLoad {
                        id: EchelonId(i as u64),
                        weight: self.weight(*k),
                        load: load(&by_id, flows, topo, true),
                    }
                })
                .collect();
            return bssi_order(&loads)
                .into_iter()
                .map(|id| keys[id.0 as usize])
                .collect();
        }
        let mut ranked: Vec<(f64, SimTime, Key)> = groups
            .iter()
            .map(|(&k, m)| {
                let head = m[0].0;
                let (rank, time) = match self.cfg.inter {
                    I::MostTardy => (
                        -(self.weight(k) * projected_tardiness(now, m, flows, topo)),
                        SimTime::ZERO,
                    ),
                    I::LeastWork => (max_value(&load(m, flows, topo, true)), SimTime::ZERO),
                    I::EarliestDeadline => (0.0, head),
                    I::Bssi => unreachable!(),
                };
                (rank, time, k)
            })
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        ranked.into_iter().map(|(_, _, k)| k).collect()
    }
}

impl RatePolicy for MaddReference {
    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.book.observe(now, flows);
        let mut groups: BTreeMap<Key, Vec<(SimTime, usize)>> = BTreeMap::new();
        for (i, v) in flows.iter().enumerate() {
            let (key, deadline) = match self.book.echelon_of(v.id) {
                Some(h) => (Key::Group(h.id()), self.book.ideal_finish(v.id).unwrap()),
                None => (Key::Solo(v.id), v.release),
            };
            groups.entry(key).or_default().push((deadline, i));
        }
        for members in groups.values_mut() {
            members.sort();
        }
        let mut residual: Vec<f64> = (0..topo.num_resources())
            .map(|r| topo.capacity(echelonflow::simnet::ids::ResourceId(r as u32)))
            .collect();
        out.clear();
        out.resize(flows.len(), 0.0);
        for key in self.order(now, &groups, flows, topo) {
            let members = &groups[&key];
            // Equalize caps every member at the rate that finishes it at
            // its ideal finish plus the group's projected tardiness.
            let tau = projected_tardiness(now, members, flows, topo).max(0.0);
            let cap = |d: SimTime, v: &ActiveFlowView| match self.cfg.intra {
                IntraMode::FinishEarly => f64::INFINITY,
                IntraMode::Equalize => v.remaining / (d.secs() + tau - now.secs()).max(EPS),
            };
            let mut rest = &members[..];
            while !rest.is_empty() {
                let st = stage(rest);
                rest = &rest[st.len()..];
                let mut gamma: f64 = 0.0;
                for (&r, &bytes) in &load(st, flows, topo, false) {
                    let res = residual[r as usize];
                    if res <= EPS {
                        gamma = f64::INFINITY;
                        break;
                    }
                    gamma = gamma.max(bytes / res);
                }
                if !gamma.is_finite() || gamma <= EPS {
                    continue;
                }
                for &(d, i) in st {
                    let v = &flows[i];
                    let rate = (v.remaining / gamma).min(cap(d, v));
                    out[i] = rate;
                    for r in &v.route {
                        residual[r.0 as usize] = (residual[r.0 as usize] - rate).max(0.0);
                    }
                }
            }
        }
        if self.cfg.backfill {
            waterfill_dense(topo, flows, None, out, ws);
        }
    }
}

/// Runs `run` on `policy` plain, or wrapped in [`FullRecompute`] when
/// `full`: the two sides of every Full ≡ Incremental differential.
pub fn plain_or_full<R>(
    full: bool,
    policy: &mut dyn RatePolicy,
    run: impl FnOnce(&mut dyn RatePolicy) -> R,
) -> R {
    if full {
        run(&mut FullRecompute(policy))
    } else {
        run(policy)
    }
}

/// Runs each MADD configuration of one grouping (`coflow`, else
/// EchelonFlow) three ways per seed: the map-based reference, then the
/// engine through [`FullRecompute`] and plain. All three must
/// agree in trace events, completions and fault accounting, and the
/// digest folded over the seeds must equal the configuration's entry in
/// `pins` (indexed like [`Madd::all`]). `groups(seed)` declares a seed's
/// EchelonFlows and coflows; `run(seed, policy)` drives its flows.
pub fn assert_madd_three_way(
    coflow: bool,
    pins: &[u64],
    seeds: Range<u64>,
    groups: impl Fn(u64) -> (Vec<EchelonFlow>, Vec<Coflow>),
    run: impl Fn(u64, &mut dyn RatePolicy) -> FlowOutcomes,
) {
    let mut moved = Vec::new();
    assert_eq!(pins.len(), Madd::all().len(), "one pin per configuration");
    for (cfg, &pin) in Madd::all().into_iter().zip(pins) {
        if cfg.coflow != coflow {
            continue;
        }
        let mut digest: u64 = 0;
        for seed in seeds.clone() {
            let (echelons, coflows) = groups(seed);
            let reference = run(seed, &mut cfg.reference(&echelons, &coflows));
            for full in [true, false] {
                let out =
                    plain_or_full(full, &mut cfg.engine(&echelons, &coflows), |p| run(seed, p));
                let at = format!("{cfg:?} (full {full}), seed {seed}");
                assert_eq!(
                    reference.trace().events(),
                    out.trace().events(),
                    "trace diverged from the reference for {at}"
                );
                assert_eq!(
                    reference.completions(),
                    out.completions(),
                    "completions diverged for {at}"
                );
                assert_eq!(
                    reference.drive_stats().fault_events,
                    out.drive_stats().fault_events,
                    "fault accounting diverged for {at}"
                );
            }
            digest = (digest ^ flow_digest(&reference)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        if digest != pin {
            moved.push(format!("{cfg:?}: {digest:#018x} (pinned {pin:#018x})"));
        }
    }
    assert!(
        moved.is_empty(),
        "MADD digests moved:\n{}",
        moved.join("\n")
    );
}

/// FNV-1a over a flow-level run: every trace event (time, flow, kind,
/// rate bits), then every completion (id, release, finish).
pub fn flow_digest(out: &FlowOutcomes) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        h ^= word;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for e in out.trace().events() {
        eat(e.time.secs().to_bits());
        eat(e.flow.0);
        match e.kind {
            TraceEventKind::Released => eat(1),
            TraceEventKind::RateSet(rate) => {
                eat(2);
                eat(rate.to_bits());
            }
            TraceEventKind::Finished => eat(3),
        }
    }
    for c in out.completions().values() {
        eat(c.id.0);
        eat(c.release.secs().to_bits());
        eat(c.finish.secs().to_bits());
    }
    h
}

/// A feed that admits each pre-built DAG at its arrival time. Callers
/// put the DAGs on disjoint hosts, so claims never clash.
pub struct QueueFeed(VecDeque<(SimTime, JobDag)>);

impl QueueFeed {
    pub fn new(jobs: Vec<(SimTime, JobDag)>) -> QueueFeed {
        QueueFeed(jobs.into())
    }
}

impl JobFeed for QueueFeed {
    fn next_event_at(&self) -> Option<SimTime> {
        self.0.front().map(|&(at, _)| at)
    }

    fn admit(&mut self, now: SimTime, _claimed: &BTreeSet<NodeId>) -> Vec<JobDag> {
        let due = self
            .0
            .iter()
            .take_while(|(at, _)| at.at_or_before(now))
            .count();
        self.0.drain(..due).map(|(_, dag)| dag).collect()
    }

    fn on_job_retired(&mut self, _now: SimTime, _job: JobId) {}

    fn exhausted(&self) -> bool {
        self.0.is_empty()
    }
}
