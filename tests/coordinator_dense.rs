//! The paper's coordinator path (agents → `Coordinator` →
//! `CoordinatedPolicy` → priority-queue enforcement) allocates in the
//! dense rate currency end to end.
//!
//! - `coordinator_runs_match_pinned_digests` pins the rate trace of every
//!   trigger, with and without control latency, through a coordinator
//!   outage, and behind queue enforcement, in both recompute modes. The
//!   pinned values were recorded from the map-based coordinator the dense
//!   path replaced, so a changed digest means a changed schedule.
//! - `enforcement_drives_only_dense_entry_points` wraps the coordinator in
//!   a policy whose map entry points panic: the queue-enforcement layer
//!   must reach it through the dense ones only.

use echelonflow::agent::agent::EchelonAgent;
use echelonflow::agent::coordinator::{CoordinatedPolicy, Coordinator, CoordinatorConfig, Trigger};
use echelonflow::agent::enforce::{QueueConfig, QueueEnforcedPolicy};
use echelonflow::cluster::placement::PlacementPolicy;
use echelonflow::cluster::workload::{generate_workload_on, GeneratedJob, WorkloadConfig};
use echelonflow::paradigms::dag::JobDag;
use echelonflow::paradigms::ids::IdAlloc;
use echelonflow::paradigms::runtime::{run_jobs_faulted, RunResult};
use echelonflow::simnet::alloc::{AllocScratch, RateAlloc};
use echelonflow::simnet::fattree::FatTree;
use echelonflow::simnet::fault::{FaultKind, FaultPlan};
use echelonflow::simnet::flow::ActiveFlowView;
use echelonflow::simnet::fluid::FlowDelta;
use echelonflow::simnet::runner::{RatePolicy, RecomputeMode};
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;
use echelonflow::simnet::trace::TraceEventKind;

/// An oversubscribed k = 8 fat-tree carrying a scattered default-mix
/// workload, so jobs contend on the core.
fn setup() -> (Topology, Vec<GeneratedJob>) {
    let tree = FatTree::new(8).with_oversubscription(4.0);
    let topo = tree.build_fabric();
    let mut cfg = WorkloadConfig::default_mix(11, 8, tree.hosts());
    cfg.mean_interarrival = 0.5;
    cfg.placement = PlacementPolicy::Scattered { seed: 3 };
    let jobs = generate_workload_on(&cfg, &topo, &mut IdAlloc::new());
    (topo, jobs)
}

fn coordinated(cfg: CoordinatorConfig, jobs: &[GeneratedJob]) -> CoordinatedPolicy {
    let mut coordinator = Coordinator::new(cfg);
    for job in jobs {
        EchelonAgent::from_dag(&job.dag).report_to(&mut coordinator);
    }
    coordinator.into_policy()
}

/// FNV-1a over every trace event (time, flow, kind, rate bits) and the
/// number of decisions the coordinator computed.
fn digest(result: &RunResult, decisions: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        h ^= word;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for e in result.trace.events() {
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
    eat(decisions as u64);
    h
}

fn configs() -> [(&'static str, CoordinatorConfig); 6] {
    let cfg = |trigger, control_latency| CoordinatorConfig {
        trigger,
        control_latency,
        ..CoordinatorConfig::default()
    };
    [
        ("per-event", cfg(Trigger::PerEvent, 0.0)),
        ("per-group", cfg(Trigger::PerGroupChange, 0.0)),
        ("interval", cfg(Trigger::Interval(1.0), 0.0)),
        ("per-event+lat", cfg(Trigger::PerEvent, 0.3)),
        ("per-group+lat", cfg(Trigger::PerGroupChange, 0.3)),
        ("interval+lat", cfg(Trigger::Interval(1.0), 0.3)),
    ]
}

fn mode_name(mode: RecomputeMode) -> &'static str {
    match mode {
        RecomputeMode::Full => "full",
        RecomputeMode::Incremental => "inc",
    }
}

/// Recorded from the map-based coordinator that the dense path replaced,
/// with exactly this workload and these runs. Full and incremental runs
/// of one configuration must agree; every configuration differs.
const PINNED: [(&str, u64); 28] = [
    ("per-event/plain/full", 0x07d8c6eaa1e53cbe),
    ("per-event/plain/inc", 0x07d8c6eaa1e53cbe),
    ("per-event/outage/full", 0x57f3a250b1099cfb),
    ("per-event/outage/inc", 0x57f3a250b1099cfb),
    ("per-group/plain/full", 0x0a50d1a9f3eba307),
    ("per-group/plain/inc", 0x0a50d1a9f3eba307),
    ("per-group/outage/full", 0xd8d0b813ba46e19f),
    ("per-group/outage/inc", 0xd8d0b813ba46e19f),
    ("interval/plain/full", 0xe8e7a93e9d5f4126),
    ("interval/plain/inc", 0xe8e7a93e9d5f4126),
    ("interval/outage/full", 0xa3ad8a88201d9c7e),
    ("interval/outage/inc", 0xa3ad8a88201d9c7e),
    ("per-event+lat/plain/full", 0x3dce57909ea5d8ea),
    ("per-event+lat/plain/inc", 0x3dce57909ea5d8ea),
    ("per-event+lat/outage/full", 0x38b1ad490472e6f4),
    ("per-event+lat/outage/inc", 0x38b1ad490472e6f4),
    ("per-group+lat/plain/full", 0x0567368c8c9cb80e),
    ("per-group+lat/plain/inc", 0x0567368c8c9cb80e),
    ("per-group+lat/outage/full", 0x15b237556a1ba55f),
    ("per-group+lat/outage/inc", 0x15b237556a1ba55f),
    ("interval+lat/plain/full", 0xc379ecad911806df),
    ("interval+lat/plain/inc", 0xc379ecad911806df),
    ("interval+lat/outage/full", 0xa595ffe6d0dcbe15),
    ("interval+lat/outage/inc", 0xa595ffe6d0dcbe15),
    ("enforced-per-event/full", 0x3b79bbabb68b9de4),
    ("enforced-per-event/inc", 0x3b79bbabb68b9de4),
    ("enforced-interval/full", 0x8154f7c244854d08),
    ("enforced-interval/inc", 0x8154f7c244854d08),
];

#[test]
fn coordinator_runs_match_pinned_digests() {
    let (topo, jobs) = setup();
    let dags: Vec<&JobDag> = jobs.iter().map(|j| &j.dag).collect();
    let outage = FaultPlan::empty()
        .with(SimTime::new(2.0), FaultKind::CoordinatorDown)
        .with(SimTime::new(4.0), FaultKind::CoordinatorUp);
    let modes = [RecomputeMode::Full, RecomputeMode::Incremental];
    let mut got: Vec<(String, u64)> = Vec::new();
    for (name, cfg) in configs() {
        for (plan_name, plan) in [("plain", FaultPlan::empty()), ("outage", outage.clone())] {
            for mode in modes {
                let mut policy = coordinated(cfg, &jobs);
                let result = run_jobs_faulted(&topo, &dags, &mut policy, mode, &plan);
                assert!(policy.decisions_computed() > 0);
                let label = format!("{name}/{plan_name}/{}", mode_name(mode));
                got.push((label, digest(&result, policy.decisions_computed())));
            }
        }
    }
    for (name, trigger) in [
        ("enforced-per-event", Trigger::PerEvent),
        ("enforced-interval", Trigger::Interval(1.0)),
    ] {
        for mode in modes {
            let cfg = CoordinatorConfig {
                trigger,
                ..CoordinatorConfig::default()
            };
            let queues = QueueConfig {
                queues: 4,
                ratio: 2.0,
            };
            let mut policy = QueueEnforcedPolicy::new(coordinated(cfg, &jobs), queues);
            let result = run_jobs_faulted(&topo, &dags, &mut policy, mode, &FaultPlan::empty());
            let decisions = policy.inner().decisions_computed();
            got.push((
                format!("{name}/{}", mode_name(mode)),
                digest(&result, decisions),
            ));
        }
    }
    let want: Vec<(String, u64)> = PINNED.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    let table: String = got
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(got, want, "coordinator digests moved; now:\n{table}");
}

/// Forwards the dense entry points and the hooks to the wrapped policy;
/// the map entry points panic. A run through it completes only if every
/// layer above it stays in the dense currency.
struct DenseOnly<P>(P);

impl<P: RatePolicy> RatePolicy for DenseOnly<P> {
    fn allocate(&mut self, _: SimTime, _: &[ActiveFlowView], _: &Topology) -> RateAlloc {
        panic!("map entry point `allocate` reached");
    }

    fn allocate_incremental(
        &mut self,
        _: SimTime,
        _: &[ActiveFlowView],
        _: &FlowDelta,
        _: &Topology,
    ) -> RateAlloc {
        panic!("map entry point `allocate_incremental` reached");
    }

    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.0.allocate_dense(now, flows, topo, ws, out)
    }

    fn allocate_dense_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.0
            .allocate_dense_incremental(now, flows, delta, topo, ws, out)
    }

    fn on_fault(&mut self, now: SimTime, fault: &FaultKind) {
        self.0.on_fault(now, fault)
    }

    fn release_held(&mut self) {
        self.0.release_held()
    }
}

#[test]
fn enforcement_drives_only_dense_entry_points() {
    let (topo, jobs) = setup();
    let dags: Vec<&JobDag> = jobs.iter().map(|j| &j.dag).collect();
    let outage = FaultPlan::empty()
        .with(SimTime::new(2.0), FaultKind::CoordinatorDown)
        .with(SimTime::new(4.0), FaultKind::CoordinatorUp);
    let cfg = CoordinatorConfig {
        trigger: Trigger::Interval(1.0),
        control_latency: 0.3,
        ..CoordinatorConfig::default()
    };
    for mode in [RecomputeMode::Full, RecomputeMode::Incremental] {
        let mut reference =
            QueueEnforcedPolicy::new(coordinated(cfg, &jobs), QueueConfig::default());
        let want = run_jobs_faulted(&topo, &dags, &mut reference, mode, &outage);
        let mut policy =
            QueueEnforcedPolicy::new(DenseOnly(coordinated(cfg, &jobs)), QueueConfig::default());
        let got = run_jobs_faulted(&topo, &dags, &mut policy, mode, &outage);
        assert_eq!(got.trace.events(), want.trace.events(), "{mode:?}");
        assert_eq!(got.job_makespans.len(), jobs.len(), "{mode:?}");
        assert!(policy.inner().0.decisions_computed() > 0);
    }
}
