//! The paper's coordinator path (agents → `Coordinator` →
//! `CoordinatedPolicy` → priority-queue enforcement) allocates in the
//! dense rate currency end to end.
//!
//! - `coordinator_runs_match_pinned_digests` pins the rate trace of every
//!   trigger, with and without control latency, through a coordinator
//!   outage, and behind queue enforcement, plain and through
//!   `FullRecompute` (the `inc` and `full` rows). A
//!   changed digest means a changed schedule. The per-event rows without
//!   latency (plain, outage, enforced) were recorded from the map-based
//!   coordinator the dense path replaced. The other rows were recorded
//!   once the coordinator held its group ranking between decisions and
//!   aged groups rather than flows for control latency; of those, only
//!   `per-event+lat/outage` kept its earlier digest.
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
use echelonflow::paradigms::runtime::{run_jobs, RunResult};
use echelonflow::simnet::alloc::{AllocScratch, RateAlloc};
use echelonflow::simnet::fattree::FatTree;
use echelonflow::simnet::fault::{FaultKind, FaultPlan};
use echelonflow::simnet::flow::ActiveFlowView;
use echelonflow::simnet::fluid::FlowDelta;
use echelonflow::simnet::runner::{FullRecompute, RatePolicy, RunConfig};
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

/// Each row's label suffix, and whether its run goes through
/// `FullRecompute`.
const PATHS: [(&str, bool); 2] = [("full", true), ("inc", false)];

/// Runs `dags` under `policy` and `plan`, through `FullRecompute` when
/// `full`.
fn run(
    topo: &Topology,
    dags: &[&JobDag],
    policy: &mut dyn RatePolicy,
    full: bool,
    plan: &FaultPlan,
) -> RunResult {
    let config = RunConfig::from(plan.clone());
    if full {
        run_jobs(topo, dags, &mut FullRecompute(policy), &config)
    } else {
        run_jobs(topo, dags, policy, &config)
    }
}

/// Recorded with exactly this workload and these runs (see the module
/// doc for which coordinator recorded which row). Full and incremental
/// runs of one configuration must agree; every configuration differs.
const PINNED: [(&str, u64); 28] = [
    ("per-event/plain/full", 0x07d8c6eaa1e53cbe),
    ("per-event/plain/inc", 0x07d8c6eaa1e53cbe),
    ("per-event/outage/full", 0x57f3a250b1099cfb),
    ("per-event/outage/inc", 0x57f3a250b1099cfb),
    ("per-group/plain/full", 0x07d87deaa1e4c0b3),
    ("per-group/plain/inc", 0x07d87deaa1e4c0b3),
    ("per-group/outage/full", 0x57f3de50b10a02ef),
    ("per-group/outage/inc", 0x57f3de50b10a02ef),
    ("interval/plain/full", 0x07d897eaa1e4ece1),
    ("interval/plain/inc", 0x07d897eaa1e4ece1),
    ("interval/outage/full", 0x57f3cb50b109e2a6),
    ("interval/outage/inc", 0x57f3cb50b109e2a6),
    ("per-event+lat/plain/full", 0x20291ecaddfa019f),
    ("per-event+lat/plain/inc", 0x20291ecaddfa019f),
    ("per-event+lat/outage/full", 0x38b1ad490472e6f4),
    ("per-event+lat/outage/inc", 0x38b1ad490472e6f4),
    ("per-group+lat/plain/full", 0x2028eccaddf9aca9),
    ("per-group+lat/plain/inc", 0x2028eccaddf9aca9),
    ("per-group+lat/outage/full", 0x38b1e24904734103),
    ("per-group+lat/outage/inc", 0x38b1e24904734103),
    ("interval+lat/plain/full", 0x2028edcaddf9ae5c),
    ("interval+lat/plain/inc", 0x2028edcaddf9ae5c),
    ("interval+lat/outage/full", 0x38b1d84904733005),
    ("interval+lat/outage/inc", 0x38b1d84904733005),
    ("enforced-per-event/full", 0x3b79bbabb68b9de4),
    ("enforced-per-event/inc", 0x3b79bbabb68b9de4),
    ("enforced-interval/full", 0x3b796eabb68b1b0d),
    ("enforced-interval/inc", 0x3b796eabb68b1b0d),
];

#[test]
fn coordinator_runs_match_pinned_digests() {
    let (topo, jobs) = setup();
    let dags: Vec<&JobDag> = jobs.iter().map(|j| &j.dag).collect();
    let outage = FaultPlan::empty()
        .with(SimTime::new(2.0), FaultKind::CoordinatorDown)
        .with(SimTime::new(4.0), FaultKind::CoordinatorUp);
    let mut got: Vec<(String, u64)> = Vec::new();
    for (name, cfg) in configs() {
        for (plan_name, plan) in [("plain", FaultPlan::empty()), ("outage", outage.clone())] {
            for (path, full) in PATHS {
                let mut policy = coordinated(cfg, &jobs);
                let result = run(&topo, &dags, &mut policy, full, &plan);
                assert!(policy.decisions_computed() > 0);
                let label = format!("{name}/{plan_name}/{path}");
                got.push((label, digest(&result, policy.decisions_computed())));
            }
        }
    }
    for (name, trigger) in [
        ("enforced-per-event", Trigger::PerEvent),
        ("enforced-interval", Trigger::Interval(1.0)),
    ] {
        for (path, full) in PATHS {
            let cfg = CoordinatorConfig {
                trigger,
                ..CoordinatorConfig::default()
            };
            let queues = QueueConfig {
                queues: 4,
                ratio: 2.0,
            };
            let mut policy = QueueEnforcedPolicy::new(coordinated(cfg, &jobs), queues);
            let result = run(&topo, &dags, &mut policy, full, &FaultPlan::empty());
            let decisions = policy.inner().decisions_computed();
            got.push((format!("{name}/{path}"), digest(&result, decisions)));
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
    for (path, full) in PATHS {
        let mut reference =
            QueueEnforcedPolicy::new(coordinated(cfg, &jobs), QueueConfig::default());
        let want = run(&topo, &dags, &mut reference, full, &outage);
        let mut policy =
            QueueEnforcedPolicy::new(DenseOnly(coordinated(cfg, &jobs)), QueueConfig::default());
        let got = run(&topo, &dags, &mut policy, full, &outage);
        assert_eq!(got.trace.events(), want.trace.events(), "{path}");
        assert_eq!(got.job_makespans.len(), jobs.len(), "{path}");
        assert!(policy.inner().0.decisions_computed() > 0);
    }
}
