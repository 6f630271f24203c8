//! Differential suite for fault injection and capacity churn.
//!
//! The tentpole guarantee of the fault subsystem: injecting a
//! [`FaultPlan`] (link down/restore, fractional degradation, coordinator
//! outage, worker slowdown) into a run must leave the plain run (the
//! driver's delta path) and the run through `FullRecompute`
//! **bit-identical** — every capacity change must invalidate or repair
//! every incremental structure exactly as a from-scratch recompute would. Every scheduler family is driven
//! through seeded random churn, from flat demand sets through the DAG
//! runtime to the coordinator and the cluster layer.
//!
//! Fault plans come from `cluster::churn::random_fault_plan`, which
//! guarantees every down has a later restore (a permanently-downed link
//! on the only route is a *designed* deadlock panic, not a hang).

use echelon_detrand::DetRng;
use echelonflow::agent::coordinator::{Coordinator, CoordinatorConfig, Trigger};
use echelonflow::agent::enforce::{QueueConfig, QueueEnforcedPolicy};
use echelonflow::cluster::churn::{random_fault_plan, ChurnConfig};
use echelonflow::cluster::scenario::{Scenario, SchedulerKind};
use echelonflow::cluster::workload::WorkloadConfig;
use echelonflow::core::arrangement::ArrangementFn;
use echelonflow::core::coflow::Coflow;
use echelonflow::core::echelon::{EchelonFlow, FlowRef};
use echelonflow::core::{EchelonId, JobId};
use echelonflow::paradigms::config::{DpConfig, FsdpConfig, PpConfig};
use echelonflow::paradigms::dag::JobDag;
use echelonflow::paradigms::dp::build_dp_allreduce;
use echelonflow::paradigms::fsdp::build_fsdp;
use echelonflow::paradigms::ids::IdAlloc;
use echelonflow::paradigms::pp::build_pp_gpipe;
use echelonflow::paradigms::runtime::run_jobs;
use echelonflow::sched::baselines::{FifoPolicy, SrptPolicy};
use echelonflow::sched::echelon::{EchelonMadd, InterOrder};
use echelonflow::simnet::fattree::FatTree;
use echelonflow::simnet::fault::{FaultKind, FaultPlan};
use echelonflow::simnet::flow::FlowDemand;
use echelonflow::simnet::fluid::NextCompletionMode;
use echelonflow::simnet::ids::{FlowId, NodeId, ResourceId};
use echelonflow::simnet::runner::{
    run_flows, FlowOutcomes, FullRecompute, MaxMinPolicy, PodMaxMinPolicy, RatePolicy, RunConfig,
};
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;

// `QueueFeed` serves the differential suite only.
#[allow(dead_code)]
mod support;
use support::{plain_or_full, PodReference};

const HOSTS: usize = 6;

/// Same shape as the plain differential suite's workload: seeded flows on
/// a big switch, a prefix grouped into EchelonFlows/Coflows, staggered
/// releases.
struct Workload {
    demands: Vec<FlowDemand>,
    echelons: Vec<EchelonFlow>,
    coflows: Vec<Coflow>,
}

fn workload(seed: u64) -> Workload {
    let mut rng = DetRng::seed_from_u64(seed);
    let n = rng.usize_range_inclusive(8, 16);
    let mut demands = Vec::new();
    for i in 0..n {
        let src = rng.usize_range_inclusive(0, HOSTS - 1);
        let mut dst = rng.usize_range_inclusive(0, HOSTS - 2);
        if dst >= src {
            dst += 1;
        }
        demands.push(FlowDemand {
            id: FlowId(i as u64),
            src: NodeId(src as u32),
            dst: NodeId(dst as u32),
            size: rng.f64_range(0.5, 4.0),
            release: SimTime::new(rng.f64_range(0.0, 3.0)),
        });
    }
    let mut echelons = Vec::new();
    let mut coflows = Vec::new();
    let mut i = 0;
    let mut gid: u64 = 0;
    while i + 2 <= demands.len().saturating_sub(2) {
        let len = rng.usize_range_inclusive(2, 4).min(demands.len() - 2 - i);
        if len < 2 {
            break;
        }
        let refs: Vec<FlowRef> = demands[i..i + len]
            .iter()
            .map(|d| FlowRef::new(d.id, d.src, d.dst, d.size))
            .collect();
        let arrangement = if rng.next_f64() < 0.5 {
            ArrangementFn::Coflow
        } else {
            ArrangementFn::Staggered {
                gap: rng.f64_range(0.2, 1.0),
            }
        };
        echelons.push(EchelonFlow::from_flows(
            EchelonId(gid),
            JobId(gid as u32),
            refs.clone(),
            arrangement,
        ));
        coflows.push(Coflow::new(EchelonId(gid), JobId(gid as u32), refs));
        gid += 1;
        i += len;
    }
    Workload {
        demands,
        echelons,
        coflows,
    }
}

/// A churn plan over the flow-level fabric: random (restore-guaranteed)
/// link events plus one guaranteed incident on host 0's egress so every
/// seed exercises a genuinely busy resource.
fn flow_level_plan(seed: u64, topo: &Topology) -> FaultPlan {
    random_fault_plan(seed ^ 0x5EED, topo, &ChurnConfig::default())
        .with(
            SimTime::new(1.0),
            FaultKind::LinkDegrade(ResourceId(0), 0.5),
        )
        .with(SimTime::new(2.5), FaultKind::LinkRestore(ResourceId(0)))
}

/// Runs one policy-constructor under churn plain and through
/// `FullRecompute` and asserts identical traces and completions.
fn assert_faulted_flow_level_identical<F>(seed: u64, label: &str, mut mk: F)
where
    F: FnMut(&Workload) -> Box<dyn RatePolicy>,
{
    let w = workload(seed);
    let topo = Topology::big_switch_uniform(HOSTS, 1.5);
    let config = RunConfig::from(flow_level_plan(seed, &topo));

    let full = run_flows(
        &topo,
        w.demands.clone(),
        &mut FullRecompute(mk(&w)),
        &config,
    );
    let inc = run_flows(&topo, w.demands.clone(), mk(&w).as_mut(), &config);

    assert_eq!(
        full.trace().events(),
        inc.trace().events(),
        "faulted trace diverged for {label}, seed {seed}"
    );
    assert_eq!(
        full.completions(),
        inc.completions(),
        "faulted completions diverged for {label}, seed {seed}"
    );
    assert_eq!(
        full.drive_stats().fault_events,
        inc.drive_stats().fault_events,
        "fault accounting diverged for {label}, seed {seed}"
    );
    assert!(
        full.drive_stats().fault_events > 0,
        "no fault fired for {label}, seed {seed} — the test is vacuous"
    );
}

#[test]
fn baselines_survive_churn_bit_identically() {
    for seed in 0..4u64 {
        assert_faulted_flow_level_identical(seed, "MaxMinPolicy", |_| Box::new(MaxMinPolicy));
        assert_faulted_flow_level_identical(seed, "FifoPolicy", |_| Box::new(FifoPolicy));
        assert_faulted_flow_level_identical(seed, "SrptPolicy", |_| Box::new(SrptPolicy));
    }
}

/// Digests of every `support::Madd::all` configuration under churn on seeds
/// 0..4, in that order, recorded from the separate echelon and Varys
/// engines before they merged into one.
const FAULTED_MADD_PINS: [u64; 13] = [
    0x75b5_ad69_0a62_548f,
    0x6e53_a4b5_8548_afb1,
    0x6480_c700_3244_128c,
    0xe571_762f_a6d2_2088,
    0xe139_a432_cc42_bd98,
    0x26cc_37c6_2dcb_4566,
    0x7b42_a152_5c2f_2d38,
    0xa0e9_9866_4a47_5e69,
    0xbe79_7790_833b_3d5f,
    0x21cf_77a2_04c0_cb00,
    0xa527_6207_5e42_cbd1,
    0x470a_47a0_e6b6_081b,
    0xccd8_b0ed_40bd_c413,
];

/// The plain suite's three-way MADD check under each seed's churn plan,
/// on seeds 0..4.
fn assert_faulted_madd_three_way(coflow: bool) {
    let topo = Topology::big_switch_uniform(HOSTS, 1.5);
    support::assert_madd_three_way(
        coflow,
        &FAULTED_MADD_PINS,
        0..4,
        |seed| {
            let w = workload(seed);
            (w.echelons, w.coflows)
        },
        |seed, policy| {
            let config = RunConfig::from(flow_level_plan(seed, &topo));
            let out = run_flows(&topo, workload(seed).demands, policy, &config);
            assert!(
                out.drive_stats().fault_events > 0,
                "no fault fired on seed {seed}: the test is vacuous"
            );
            out
        },
    );
}

#[test]
fn echelon_madd_survives_churn_bit_identically() {
    assert_faulted_madd_three_way(false);
}

#[test]
fn varys_madd_survives_churn_bit_identically() {
    assert_faulted_madd_three_way(true);
}

/// Queue enforcement wraps an inner policy; its `on_fault` forwarding
/// must keep the wrapped coordinator's caches coherent through churn.
#[test]
fn queue_enforced_coordinator_survives_churn() {
    for seed in 0..3u64 {
        assert_faulted_flow_level_identical(seed, "QueueEnforced<EchelonMadd>", |w| {
            Box::new(QueueEnforcedPolicy::new(
                EchelonMadd::new(w.echelons.clone()),
                QueueConfig::default(),
            ))
        });
    }
}

/// `per_pod` pod-local demands in each pod of a k=4 fat tree, released
/// over `[0, window)` and long enough to straddle the fault instants of
/// the pod churn tests below.
fn pod_demands(seed: u64, per_pod: usize, window: f64) -> Vec<FlowDemand> {
    let (pods, hosts_per_pod) = (4, 4);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut demands = Vec::new();
    for p in 0..pods {
        let base = p * hosts_per_pod;
        for f in 0..per_pod {
            let src = base + rng.usize_range_inclusive(0, hosts_per_pod - 1);
            let mut dst = base + rng.usize_range_inclusive(0, hosts_per_pod - 2);
            if dst >= src {
                dst += 1;
            }
            demands.push(FlowDemand {
                id: FlowId((p * per_pod + f) as u64),
                src: NodeId(src as u32),
                dst: NodeId(dst as u32),
                size: rng.f64_range(2.0, 6.0),
                release: SimTime::new(rng.f64_range(0.0, window)),
            });
        }
    }
    demands
}

/// Two degrade/restore pairs at the given instants; each fault dirties
/// every pod, and every degrade is restored so no route is left starved.
fn pod_churn_plan(at: [f64; 4]) -> FaultPlan {
    FaultPlan::empty()
        .with(
            SimTime::new(at[0]),
            FaultKind::LinkDegrade(ResourceId(0), 0.5),
        )
        .with(SimTime::new(at[1]), FaultKind::LinkRestore(ResourceId(0)))
        .with(
            SimTime::new(at[2]),
            FaultKind::LinkDegrade(ResourceId(1), 0.25),
        )
        .with(SimTime::new(at[3]), FaultKind::LinkRestore(ResourceId(1)))
}

/// Runs the pod policy plain and through `FullRecompute` on `fabric`
/// under `plan` and asserts each bitwise equal to the stateless
/// pod-sequential reference, traces and completions. Returns the plain
/// run for non-vacuity checks.
fn assert_pod_policy_matches_reference(
    fabric: &Topology,
    demands: &[FlowDemand],
    plan: &FaultPlan,
    label: &str,
) -> FlowOutcomes {
    let config = RunConfig::from(plan.clone());
    let run = |policy: &mut dyn RatePolicy| run_flows(fabric, demands.to_vec(), policy, &config);
    let reference = run(&mut PodReference);
    let full = run(&mut FullRecompute(&mut PodMaxMinPolicy::new()));
    let plain = run(&mut PodMaxMinPolicy::new());
    for (path, out) in [("full", &full), ("plain", &plain)] {
        assert_eq!(
            reference.trace().events(),
            out.trace().events(),
            "trace diverged from the reference, {label}, {path}"
        );
        assert_eq!(
            reference.completions(),
            out.completions(),
            "completions diverged from the reference, {label}, {path}"
        );
        assert!(
            out.drive_stats().fault_events > 0,
            "no fault fired, {label}"
        );
    }
    plain
}

/// The pod-decomposed allocator under churn (per-pod rate store, sparse
/// write-back, the bucket-queue pod engine) against the reference.
#[test]
fn pod_policy_survives_churn_bit_identically() {
    let fabric = FatTree::new(4).build_fabric();
    let plan = pod_churn_plan([1.0, 2.5, 3.5, 4.5]);
    for seed in 0..5u64 {
        let demands = pod_demands(seed, 20, 2.0);
        let label = format!("seed {seed}");
        let out = assert_pod_policy_matches_reference(&fabric, &demands, &plan, &label);
        // Non-vacuity: the incremental run skipped clean pods.
        let stats = out.drive_stats();
        assert!(stats.pods_total > 0, "seed {seed}: no pod work reported");
        assert!(
            stats.pods_recomputed < stats.pods_total,
            "seed {seed}: caching never skipped a pod ({}/{})",
            stats.pods_recomputed,
            stats.pods_total
        );
    }
}

/// Wide pods under churn: 4 pods × 48 members, all live across the fault
/// instants, so every fault refills every pod at once — the widest
/// refill the policy performs.
#[test]
fn wide_pod_churn_matches_reference() {
    let fabric = FatTree::new(4).build_fabric();
    let plan = pod_churn_plan([1.0, 2.0, 3.0, 4.0]);
    for seed in 0..3u64 {
        let demands = pod_demands(seed, 48, 0.5);
        let label = format!("wide, seed {seed}");
        let out = assert_pod_policy_matches_reference(&fabric, &demands, &plan, &label);
        let first_finish = out
            .completions()
            .values()
            .map(|c| c.finish.secs())
            .fold(f64::INFINITY, f64::min);
        assert!(
            first_finish > 4.0,
            "seed {seed}: a flow finished at {first_finish}, before the last fault"
        );
    }
}

/// Route hops a fault-forced fabric fill must exceed: the check below
/// proves that each degrade lands on a many-flow fabric fill, not on a
/// trickle.
const WIDE_FILL_HOPS: usize = 64;

/// `n` flows on a k=8 fat tree (8 pods × 16 hosts), released as a
/// Poisson stream with mean gap 0.1 s; each crosses the core with
/// probability `cross`, the rest stay inside their pod.
fn crosspod_demands(seed: u64, n: usize, cross: f64) -> Vec<FlowDemand> {
    let (pods, hosts_per_pod) = (8, 16);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut release = 0.0;
    (0..n)
        .map(|i| {
            release -= 0.1 * (1.0 - rng.next_f64()).ln();
            let src_pod = rng.usize_range_inclusive(0, pods - 1);
            let dst_pod = if rng.next_f64() < cross {
                (src_pod + rng.usize_range_inclusive(1, pods - 1)) % pods
            } else {
                src_pod
            };
            let src = rng.usize_range_inclusive(0, hosts_per_pod - 1);
            let mut dst = rng.usize_range_inclusive(0, hosts_per_pod - 2);
            if dst >= src {
                dst += 1;
            }
            FlowDemand {
                id: FlowId(i as u64),
                src: NodeId((src_pod * hosts_per_pod + src) as u32),
                dst: NodeId((dst_pod * hosts_per_pod + dst) as u32),
                size: rng.f64_range(2.0, 6.0),
                release: SimTime::new(release),
            }
        })
        .collect()
}

/// Degrade/restore pairs that each strike a live core crosser: half a
/// second after a crosser's release, its core→agg hop drops to a quarter
/// of its capacity for one second. Links carry at most 1.0 and every
/// flow is at least 2.0 long, so the crosser is live across both
/// instants. Crossers are picked from t = 3 s on, once the stream has
/// built up, and at least two seconds apart, so no two pairs overlap.
/// Returns the plan and its degrade instants.
fn crosser_churn_plan(fabric: &Topology, demands: &[FlowDemand]) -> (FaultPlan, Vec<f64>) {
    let mut plan = FaultPlan::empty();
    let mut degrades: Vec<f64> = Vec::new();
    for d in demands {
        let crosses = fabric.host_pod(d.src) != fabric.host_pod(d.dst);
        let start = d.release.secs();
        let after = degrades.last().map_or(3.0, |&t| t + 2.0);
        if !crosses || start < after {
            continue;
        }
        let link = fabric.route(d.src, d.dst)[3];
        plan = plan
            .with(
                SimTime::new(start + 0.5),
                FaultKind::LinkDegrade(link, 0.25),
            )
            .with(SimTime::new(start + 1.5), FaultKind::LinkRestore(link));
        degrades.push(start + 0.5);
    }
    (plan, degrades)
}

/// The whole-fabric fallback under churn: ~200 Poisson flows on a k=8
/// fat tree, ~10 % of them core-crossing, with degrade/restore pairs
/// that land while crossers are live. Each fault forces a fabric fill
/// over a stale-free capacity snapshot, many flows wide, plain and
/// through `FullRecompute`.
#[test]
fn crosspod_churn_matches_reference() {
    let fabric = FatTree::new(8).build_fabric();
    for seed in 0..3u64 {
        let demands = crosspod_demands(0xC805 + seed, 200, 0.1);
        let (plan, degrades) = crosser_churn_plan(&fabric, &demands);
        assert!(degrades.len() >= 3, "seed {seed}: only {degrades:?}");
        let label = format!("crosspod, seed {seed}");
        let out = assert_pod_policy_matches_reference(&fabric, &demands, &plan, &label);
        // Non-vacuity: at every degrade a crosser is live, so the
        // fault-forced allocation is a fabric fill; it must be a
        // many-flow one, carrying more than `WIDE_FILL_HOPS` route hops.
        for &t in &degrades {
            let hops: usize = demands
                .iter()
                .filter(|d| d.release.secs() <= t && out.finish(d.id).unwrap().secs() > t)
                .map(|d| fabric.route(d.src, d.dst).len())
                .sum();
            assert!(
                hops > WIDE_FILL_HOPS,
                "seed {seed}: only {hops} route hops live at the degrade at t={t}"
            );
        }
    }
}

/// Multi-paradigm jobs on disjoint workers sharing one switch (the same
/// mix as the plain differential suite).
fn paradigm_mix(alloc: &mut IdAlloc) -> Vec<JobDag> {
    let pp = build_pp_gpipe(
        JobId(0),
        &PpConfig {
            placement: vec![NodeId(0), NodeId(1)],
            micro_batches: 3,
            fwd_time: 0.5,
            bwd_time: 0.5,
            activation_bytes: 1.5,
            iterations: 1,
        },
        alloc,
    );
    let dp = build_dp_allreduce(
        JobId(1),
        &DpConfig {
            placement: vec![NodeId(2), NodeId(3)],
            ps: None,
            bucket_bytes: vec![1.0, 2.0],
            fwd_time: 0.5,
            bwd_time_per_bucket: 0.25,
            iterations: 1,
        },
        alloc,
    );
    let fsdp = build_fsdp(
        JobId(2),
        &FsdpConfig {
            placement: vec![NodeId(4), NodeId(5)],
            layers: 2,
            shard_bytes: 1.0,
            layer_shard_bytes: None,
            fwd_time_per_layer: 0.3,
            bwd_time_per_layer: 0.3,
            iterations: 1,
        },
        alloc,
    );
    vec![pp, dp, fsdp]
}

/// A DAG-runtime churn plan: link churn plus a coordinator outage window
/// and a straggler, all mid-run.
fn dag_level_plan() -> FaultPlan {
    FaultPlan::empty()
        .with(
            SimTime::new(0.6),
            FaultKind::LinkDegrade(ResourceId(0), 0.5),
        )
        .with(
            SimTime::new(0.8),
            FaultKind::WorkerSlowdown {
                worker: NodeId(1),
                factor: 2.0,
            },
        )
        .with(SimTime::new(1.0), FaultKind::CoordinatorDown)
        .with(SimTime::new(1.4), FaultKind::LinkDown(ResourceId(3)))
        .with(SimTime::new(2.0), FaultKind::LinkRestore(ResourceId(3)))
        .with(SimTime::new(2.2), FaultKind::CoordinatorUp)
        .with(SimTime::new(2.4), FaultKind::LinkRestore(ResourceId(0)))
        .with(
            SimTime::new(2.6),
            FaultKind::WorkerSlowdown {
                worker: NodeId(1),
                factor: 1.0,
            },
        )
}

/// The DAG runtime under churn: Full ≡ Incremental for both groupings,
/// with faults actually applied and forcing recomputes.
#[test]
fn paradigm_runtime_churn_matches_across_modes() {
    let topo = Topology::big_switch_uniform(HOSTS, 1.0);
    let config = RunConfig::from(dag_level_plan());
    for coflow in [false, true] {
        let run = |full: bool| {
            let mut alloc = IdAlloc::new();
            let dags = paradigm_mix(&mut alloc);
            let dag_refs: Vec<&JobDag> = dags.iter().collect();
            let mut policy = if coflow {
                let coflows = dags.iter().flat_map(|d| d.coflows.iter().cloned());
                EchelonMadd::new(coflows.map(Coflow::into_echelon).collect())
                    .with_inter(InterOrder::LeastWork)
            } else {
                EchelonMadd::new(dags.iter().flat_map(|d| d.echelons.clone()).collect())
            };
            plain_or_full(full, &mut policy, |p| {
                run_jobs(&topo, &dag_refs, p, &config)
            })
        };
        let full = run(true);
        let inc = run(false);
        assert_eq!(
            full.trace.events(),
            inc.trace.events(),
            "faulted trace diverged from FullRecompute (coflow {coflow})"
        );
        assert_eq!(full.flow_finishes, inc.flow_finishes);
        assert_eq!(full.job_makespans, inc.job_makespans);
        assert!(full.stats.fault_events > 0);
        assert!(full.stats.fault_recomputes > 0);
    }
}

/// The coordinator path under churn — every trigger, with and without
/// control latency. This suite caught a capacity-staleness defect in a
/// since-deleted between-decisions cache of the incremental path: without
/// `on_fault` invalidation the incremental run kept serving pre-fault
/// rates between decisions while the naive run recomputed against
/// post-fault capacities.
#[test]
fn coordinator_churn_matches_across_modes_for_all_triggers() {
    let topo = Topology::big_switch_uniform(HOSTS, 1.0);
    let config = RunConfig::from(dag_level_plan());
    let configs = [
        CoordinatorConfig::default(), // PerEvent
        CoordinatorConfig {
            trigger: Trigger::PerGroupChange,
            ..CoordinatorConfig::default()
        },
        CoordinatorConfig {
            trigger: Trigger::Interval(2.0),
            ..CoordinatorConfig::default()
        },
        CoordinatorConfig {
            trigger: Trigger::PerGroupChange,
            control_latency: 0.4,
            ..CoordinatorConfig::default()
        },
        CoordinatorConfig {
            trigger: Trigger::Interval(2.0),
            control_latency: 0.4,
            ..CoordinatorConfig::default()
        },
    ];
    for cfg in configs {
        let run = |full: bool| {
            let mut alloc = IdAlloc::new();
            let dags = paradigm_mix(&mut alloc);
            let dag_refs: Vec<&JobDag> = dags.iter().collect();
            let mut coordinator = Coordinator::new(cfg);
            for dag in &dags {
                coordinator.submit_all(dag.echelons.iter().cloned());
            }
            let mut policy = coordinator.into_policy();
            let out = plain_or_full(full, &mut policy, |p| {
                run_jobs(&topo, &dag_refs, p, &config)
            });
            (out, policy.decisions_computed())
        };
        let (full, d_full) = run(true);
        let (inc, d_inc) = run(false);
        assert_eq!(
            full.trace.events(),
            inc.trace.events(),
            "faulted trace diverged for {cfg:?}"
        );
        assert_eq!(d_full, d_inc, "decision count diverged for {cfg:?}");
        assert_eq!(full.flow_finishes, inc.flow_finishes);
        assert!(full.stats.fault_events > 0);
    }
}

/// The full cluster layer under seeded random churn: every scheduler,
/// plain and through `FullRecompute`, bit-identical. (The seeds also vary the workload, so each
/// seed is a different contention pattern under a different fault plan.)
#[test]
fn cluster_scenarios_survive_random_churn() {
    for seed in [3u64, 19] {
        let cfg = WorkloadConfig::default_mix(seed, 3, 16);
        let scenario = Scenario::generate(&cfg);
        let plan = random_fault_plan(seed, &scenario.topology, &ChurnConfig::default());
        let churned = RunConfig::from(plan.clone());
        let dags: Vec<&JobDag> = scenario.jobs.iter().map(|j| &j.dag).collect();
        for kind in SchedulerKind::ALL {
            let mut policy = FullRecompute(kind.policy(&dags));
            let full = run_jobs(&scenario.topology, &dags, &mut policy, &churned);
            let (inc, _) = scenario.run(kind, &plan);
            assert_eq!(
                full.trace.events(),
                inc.trace.events(),
                "{} diverged under churn, seed {seed}",
                kind.name()
            );
            assert_eq!(full.flow_finishes, inc.flow_finishes);
            assert_eq!(full.job_makespans, inc.job_makespans);
        }
    }
}

/// The stale-cache sweep: capacity mutations (degrade/down/restore) must
/// never leave the network's predicted-completion state stale, whichever
/// next-completion backend is live. The calendar-backed run and the
/// scan-backed reference are driven through seeded churn plans — the
/// exact sequence where a cached completion time computed against
/// pre-fault rates would, if kept, fire the wrong event or fire it at
/// the wrong time — and must stay bit-identical in traces, completions,
/// and fault accounting.
#[test]
fn next_completion_cache_survives_capacity_churn_bit_identically() {
    type Mk = fn(&Workload) -> Box<dyn RatePolicy>;
    let kinds: [(&str, Mk); 3] = [
        ("MaxMin", |_| Box::new(MaxMinPolicy)),
        ("EchelonMadd", |w| {
            Box::new(EchelonMadd::new(w.echelons.clone()))
        }),
        ("Coflow", |w| {
            let coflows = w.coflows.iter().cloned().map(Coflow::into_echelon);
            Box::new(EchelonMadd::new(coflows.collect()).with_inter(InterOrder::LeastWork))
        }),
    ];
    let topo = Topology::big_switch_uniform(HOSTS, 1.5);
    for seed in 0..4u64 {
        let w = workload(seed);
        let plan = flow_level_plan(seed, &topo);
        for full in [true, false] {
            for (label, mk) in kinds {
                let run = |nc: NextCompletionMode| {
                    let mut config = RunConfig::from(plan.clone());
                    config.drive.next_completion = nc;
                    plain_or_full(full, mk(&w).as_mut(), |p| {
                        run_flows(&topo, w.demands.clone(), p, &config)
                    })
                };
                let scan = run(NextCompletionMode::Scan);
                let calendar = run(NextCompletionMode::Calendar);
                assert_eq!(
                    scan.trace().events(),
                    calendar.trace().events(),
                    "calendar diverged from scan under churn: {label} (full {full}), seed {seed}"
                );
                assert_eq!(scan.completions(), calendar.completions());
                assert_eq!(
                    scan.drive_stats().fault_events,
                    calendar.drive_stats().fault_events
                );
                assert!(
                    scan.drive_stats().fault_events > 0,
                    "no fault fired for {label}, seed {seed} — the test is vacuous"
                );
            }
        }
    }
}

/// A degrade *between* completions is the sharpest stale-cache shape: the
/// flow's due time moves later mid-flight, and a backend that kept the
/// pre-fault prediction would complete it early. Pin the exact finish
/// time under both backends.
#[test]
fn degrade_mid_flight_moves_the_cached_completion() {
    let topo = Topology::big_switch_uniform(2, 1.0);
    let r = ResourceId(0);
    let plan = FaultPlan::empty()
        .with(SimTime::new(1.0), FaultKind::LinkDegrade(r, 0.25))
        .with(SimTime::new(3.0), FaultKind::LinkRestore(r));
    for nc in [NextCompletionMode::Scan, NextCompletionMode::Calendar] {
        let mut config = RunConfig::from(plan.clone());
        config.drive.next_completion = nc;
        let out = run_flows(
            &topo,
            vec![FlowDemand {
                id: FlowId(0),
                src: NodeId(0),
                dst: NodeId(1),
                size: 2.0,
                release: SimTime::ZERO,
            }],
            &mut MaxMinPolicy,
            &config,
        );
        // 1 byte by t=1 (rate 1), 0.5 byte over t=1..3 (rate 0.25), the
        // last 0.5 byte at rate 1: finish at t=3.5 — NOT the t=2 a stale
        // pre-degrade prediction would claim.
        let finish = out.finish(FlowId(0)).unwrap();
        assert!(
            finish.approx_eq(SimTime::new(3.5)),
            "{nc:?}: finish {finish:?}"
        );
    }
}

/// Downing the only route stalls its flows at rate zero (stall time is
/// accounted) and restores resume them — plain and through
/// `FullRecompute`.
#[test]
fn stall_accounting_matches_across_modes() {
    let topo = Topology::chain(2, 1.0);
    let demands = vec![FlowDemand {
        id: FlowId(0),
        src: NodeId(0),
        dst: NodeId(1),
        size: 2.0,
        release: SimTime::ZERO,
    }];
    let plan = FaultPlan::empty()
        .with(SimTime::new(0.5), FaultKind::LinkDown(ResourceId(0)))
        .with(SimTime::new(1.75), FaultKind::LinkRestore(ResourceId(0)));
    let config = RunConfig::from(plan);
    let mut full = FullRecompute(&mut MaxMinPolicy);
    for (path, policy) in [
        ("plain", &mut MaxMinPolicy as &mut dyn RatePolicy),
        ("full", &mut full),
    ] {
        let out = run_flows(&topo, demands.clone(), policy, &config);
        let finish = out.finish(FlowId(0)).unwrap();
        assert!(
            finish.approx_eq(SimTime::new(3.25)),
            "{path}: finish {finish:?}"
        );
        assert!((out.drive_stats().stall_flow_seconds - 1.25).abs() < 1e-9);
        assert_eq!(out.drive_stats().fault_events, 2);
    }
}
