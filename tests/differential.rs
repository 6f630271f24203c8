//! Differential property tests for the incremental scheduling path.
//!
//! The tentpole guarantee: for every scheduler, `RecomputeMode::Full`
//! (recompute everything from the active-flow list at each event) and
//! `RecomputeMode::Incremental` (patch cached group state from flow
//! deltas) produce **bit-identical** traces — same events, same times,
//! same floating-point rates. Workloads are generated from seeded
//! `echelon-detrand` streams so any failure reproduces from the printed
//! seed.

use echelon_detrand::DetRng;
use echelonflow::agent::api::requests_from_dag;
use echelonflow::agent::coordinator::{Coordinator, CoordinatorConfig, Trigger};
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
use echelonflow::paradigms::hybrid::{build_hybrid, HybridConfig};
use echelonflow::paradigms::ids::IdAlloc;
use echelonflow::paradigms::pp::build_pp_gpipe;
use echelonflow::paradigms::runtime::{
    make_policy, run_jobs_arriving, run_jobs_with, Grouping, RunResult,
};
use echelonflow::sched::baselines::{FifoPolicy, SrptPolicy};
use echelonflow::sched::echelon::{EchelonMadd, InterOrder, IntraMode};
use echelonflow::sched::varys::{CoflowOrder, VarysMadd};
use echelonflow::simnet::driver::DriveConfig;
use echelonflow::simnet::fattree::FatTree;
use echelonflow::simnet::flow::FlowDemand;
use echelonflow::simnet::fluid::NextCompletionMode;
use echelonflow::simnet::ids::{FlowId, NodeId};
use echelonflow::simnet::quantized::{run_flows_quantized_with, ChunkVisibility};
use echelonflow::simnet::runner::{
    run_flows_configured, run_flows_with, MaxMinPolicy, PodMaxMinPolicy, RatePolicy, RecomputeMode,
};
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;
use echelonflow::simnet::trace::TraceEventKind;

mod support;
use support::PodReference;

const HOSTS: usize = 6;

/// A seeded multi-job workload: flows on a big switch, some grouped into
/// EchelonFlows/Coflows of 2–4 members, some solo, with staggered
/// releases so arrivals and departures interleave.
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

    // Group a prefix of the flows; the tail stays solo.
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

/// Runs one policy-constructor under both modes and asserts identical
/// traces and completions.
fn assert_flow_level_identical<F>(seed: u64, label: &str, mut mk: F)
where
    F: FnMut(&Workload) -> Box<dyn RatePolicy>,
{
    let w = workload(seed);
    let topo = Topology::big_switch_uniform(HOSTS, 1.5);

    let mut full_policy = mk(&w);
    let full = run_flows_with(
        &topo,
        w.demands.clone(),
        full_policy.as_mut(),
        RecomputeMode::Full,
    );
    let mut inc_policy = mk(&w);
    let inc = run_flows_with(
        &topo,
        w.demands.clone(),
        inc_policy.as_mut(),
        RecomputeMode::Incremental,
    );

    assert_eq!(
        full.trace().events(),
        inc.trace().events(),
        "trace diverged for {label}, seed {seed}"
    );
    assert_eq!(
        full.completions(),
        inc.completions(),
        "completions diverged for {label}, seed {seed}"
    );
}

#[test]
fn echelon_madd_incremental_matches_full_on_seeded_workloads() {
    let inters = [
        InterOrder::MostTardy,
        InterOrder::LeastWork,
        InterOrder::StageLeastWork,
        InterOrder::EarliestDeadline,
        InterOrder::Bssi,
    ];
    let intras = [IntraMode::FinishEarly, IntraMode::Equalize];
    for seed in 0..6u64 {
        for inter in inters {
            for intra in intras {
                assert_flow_level_identical(
                    seed,
                    &format!("EchelonMadd {inter:?}/{intra:?}"),
                    |w| {
                        Box::new(
                            EchelonMadd::new(w.echelons.clone())
                                .with_inter(inter)
                                .with_intra(intra),
                        )
                    },
                );
            }
        }
    }
}

#[test]
fn varys_madd_incremental_matches_full_on_seeded_workloads() {
    let orders = [CoflowOrder::Sebf, CoflowOrder::Bssi, CoflowOrder::Arrival];
    for seed in 0..6u64 {
        for order in orders {
            assert_flow_level_identical(seed, &format!("VarysMadd {order:?}"), |w| {
                Box::new(VarysMadd::new(w.coflows.clone()).with_order(order))
            });
        }
    }
}

/// Policies without an incremental override fall back to the naive path;
/// the two modes must still agree exactly.
#[test]
fn default_fallback_policies_agree_across_modes() {
    for seed in 10..14u64 {
        assert_flow_level_identical(seed, "MaxMinPolicy", |_| Box::new(MaxMinPolicy));
        assert_flow_level_identical(seed, "FifoPolicy", |_| Box::new(FifoPolicy));
        assert_flow_level_identical(seed, "SrptPolicy", |_| Box::new(SrptPolicy));
    }
}

/// Multi-paradigm jobs (DP + PP + FSDP) on disjoint workers sharing one
/// switch: the full DAG-driven event loop, both groupings.
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

#[test]
fn paradigm_runtime_incremental_matches_full() {
    let topo = Topology::big_switch_uniform(HOSTS, 1.0);
    for grouping in [Grouping::Echelon, Grouping::Coflow] {
        let mut alloc = IdAlloc::new();
        let dags = paradigm_mix(&mut alloc);
        let dag_refs: Vec<&JobDag> = dags.iter().collect();

        let mut full_policy = make_policy(grouping, &dag_refs);
        let full = run_jobs_with(&topo, &dag_refs, full_policy.as_mut(), RecomputeMode::Full);
        let mut inc_policy = make_policy(grouping, &dag_refs);
        let inc = run_jobs_with(
            &topo,
            &dag_refs,
            inc_policy.as_mut(),
            RecomputeMode::Incremental,
        );

        assert_eq!(
            full.trace.events(),
            inc.trace.events(),
            "trace diverged for {grouping:?}"
        );
        assert_eq!(full.makespan, inc.makespan);
        assert_eq!(full.job_makespans, inc.job_makespans);
    }
}

/// Chunk-quantized transport under both chunk-visibility modes: the
/// incremental path (parent-level deltas with disguised chunk views)
/// must reproduce the Full-mode finish times exactly.
#[test]
fn quantized_incremental_matches_full_on_seeded_workloads() {
    type MkPolicy = fn(&Workload) -> Box<dyn RatePolicy>;
    let kinds: [(&str, MkPolicy); 3] = [
        ("MaxMin", |_| Box::new(MaxMinPolicy)),
        ("EchelonMadd", |w| {
            Box::new(EchelonMadd::new(w.echelons.clone()))
        }),
        ("VarysMadd", |w| Box::new(VarysMadd::new(w.coflows.clone()))),
    ];
    let topo = Topology::big_switch_uniform(HOSTS, 1.5);
    for seed in 0..4u64 {
        let w = workload(seed);
        for visibility in [ChunkVisibility::FlowState, ChunkVisibility::ChunkLocal] {
            for chunk in [0.5, 0.25] {
                for (label, mk) in kinds {
                    let mut full_policy = mk(&w);
                    let full = run_flows_quantized_with(
                        &topo,
                        w.demands.clone(),
                        full_policy.as_mut(),
                        chunk,
                        visibility,
                        RecomputeMode::Full,
                    );
                    let mut inc_policy = mk(&w);
                    let inc = run_flows_quantized_with(
                        &topo,
                        w.demands.clone(),
                        inc_policy.as_mut(),
                        chunk,
                        visibility,
                        RecomputeMode::Incremental,
                    );
                    assert_eq!(
                        full.finishes, inc.finishes,
                        "finishes diverged for {label}, {visibility:?}, \
                         chunk {chunk}, seed {seed}"
                    );
                }
            }
        }
    }
}

/// A hybrid (DP × PP) job over multiple training iterations — the
/// densest DAG shape the builders produce — stays bit-identical across
/// recompute modes under both groupings.
#[test]
fn hybrid_multi_iteration_runtime_matches_across_modes() {
    let topo = Topology::big_switch_uniform(HOSTS, 1.0);
    for grouping in [Grouping::Echelon, Grouping::Coflow] {
        let mut alloc = IdAlloc::new();
        let hybrid = build_hybrid(
            JobId(0),
            &HybridConfig {
                replicas: vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
                micro_batches: 3,
                fwd_time: 0.4,
                bwd_time: 0.4,
                activation_bytes: 1.2,
                stage_grad_bytes: 1.0,
                iterations: 2,
            },
            &mut alloc,
        );
        let fsdp = build_fsdp(
            JobId(1),
            &FsdpConfig {
                placement: vec![NodeId(4), NodeId(5)],
                layers: 2,
                shard_bytes: 1.0,
                layer_shard_bytes: None,
                fwd_time_per_layer: 0.3,
                bwd_time_per_layer: 0.3,
                iterations: 2,
            },
            &mut alloc,
        );
        let dags = [hybrid, fsdp];
        let dag_refs: Vec<&JobDag> = dags.iter().collect();

        let mut full_policy = make_policy(grouping, &dag_refs);
        let full = run_jobs_with(&topo, &dag_refs, full_policy.as_mut(), RecomputeMode::Full);
        let mut inc_policy = make_policy(grouping, &dag_refs);
        let inc = run_jobs_with(
            &topo,
            &dag_refs,
            inc_policy.as_mut(),
            RecomputeMode::Incremental,
        );

        assert_eq!(
            full.trace.events(),
            inc.trace.events(),
            "trace diverged for {grouping:?}"
        );
        assert_eq!(full.flow_finishes, inc.flow_finishes);
        assert_eq!(full.job_makespans, inc.job_makespans);
    }
}

/// The runtime's admission path (jobs entering mid-simulation) stays
/// bit-identical across recompute modes.
#[test]
fn admission_runtime_matches_across_modes() {
    let topo = Topology::big_switch_uniform(HOSTS, 1.0);
    let arrivals = [SimTime::ZERO, SimTime::new(1.25), SimTime::new(2.75)];
    for grouping in [Grouping::Echelon, Grouping::Coflow] {
        let run = |mode: RecomputeMode| {
            let mut alloc = IdAlloc::new();
            let dags = paradigm_mix(&mut alloc);
            let dag_refs: Vec<&JobDag> = dags.iter().collect();
            let mut policy = make_policy(grouping, &dag_refs);
            run_jobs_arriving(&topo, &dag_refs, &arrivals, policy.as_mut(), mode)
        };
        let full = run(RecomputeMode::Full);
        let inc = run(RecomputeMode::Incremental);
        assert_eq!(
            full.trace.events(),
            inc.trace.events(),
            "admission trace diverged for {grouping:?}"
        );
        assert_eq!(full.job_makespans, inc.job_makespans);
    }
}

/// The full cluster layer — seeded multi-tenant workload through the
/// scenario runner — is bit-identical across modes, for both the
/// arrival-gate and runtime-admission representations.
#[test]
fn cluster_scenario_matches_across_modes() {
    let cfg = WorkloadConfig::default_mix(43, 4, 24);
    let gated = Scenario::generate(&cfg);
    let ungated = Scenario::generate_ungated(&cfg);
    for kind in [SchedulerKind::Echelon, SchedulerKind::Coflow] {
        let (full, _) = gated.run_with_mode(kind, RecomputeMode::Full);
        let (inc, _) = gated.run_with_mode(kind, RecomputeMode::Incremental);
        assert_eq!(
            full.trace.events(),
            inc.trace.events(),
            "{} gated trace diverged",
            kind.name()
        );
        let (full, _) = ungated.run_admission(kind, RecomputeMode::Full);
        let (inc, _) = ungated.run_admission(kind, RecomputeMode::Incremental);
        assert_eq!(
            full.trace.events(),
            inc.trace.events(),
            "{} admission trace diverged",
            kind.name()
        );
    }
}

/// FNV-1a over every trace event (time, flow, kind, rate bits), the run's
/// makespan and each job's makespan.
fn runtime_digest(result: &RunResult) -> u64 {
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
    eat(result.makespan.secs().to_bits());
    for (job, end) in &result.job_makespans {
        eat(u64::from(job.0));
        eat(end.secs().to_bits());
    }
    h
}

type PinnedPolicy = (&'static str, fn(&[&JobDag]) -> Box<dyn RatePolicy>, u64);

/// Runs `paradigm_mix` on the DAG runtime under each policy, in both
/// recompute modes, and checks the digest of its trace and makespans
/// against the pin. Full and Incremental share one pin, since their
/// traces are bit-identical.
fn assert_runtime_pins(pins: &[PinnedPolicy]) {
    let topo = Topology::big_switch_uniform(HOSTS, 1.0);
    for &(label, mk, pin) in pins {
        for mode in [RecomputeMode::Full, RecomputeMode::Incremental] {
            let mut alloc = IdAlloc::new();
            let dags = paradigm_mix(&mut alloc);
            let dag_refs: Vec<&JobDag> = dags.iter().collect();
            let mut policy = mk(&dag_refs);
            let out = run_jobs_with(&topo, &dag_refs, policy.as_mut(), mode);
            assert_eq!(runtime_digest(&out), pin, "{label} ({mode:?}) digest moved");
        }
    }
}

/// Max-min, FIFO and SRPT on `paradigm_mix`, pinned to digests recorded
/// from `run_jobs_with` while the driver still skipped allocations inside
/// a policy-certified recompute horizon: on this mix all three reported
/// `horizon_skips > 0`. The driver now allocates at every event batch,
/// so unchanged pins show the skipping was exact. SRPT shares its pin
/// with echelon MADD: the two produce the same schedule on this mix.
#[test]
fn policy_runtime_matches_pinned_digests() {
    assert_runtime_pins(&[
        ("MaxMin", |_| Box::new(MaxMinPolicy), 0xc091_8ded_461c_2d20),
        ("Fifo", |_| Box::new(FifoPolicy), 0x3fa6_10e6_252d_8aab),
        ("Srpt", |_| Box::new(SrptPolicy), 0xf3cc_dca0_9ff9_1717),
    ]);
}

/// Echelon and coflow MADD on `paradigm_mix`, pinned to digests recorded
/// from `run_jobs_with` before the recompute horizon was deleted. The
/// MADD engines never certified a horizon, so they allocated at every
/// event then as every policy does now.
#[test]
fn madd_runtime_matches_pinned_digests() {
    assert_runtime_pins(&[
        (
            "EchelonMadd",
            |d| make_policy(Grouping::Echelon, d),
            0xf3cc_dca0_9ff9_1717,
        ),
        (
            "CoflowMadd",
            |d| make_policy(Grouping::Coflow, d),
            0x24b9_7f6e_6681_d3dd,
        ),
    ]);
}

/// The next-completion backend axis: the calendar queue and the linear
/// scan read the same per-slot due table and must pick the identical
/// next completion (flow *and* dt), so every scheduler's trace is
/// bit-identical across backends, with feasibility checks on or off.
#[test]
fn calendar_and_scan_backends_are_bit_identical() {
    type Mk = fn(&Workload) -> Box<dyn RatePolicy>;
    let kinds: [(&str, Mk); 4] = [
        ("MaxMin", |_| Box::new(MaxMinPolicy)),
        ("Srpt", |_| Box::new(SrptPolicy)),
        ("EchelonMadd", |w| {
            Box::new(EchelonMadd::new(w.echelons.clone()))
        }),
        ("VarysMadd", |w| Box::new(VarysMadd::new(w.coflows.clone()))),
    ];
    let topo = Topology::big_switch_uniform(HOSTS, 1.5);
    for seed in 0..4u64 {
        let w = workload(seed);
        for mode in [RecomputeMode::Full, RecomputeMode::Incremental] {
            for (label, mk) in kinds {
                let run = |nc: NextCompletionMode, checks: bool| {
                    let mut policy = mk(&w);
                    run_flows_configured(
                        &topo,
                        w.demands.clone(),
                        policy.as_mut(),
                        mode,
                        DriveConfig {
                            next_completion: nc,
                            feasibility_checks: checks,
                            ..DriveConfig::default()
                        },
                    )
                };
                let scan = run(NextCompletionMode::Scan, true);
                let calendar = run(NextCompletionMode::Calendar, true);
                let unchecked = run(NextCompletionMode::Calendar, false);
                assert_eq!(
                    scan.trace().events(),
                    calendar.trace().events(),
                    "scan vs calendar diverged for {label} ({mode:?}), seed {seed}"
                );
                assert_eq!(
                    scan.completions(),
                    calendar.completions(),
                    "completions diverged for {label} ({mode:?}), seed {seed}"
                );
                assert_eq!(
                    calendar.trace().events(),
                    unchecked.trace().events(),
                    "feasibility checks changed the trace for {label}, seed {seed}"
                );
            }
        }
    }
}

/// A seeded fat-tree workload: mostly pod-local flows, with an optional
/// sprinkle of core-crossing ones to exercise the fallback.
fn fattree_demands(seed: u64, cross_pod: bool) -> Vec<FlowDemand> {
    let mut rng = DetRng::seed_from_u64(seed);
    let hosts = 16; // k = 4
    let per_pod = 4;
    let n = rng.usize_range_inclusive(10, 20);
    let mut demands = Vec::new();
    for i in 0..n {
        let (src, dst) = if cross_pod && rng.next_f64() < 0.2 {
            let src = rng.usize_range_inclusive(0, hosts - 1);
            let mut dst = rng.usize_range_inclusive(0, hosts - 2);
            if dst >= src {
                dst += 1;
            }
            (src, dst)
        } else {
            let pod = rng.usize_range_inclusive(0, hosts / per_pod - 1);
            let src = rng.usize_range_inclusive(0, per_pod - 1);
            let mut dst = rng.usize_range_inclusive(0, per_pod - 2);
            if dst >= src {
                dst += 1;
            }
            (pod * per_pod + src, pod * per_pod + dst)
        };
        demands.push(FlowDemand {
            id: FlowId(i as u64),
            src: NodeId(src as u32),
            dst: NodeId(dst as u32),
            size: rng.f64_range(0.5, 4.0),
            release: SimTime::new(rng.f64_range(0.0, 3.0)),
        });
    }
    demands
}

/// The pod-decomposition axis: the policy keeps per-pod rates for
/// untouched pods; that must be bit-identical to the stateless
/// pod-sequential reference, across recompute modes and next-completion
/// backends, with and without core-crossing flows in the mix.
#[test]
fn pod_decomposition_caching_is_bit_identical() {
    let topo = FatTree::new(4).build_fabric();
    for seed in 20..24u64 {
        for cross_pod in [false, true] {
            let demands = fattree_demands(seed, cross_pod);
            let reference = run_flows_with(
                &topo,
                demands.clone(),
                &mut PodReference,
                RecomputeMode::Full,
            );
            let mut traces = vec![("reference".to_string(), reference)];
            for mode in [RecomputeMode::Full, RecomputeMode::Incremental] {
                for nc in [NextCompletionMode::Scan, NextCompletionMode::Calendar] {
                    let out = run_flows_configured(
                        &topo,
                        demands.clone(),
                        &mut PodMaxMinPolicy::new(),
                        mode,
                        DriveConfig {
                            next_completion: nc,
                            ..DriveConfig::default()
                        },
                    );
                    traces.push((format!("{mode:?}/{nc:?}"), out));
                }
            }
            let (ref_label, reference) = &traces[0];
            for (label, out) in &traces[1..] {
                assert_eq!(
                    reference.trace().events(),
                    out.trace().events(),
                    "pod axis diverged: {ref_label} vs {label}, seed {seed}, \
                     cross_pod {cross_pod}"
                );
                assert_eq!(reference.completions(), out.completions());
            }
            // The incremental run must actually skip pods on the
            // pod-local workloads (non-vacuous).
            if !cross_pod {
                // Index 3 = Incremental, Scan (after the reference).
                let stats = traces[3].1.drive_stats();
                assert!(stats.pods_total > 0, "seed {seed}: no pod work reported");
                assert!(
                    stats.pods_recomputed < stats.pods_total,
                    "seed {seed}: caching never skipped a pod ({}/{})",
                    stats.pods_recomputed,
                    stats.pods_total
                );
            }
        }
    }
}

/// The coordinator path (API → decisions → between-decision reuse) stays
/// bit-identical across modes for every trigger, with and without control
/// latency, on a multi-job workload with real cross-job contention.
#[test]
fn coordinator_incremental_matches_full_for_all_triggers() {
    let topo = Topology::big_switch_uniform(HOSTS, 1.0);
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
        let run = |mode: RecomputeMode| {
            let mut alloc = IdAlloc::new();
            let dags = paradigm_mix(&mut alloc);
            let dag_refs: Vec<&JobDag> = dags.iter().collect();
            let mut coordinator = Coordinator::new(cfg);
            for dag in &dags {
                coordinator.submit_all(requests_from_dag(dag));
            }
            let mut policy = coordinator.into_policy();
            let out = run_jobs_with(&topo, &dag_refs, &mut policy, mode);
            (out, policy.decisions_computed())
        };
        let (full, d_full) = run(RecomputeMode::Full);
        let (inc, d_inc) = run(RecomputeMode::Incremental);
        assert_eq!(
            full.trace.events(),
            inc.trace.events(),
            "trace diverged for {cfg:?}"
        );
        assert_eq!(d_full, d_inc, "decision count diverged for {cfg:?}");
    }
}
