//! Differential property tests for the incremental scheduling path.
//!
//! The tentpole guarantee: for every scheduler, a run whose policy is
//! wrapped in `FullRecompute` (recompute everything from the active-flow
//! list at each event) and the plain run (the driver's delta path:
//! patch cached group state from flow deltas) produce **bit-identical**
//! traces — same events, same times, same floating-point rates.
//! Workloads are generated from seeded `echelon-detrand` streams so any
//! failure reproduces from the printed seed.

use echelon_detrand::DetRng;
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
use echelonflow::paradigms::runtime::{run_jobs, run_jobs_fed, RunResult};
use echelonflow::sched::baselines::{FifoPolicy, SrptPolicy};
use echelonflow::sched::echelon::{EchelonMadd, InterOrder};
use echelonflow::simnet::alloc::AllocScratch;
use echelonflow::simnet::fattree::FatTree;
use echelonflow::simnet::fault::FaultPlan;
use echelonflow::simnet::flow::{ActiveFlowView, FlowDemand};
use echelonflow::simnet::fluid::{FlowDelta, NextCompletionMode};
use echelonflow::simnet::ids::{FlowId, NodeId};
use echelonflow::simnet::quantized::{run_flows_quantized, ChunkVisibility};
use echelonflow::simnet::runner::{
    run_flows, FullRecompute, MaxMinPolicy, PodMaxMinPolicy, RatePolicy, RunConfig,
};
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;
use echelonflow::simnet::trace::TraceEventKind;

mod support;
use support::{plain_or_full, PodReference, QueueFeed};

const HOSTS: usize = 6;

/// Builds a scheduler over a DAG set's declared groups.
type DagPolicy = fn(&[&JobDag]) -> Box<dyn RatePolicy>;

/// The raw MADD engine over a DAG set under each grouping: the declared
/// EchelonFlows, and the coflows as one-stage groups ranked by least
/// work (Varys' SEBF).
const MADDS: [(&str, DagPolicy); 2] = [
    ("echelon", |dags| {
        let echelons = dags.iter().flat_map(|d| d.echelons.iter().cloned());
        Box::new(EchelonMadd::new(echelons.collect()))
    }),
    ("coflow", |dags| {
        let coflows = dags.iter().flat_map(|d| d.coflows.iter().cloned());
        let groups = coflows.map(Coflow::into_echelon).collect();
        Box::new(EchelonMadd::new(groups).with_inter(InterOrder::LeastWork))
    }),
];

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

/// Runs one policy-constructor plain and through `FullRecompute` and
/// asserts identical traces and completions.
fn assert_flow_level_identical<F>(seed: u64, label: &str, mut mk: F)
where
    F: FnMut(&Workload) -> Box<dyn RatePolicy>,
{
    let w = workload(seed);
    let topo = Topology::big_switch_uniform(HOSTS, 1.5);
    let config = RunConfig::default();

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
        "trace diverged for {label}, seed {seed}"
    );
    assert_eq!(
        full.completions(),
        inc.completions(),
        "completions diverged for {label}, seed {seed}"
    );
}

/// Digests of every `support::Madd::all` configuration on seeds 0..6, in that
/// order, recorded from the separate echelon and Varys engines before
/// they merged into one.
const MADD_PINS: [u64; 13] = [
    0x5cc1_3d1b_5deb_fc12,
    0x26bb_dfee_c4a7_b1c3,
    0x11e0_5a39_9fb8_b647,
    0xd0f2_2513_ec09_8859,
    0x92c5_69d1_e2ae_d637,
    0x2c2a_1949_5116_3b80,
    0x5375_f8b6_e352_e1f3,
    0x7d34_c4fb_9f01_b4c1,
    0x5e5b_3468_d00f_27e7,
    0x7a03_1bfe_e1d1_ab53,
    0xd282_2da0_94f1_b828,
    0x4808_d2d0_f440_eb41,
    0xbc0f_5ce4_0880_881c,
];

/// The three-way MADD check on seeds 0..6 of the seeded workload.
fn assert_madd_three_way(coflow: bool) {
    let topo = Topology::big_switch_uniform(HOSTS, 1.5);
    support::assert_madd_three_way(
        coflow,
        &MADD_PINS,
        0..6,
        |seed| {
            let w = workload(seed);
            (w.echelons, w.coflows)
        },
        |seed, policy| run_flows(&topo, workload(seed).demands, policy, &RunConfig::default()),
    );
}

#[test]
fn echelon_madd_incremental_matches_full_on_seeded_workloads() {
    assert_madd_three_way(false);
}

#[test]
fn varys_madd_incremental_matches_full_on_seeded_workloads() {
    assert_madd_three_way(true);
}

/// Policies without an incremental override fall back to the naive path;
/// the two paths must still agree exactly.
#[test]
fn default_fallback_policies_agree_across_modes() {
    for seed in 10..14u64 {
        assert_flow_level_identical(seed, "MaxMinPolicy", |_| Box::new(MaxMinPolicy));
        assert_flow_level_identical(seed, "FifoPolicy", |_| Box::new(FifoPolicy));
        assert_flow_level_identical(seed, "SrptPolicy", |_| Box::new(SrptPolicy));
    }
}

/// Counts the calls of the from-scratch entry and of the two delta
/// entries, answering max-min fair share from each.
#[derive(Default)]
struct CountingPolicy {
    from_scratch: usize,
    delta: usize,
}

impl RatePolicy for CountingPolicy {
    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.from_scratch += 1;
        MaxMinPolicy.allocate_dense(now, flows, topo, ws, out);
    }

    fn allocate_dense_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        _delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.delta += 1;
        MaxMinPolicy.allocate_dense(now, flows, topo, ws, out);
    }

    fn allocate_dense_incremental_sparse(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        _delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) -> bool {
        self.delta += 1;
        MaxMinPolicy.allocate_dense(now, flows, topo, ws, out);
        false
    }
}

/// Runs `run` with a [`CountingPolicy`], plain and through
/// `FullRecompute`; `run` returns the driver's allocation count.
fn assert_entries_used(label: &str, run: impl Fn(&mut dyn RatePolicy) -> usize) {
    let mut plain = CountingPolicy::default();
    let allocations = run(&mut plain);
    assert!(allocations > 0, "{label}: no allocation");
    let calls = (plain.from_scratch, plain.delta);
    assert_eq!(calls, (0, allocations), "{label}");
    let mut wrapped = CountingPolicy::default();
    let allocations = run(&mut FullRecompute(&mut wrapped));
    let calls = (wrapped.from_scratch, wrapped.delta);
    assert_eq!(calls, (allocations, 0), "{label} through FullRecompute");
}

/// Every run allocates through a delta entry, once per driver
/// allocation, and never from scratch; through `FullRecompute` every
/// allocation is one from-scratch call of the wrapped policy and none
/// reaches a delta entry. A driver that still calls `allocate_dense`, or
/// a `FullRecompute` that passes the delta through, fails here.
#[test]
fn runs_allocate_through_the_delta_entry_and_full_recompute_from_scratch() {
    let topo = Topology::big_switch_uniform(HOSTS, 1.5);
    let config = RunConfig::default();
    let demands = workload(3).demands;
    assert_entries_used("run_flows", |p| {
        let out = run_flows(&topo, demands.clone(), p, &config);
        out.drive_stats().allocations
    });
    assert_entries_used("run_flows_quantized", |p| {
        let out = run_flows_quantized(&topo, demands.clone(), p, 0.5, ChunkVisibility::FlowState);
        out.stats.allocations
    });
    let dags = paradigm_mix(&mut IdAlloc::new());
    let dag_refs: Vec<&JobDag> = dags.iter().collect();
    let topo = Topology::big_switch_uniform(HOSTS, 1.0);
    assert_entries_used("run_jobs", |p| {
        run_jobs(&topo, &dag_refs, p, &config).stats.allocations
    });
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
    let config = RunConfig::default();
    for (grouping, madd) in MADDS {
        let mut alloc = IdAlloc::new();
        let dags = paradigm_mix(&mut alloc);
        let dag_refs: Vec<&JobDag> = dags.iter().collect();

        let full = run_jobs(
            &topo,
            &dag_refs,
            &mut FullRecompute(madd(&dag_refs)),
            &config,
        );
        let inc = run_jobs(&topo, &dag_refs, madd(&dag_refs).as_mut(), &config);

        assert_eq!(
            full.trace.events(),
            inc.trace.events(),
            "trace diverged for {grouping}"
        );
        assert_eq!(full.makespan, inc.makespan);
        assert_eq!(full.job_makespans, inc.job_makespans);
    }
}

/// Chunk-quantized transport under both chunk-visibility modes: the
/// delta path (parent-level deltas with disguised chunk views) must
/// reproduce the finish times of the run through `FullRecompute` exactly.
#[test]
fn quantized_incremental_matches_full_on_seeded_workloads() {
    type MkPolicy = fn(&Workload) -> Box<dyn RatePolicy>;
    let kinds: [(&str, MkPolicy); 3] = [
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
        for visibility in [ChunkVisibility::FlowState, ChunkVisibility::ChunkLocal] {
            for chunk in [0.5, 0.25] {
                for (label, mk) in kinds {
                    let run = |policy: &mut dyn RatePolicy| {
                        run_flows_quantized(&topo, w.demands.clone(), policy, chunk, visibility)
                    };
                    let full = run(&mut FullRecompute(mk(&w)));
                    let inc = run(mk(&w).as_mut());
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
/// densest DAG shape the builders produce — stays bit-identical to its
/// run through `FullRecompute` under both groupings.
#[test]
fn hybrid_multi_iteration_runtime_matches_across_modes() {
    let topo = Topology::big_switch_uniform(HOSTS, 1.0);
    let config = RunConfig::default();
    for (grouping, madd) in MADDS {
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

        let full = run_jobs(
            &topo,
            &dag_refs,
            &mut FullRecompute(madd(&dag_refs)),
            &config,
        );
        let inc = run_jobs(&topo, &dag_refs, madd(&dag_refs).as_mut(), &config);

        assert_eq!(
            full.trace.events(),
            inc.trace.events(),
            "trace diverged for {grouping}"
        );
        assert_eq!(full.flow_finishes, inc.flow_finishes);
        assert_eq!(full.job_makespans, inc.job_makespans);
    }
}

/// Jobs entering mid-simulation through a feed stay bit-identical to
/// their run through `FullRecompute`. The fed run keeps no rate trace, so the flow
/// releases and finishes and the job makespans carry the comparison.
#[test]
fn admission_runtime_matches_across_modes() {
    let topo = Topology::big_switch_uniform(HOSTS, 1.0);
    let arrivals = [0.0, 1.25, 2.75];
    for (grouping, madd) in MADDS {
        let run = |full: bool| {
            let mut alloc = IdAlloc::new();
            let dags = paradigm_mix(&mut alloc);
            let dag_refs: Vec<&JobDag> = dags.iter().collect();
            let mut policy = madd(&dag_refs);
            let jobs = arrivals.iter().map(|&t| SimTime::new(t)).zip(dags);
            let mut feed = QueueFeed::new(jobs.collect());
            let plan = FaultPlan::empty();
            plain_or_full(full, policy.as_mut(), |p| {
                run_jobs_fed(&topo, &mut feed, p, &plan)
            })
        };
        let full = run(true);
        let inc = run(false);
        assert_eq!(full.job_makespans.len(), 3);
        assert!(SimTime::new(2.75).at_or_before(full.job_makespans[&JobId(2)]));
        assert_eq!(
            full.flow_releases, inc.flow_releases,
            "admission releases diverged for {grouping}"
        );
        assert_eq!(full.flow_finishes, inc.flow_finishes);
        assert_eq!(full.job_makespans, inc.job_makespans);
        assert_eq!(full.makespan, inc.makespan);
    }
}

/// The full cluster layer — seeded multi-tenant workload through the
/// scenario runner — is bit-identical to its run through `FullRecompute`.
#[test]
fn cluster_scenario_matches_across_modes() {
    let plan = FaultPlan::empty();
    let cfg = WorkloadConfig::default_mix(43, 4, 24);
    let scenario = Scenario::generate(&cfg);
    for kind in [SchedulerKind::Echelon, SchedulerKind::Coflow] {
        let dags: Vec<&JobDag> = scenario.jobs.iter().map(|j| &j.dag).collect();
        let (full, _) = scenario.run_with(&mut FullRecompute(kind.policy(&dags)), &plan);
        let (inc, _) = scenario.run(kind, &plan);
        assert_eq!(
            full.trace.events(),
            inc.trace.events(),
            "{} trace diverged",
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

type PinnedPolicy = (&'static str, DagPolicy, u64);

/// Runs `paradigm_mix` on the DAG runtime under each policy, plain and
/// through `FullRecompute`, and checks the digest of its trace and
/// makespans against the pin. Both share one pin, since their traces are
/// bit-identical.
fn assert_runtime_pins(pins: &[PinnedPolicy]) {
    let topo = Topology::big_switch_uniform(HOSTS, 1.0);
    let config = RunConfig::default();
    for &(label, mk, pin) in pins {
        let mut alloc = IdAlloc::new();
        let dags = paradigm_mix(&mut alloc);
        let dag_refs: Vec<&JobDag> = dags.iter().collect();
        let out = run_jobs(&topo, &dag_refs, mk(&dag_refs).as_mut(), &config);
        assert_eq!(runtime_digest(&out), pin, "{label} digest moved");
        let out = run_jobs(&topo, &dag_refs, &mut FullRecompute(mk(&dag_refs)), &config);
        assert_eq!(runtime_digest(&out), pin, "{label} (full) digest moved");
    }
}

/// Max-min, FIFO and SRPT on `paradigm_mix`, pinned to digests recorded
/// from the DAG runtime while the driver still skipped allocations inside
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
/// from the DAG runtime before the recompute horizon was deleted. The
/// MADD engines never certified a horizon, so they allocated at every
/// event then as every policy does now.
#[test]
fn madd_runtime_matches_pinned_digests() {
    assert_runtime_pins(&[
        ("EchelonMadd", MADDS[0].1, 0xf3cc_dca0_9ff9_1717),
        ("CoflowMadd", MADDS[1].1, 0x24b9_7f6e_6681_d3dd),
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
        ("Coflow", |w| {
            let coflows = w.coflows.iter().cloned().map(Coflow::into_echelon);
            Box::new(EchelonMadd::new(coflows.collect()).with_inter(InterOrder::LeastWork))
        }),
    ];
    let topo = Topology::big_switch_uniform(HOSTS, 1.5);
    for seed in 0..4u64 {
        let w = workload(seed);
        for full in [true, false] {
            for (label, mk) in kinds {
                let run = |nc: NextCompletionMode, checks: bool| {
                    let mut config = RunConfig::default();
                    config.drive.next_completion = nc;
                    config.drive.feasibility_checks = checks;
                    plain_or_full(full, mk(&w).as_mut(), |p| {
                        run_flows(&topo, w.demands.clone(), p, &config)
                    })
                };
                let scan = run(NextCompletionMode::Scan, true);
                let calendar = run(NextCompletionMode::Calendar, true);
                let unchecked = run(NextCompletionMode::Calendar, false);
                assert_eq!(
                    scan.trace().events(),
                    calendar.trace().events(),
                    "scan vs calendar diverged for {label} (full {full}), seed {seed}"
                );
                assert_eq!(
                    scan.completions(),
                    calendar.completions(),
                    "completions diverged for {label} (full {full}), seed {seed}"
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
/// pod-sequential reference, plain and through `FullRecompute`, on both
/// next-completion backends, with and without core-crossing flows in
/// the mix.
#[test]
fn pod_decomposition_caching_is_bit_identical() {
    let topo = FatTree::new(4).build_fabric();
    for seed in 20..24u64 {
        for cross_pod in [false, true] {
            let demands = fattree_demands(seed, cross_pod);
            let reference = run_flows(
                &topo,
                demands.clone(),
                &mut PodReference,
                &RunConfig::default(),
            );
            let mut traces = vec![("reference".to_string(), reference)];
            for full in [true, false] {
                for nc in [NextCompletionMode::Scan, NextCompletionMode::Calendar] {
                    let mut config = RunConfig::default();
                    config.drive.next_completion = nc;
                    let out = plain_or_full(full, &mut PodMaxMinPolicy::new(), |p| {
                        run_flows(&topo, demands.clone(), p, &config)
                    });
                    traces.push((format!("full {full}/{nc:?}"), out));
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
                // Index 3 = plain, Scan (after the reference).
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

/// The pod policy keeps one link index for its bucket engine and patches
/// it from each flow delta instead of re-deriving it per fill. Seeded
/// random deltas drive the policy on k = 4 and k = 8 fat trees through
/// the cases that patch it: same-instant cohorts of arrivals and
/// departures, core crossers arriving and draining (so fills alternate
/// between whole-fabric and per-pod scope), degrade, down and restore
/// faults on links in use, arena slots reused by later arrivals, a route
/// too long for an arena slot, unreported departures, and full
/// recomputes. After every allocation the patched index, its per-pod
/// groups of live links included, must equal one built from scratch over
/// the live flows, and the rates must be bitwise
/// the whole-fabric `waterfill_dense` while a crosser or a long route is
/// live, and the per-pod reference otherwise.
#[test]
fn pod_fill_index_matches_a_rebuild_under_random_deltas() {
    use echelonflow::simnet::alloc::waterfill_dense;
    use echelonflow::simnet::fault::FaultKind;
    use echelonflow::simnet::ids::ResourceId;

    // Fabric fills, pod fills, faults, unreported departures, reused
    // slots, long routes, full recomputes.
    let mut seen = [0usize; 7];
    for seed in 0..4u64 {
        for k in [4usize, 8] {
            let mut rng = DetRng::seed_from_u64(0x1DE7 + seed);
            let mut topo = FatTree::new(k).build_fabric();
            let mut base = Vec::new();
            topo.capacities_into(&mut base);
            let hosts_per_pod = k * k / 4;
            let mut policy = PodMaxMinPolicy::new();
            let mut ws = AllocScratch::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            // Live flows in id order and a LIFO free list of arena slots.
            let mut live: Vec<ActiveFlowView> = Vec::new();
            let (mut free, mut slots, mut next_id) = (Vec::new(), 0u32, 0u64);
            let mut reused = std::collections::BTreeSet::new();
            for step in 0..60 {
                let now = SimTime::new(0.1 * step as f64);
                let mut delta = FlowDelta::default();
                // Phases of ten steps: pod-local only (every crosser and
                // long route drains at the phase start), then a few
                // crossers, then many.
                let cross = [0.0, 0.1, 0.4][step / 10 % 3];
                let mut i = 0;
                while i < live.len() {
                    let v = &live[i];
                    let crosser = topo.host_pod(v.src) != topo.host_pod(v.dst) || v.route.len() > 6;
                    if (cross == 0.0 && crosser) || rng.next_f64() < 0.2 {
                        let v = live.remove(i);
                        free.push(v.slot);
                        if rng.next_f64() < 0.1 {
                            seen[3] += 1;
                        } else {
                            delta.departed.push(v.id);
                        }
                    } else {
                        i += 1;
                    }
                }
                for _ in 0..rng.usize_range_inclusive(0, 3 * k) {
                    let src_pod = rng.usize_range_inclusive(0, k - 1);
                    let dst_pod = if rng.next_f64() < cross {
                        (src_pod + rng.usize_range_inclusive(1, k - 1)) % k
                    } else {
                        src_pod
                    };
                    let src = rng.usize_range_inclusive(0, hosts_per_pod - 1);
                    let dst =
                        (src + rng.usize_range_inclusive(1, hosts_per_pod - 1)) % hosts_per_pod;
                    let (src, dst) = (
                        NodeId((src_pod * hosts_per_pod + src) as u32),
                        NodeId((dst_pod * hosts_per_pod + dst) as u32),
                    );
                    let slot = free.pop().unwrap_or_else(|| {
                        slots += 1;
                        slots - 1
                    });
                    if !reused.insert(slot) {
                        seen[4] += 1;
                    }
                    let mut route = topo.route(src, dst);
                    if cross > 0.0 && rng.next_f64() < 0.02 {
                        // Eight hops: more than an arena slot holds.
                        route = (0..8).map(|r| ResourceId(r * 3)).collect();
                        seen[5] += 1;
                    }
                    delta.arrived.push(FlowId(next_id));
                    live.push(ActiveFlowView {
                        id: FlowId(next_id),
                        slot,
                        src,
                        dst,
                        size: 1.0,
                        remaining: 1.0,
                        release: now,
                        route,
                    });
                    next_id += 1;
                }
                // A fault on a link some live flow crosses.
                if !live.is_empty() && rng.next_f64() < 0.3 {
                    let v = &live[rng.usize_range_inclusive(0, live.len() - 1)];
                    let r = v.route[rng.usize_range_inclusive(0, v.route.len() - 1)];
                    let kind = match rng.usize_range_inclusive(0, 2) {
                        0 => FaultKind::LinkDown(r),
                        1 => FaultKind::LinkDegrade(r, rng.f64_range(0.1, 0.9)),
                        _ => FaultKind::LinkRestore(r),
                    };
                    let factor = match kind {
                        FaultKind::LinkDown(_) => 0.0,
                        FaultKind::LinkDegrade(_, f) => f,
                        _ => 1.0,
                    };
                    topo.set_capacity(r, base[r.0 as usize] * factor);
                    policy.on_fault(now, &kind);
                    seen[2] += 1;
                }
                if rng.next_f64() < 0.1 {
                    policy.allocate_dense(now, &live, &topo, &mut ws, &mut got);
                    seen[6] += 1;
                } else {
                    policy.allocate_dense_incremental(now, &live, &delta, &topo, &mut ws, &mut got);
                }
                let fabric = live
                    .iter()
                    .any(|v| topo.host_pod(v.src) != topo.host_pod(v.dst) || v.route.len() > 6);
                if fabric {
                    want.clear();
                    want.resize(live.len(), 0.0);
                    waterfill_dense(&topo, &live, None, &mut want, &mut ws);
                } else {
                    PodReference.allocate_dense(now, &live, &topo, &mut ws, &mut want);
                }
                seen[usize::from(!fabric)] += 1;
                let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "seed {seed} k {k} step {step}");
                if let Err(e) = policy.verify_index(&live, &topo) {
                    panic!("seed {seed} k {k} step {step}: {e}");
                }
            }
        }
    }
    // Non-vacuity: every case occurs, and both scopes fill often.
    assert!(seen[0] >= 100 && seen[1] >= 100, "fills by scope {seen:?}");
    assert!(seen[2..].iter().all(|&n| n >= 5), "cases {seen:?}");
}

/// The coordinator path (agents → decisions → the group ranking held
/// between them) stays bit-identical to its run through `FullRecompute` for every trigger,
/// with and without control latency, on a multi-job workload with real
/// cross-job contention.
#[test]
fn coordinator_incremental_matches_full_for_all_triggers() {
    let topo = Topology::big_switch_uniform(HOSTS, 1.0);
    let config = RunConfig::default();
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
            "trace diverged for {cfg:?}"
        );
        assert_eq!(d_full, d_inc, "decision count diverged for {cfg:?}");
    }
}

/// The MADD engine keeps its earliest-deadline serve order by patching it
/// from flow deltas, and builds every ranking's group structure in that
/// order. Seeded random deltas drive every `support::Madd::all`
/// configuration through the cases that patch it: departures of an
/// echelon's head, solo arrivals released at a live group's head
/// deadline (a tie the group key breaks), echelons that empty and come
/// back, eviction mid-run, and unreported departures, whose freed slots
/// the next arrivals reuse, forcing the rebuild fallback. Every
/// allocation must be bitwise the map-based reference; debug builds also
/// assert in `EchelonMadd::sync` that the kept order equals sorting the
/// cached groups by `(head deadline, key)`.
#[test]
fn kept_serve_order_matches_the_reference_under_random_deltas() {
    use std::collections::VecDeque;
    use support::Madd;

    const ECHELONS: u64 = 6;
    let topo = Topology::big_switch_uniform(HOSTS, 1.5);
    let endpoints = |rng: &mut DetRng| {
        let src = rng.usize_range_inclusive(0, HOSTS - 1);
        let dst = (src + rng.usize_range_inclusive(1, HOSTS - 1)) % HOSTS;
        (NodeId(src as u32), NodeId(dst as u32))
    };
    let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    // Head departures, ties, comebacks, evictions, unreported departures.
    let mut seen = [0usize; 5];
    for seed in 0..3u64 {
        for cfg in Madd::all() {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut echelons = Vec::new();
            let mut coflows = Vec::new();
            // Each echelon's unreleased members, in release order.
            let mut queued: Vec<VecDeque<FlowRef>> = Vec::new();
            for e in 0..ECHELONS {
                let refs: Vec<FlowRef> = (0..rng.usize_range_inclusive(3, 6) as u64)
                    .map(|m| {
                        let (src, dst) = endpoints(&mut rng);
                        FlowRef::new(FlowId(10 * e + m), src, dst, rng.f64_range(0.5, 3.0))
                    })
                    .collect();
                let arrangement = if rng.next_f64() < 0.5 {
                    ArrangementFn::Coflow
                } else {
                    ArrangementFn::Staggered {
                        gap: rng.f64_range(0.2, 1.0),
                    }
                };
                let job = JobId(e as u32);
                echelons.push(EchelonFlow::from_flows(
                    EchelonId(e),
                    job,
                    refs.clone(),
                    arrangement,
                ));
                coflows.push(Coflow::new(EchelonId(e), job, refs.clone()));
                queued.push(refs.into());
            }
            let mut engine = cfg.engine(&echelons, &coflows);
            let mut reference = cfg.reference(&echelons, &coflows);
            let echelon_of = |id: FlowId| (id.0 < 10 * ECHELONS).then_some(id.0 / 10);
            // Live flows as views (their `remaining` is redrawn each step)
            // and a LIFO free list of arena slots.
            let mut live: Vec<ActiveFlowView> = Vec::new();
            let (mut free, mut slots) = (Vec::new(), 0u32);
            let mut next_solo = 100;
            let mut evicted = [false; ECHELONS as usize];
            let mut ws = AllocScratch::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for step in 0..48 {
                let now = SimTime::new(0.25 * step as f64);
                let mut delta = FlowDelta::default();
                // The live member of one echelon with the earliest ideal
                // finish departs, and a random eighth of all flows; a tenth
                // of the departures go unreported.
                let e = rng.usize_range_inclusive(0, ECHELONS as usize - 1) as u64;
                let head = live
                    .iter()
                    .filter(|v| echelon_of(v.id) == Some(e))
                    .min_by_key(|v| (engine.book().ideal_finish(v.id), v.id))
                    .map(|v| v.id);
                let mut k = 0;
                while k < live.len() {
                    if Some(live[k].id) == head || rng.next_f64() < 0.125 {
                        let v = live.remove(k);
                        seen[0] += usize::from(Some(v.id) == head);
                        free.push(v.slot);
                        if rng.next_f64() < 0.1 {
                            seen[4] += 1;
                        } else {
                            delta.departed.push(v.id);
                        }
                    } else {
                        k += 1;
                    }
                }
                let mut arrive = |live: &mut Vec<ActiveFlowView>, f: FlowRef, release| {
                    let slot = free.pop().unwrap_or_else(|| {
                        slots += 1;
                        slots - 1
                    });
                    delta.arrived.push(f.id);
                    live.push(ActiveFlowView {
                        id: f.id,
                        src: f.src,
                        dst: f.dst,
                        size: f.size,
                        remaining: f.size,
                        release,
                        route: topo.route(f.src, f.dst),
                        slot,
                    });
                };
                // Solo arrivals, half of them released at the head
                // deadline of a live group (bound at an earlier step).
                for _ in 0..rng.usize_range_inclusive(0, 2) {
                    let mut release = now;
                    if !live.is_empty() && rng.next_f64() < 0.5 {
                        let v = &live[rng.usize_range_inclusive(0, live.len() - 1)];
                        release = match echelon_of(v.id) {
                            None => v.release,
                            Some(e) => live
                                .iter()
                                .filter(|w| echelon_of(w.id) == Some(e))
                                .filter_map(|w| engine.book().ideal_finish(w.id))
                                .min()
                                .expect("a live member's echelon is bound"),
                        };
                        seen[1] += 1;
                    }
                    let (src, dst) = endpoints(&mut rng);
                    let f = FlowRef::new(FlowId(next_solo), src, dst, rng.f64_range(0.5, 3.0));
                    next_solo += 1;
                    arrive(&mut live, f, release);
                }
                // The next member of up to three echelons, at times the
                // last one instead, which a later arrival heads; an echelon
                // with members released before but none live comes back.
                for _ in 0..rng.usize_range_inclusive(0, 3) {
                    let e = rng.usize_range_inclusive(0, ECHELONS as usize - 1);
                    let started = queued[e].len() < echelons[e].flows().count();
                    let next = if rng.next_f64() < 0.4 {
                        queued[e].pop_back()
                    } else {
                        queued[e].pop_front()
                    };
                    let Some(f) = next else {
                        continue;
                    };
                    let empty = !live.iter().any(|v| echelon_of(v.id) == Some(e as u64));
                    seen[2] += usize::from(started && empty);
                    arrive(&mut live, f, now);
                }
                live.sort_by_key(|v| v.id);
                for v in &mut live {
                    v.remaining = v.size * rng.f64_range(0.1, 1.0);
                }
                engine.allocate_dense_incremental(now, &live, &delta, &topo, &mut ws, &mut got);
                reference.allocate_dense(now, &live, &topo, &mut ws, &mut want);
                assert_eq!(bits(&got), bits(&want), "{cfg:?}, seed {seed}, step {step}");
                // Evict every echelon whose members have all departed.
                for e in 0..ECHELONS as usize {
                    let done = queued[e].is_empty()
                        && !live.iter().any(|v| echelon_of(v.id) == Some(e as u64));
                    if done && !evicted[e] {
                        assert!(engine.evict(EchelonId(e as u64), &live));
                        evicted[e] = true;
                        seen[3] += 1;
                    }
                }
            }
        }
    }
    assert!(seen.iter().all(|&n| n >= 20), "case counts {seen:?}");
}
