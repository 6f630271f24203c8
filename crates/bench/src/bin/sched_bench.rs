//! Scheduling event-loop throughput: full recompute vs incremental.
//!
//! Multi-tenant scenarios — N jobs of 8 staggered flows each on a
//! 128-host big switch — are run to completion under every scheduler in
//! both [`RecomputeMode`]s. The bench asserts the two traces are
//! bit-identical (the differential guarantee, enforced here too so a
//! perf number can never come from a divergent schedule), then reports
//! events per second and the speedup.
//!
//! Two scenario families are measured:
//!
//! - **static**: pre-declared flow demands through the flow-level driver
//!   ([`run_flows_with`]);
//! - **dynamic**: seeded multi-tenant DAG workloads (every paradigm in
//!   the mix, two training iterations) through the job runtime
//!   ([`run_jobs_with`]), where releases are *computed* by the DAG
//!   cascade rather than known up front.
//!
//! Output: human-readable table on stdout plus `BENCH_sched.json`
//! (hand-rolled JSON; the container has no serde) in the current
//! directory. Run from the workspace root:
//!
//! ```text
//! cargo run --release -p echelon-bench --bin sched_bench
//! ```
//!
//! `--smoke` runs one small scenario per family with the same
//! trace-identity assertions and writes nothing — a cheap CI gate.
//! `--open-loop --smoke` gates the open-loop service tier instead:
//! streaming Poisson arrivals at three offered loads under fair share,
//! Varys-style coflows, and echelon formation, with every streamed run
//! asserted bit-identical to a materialized closed-loop replay and the
//! scheduler book's high-water mark asserted sublinear on a 2k-job
//! stream. The full (non-smoke) run always includes the open-loop tier
//! in `BENCH_sched.json`.
//!
//! `--placement` adds the placement × scheduler × fault-plan
//! cross-product (experiment E18): five placement policies on a 4:1
//! fat-tree, each cell run at 1 and 2 sweep threads with the
//! completion digests asserted byte-identical before the row is
//! recorded. `--placement --smoke` runs the same grid and identity
//! gate but writes nothing.

use echelon_bench::experiments as exp;
use echelon_cluster::churn::{random_fault_plan, ChurnConfig};
use echelon_cluster::metrics::steady_state_metrics;
use echelon_cluster::scenario::SchedulerKind;
use echelon_cluster::service::{run_service, ServiceConfig, ServiceMode};
use echelon_cluster::workload::{generate_workload, OpenLoopConfig, WorkloadConfig};
use echelon_core::arrangement::ArrangementFn;
use echelon_core::coflow::Coflow;
use echelon_core::echelon::{EchelonFlow, FlowRef};
use echelon_core::{EchelonId, JobId};
use echelon_detrand::DetRng;
use echelon_paradigms::dag::JobDag;
use echelon_paradigms::ids::IdAlloc;
use echelon_paradigms::runtime::{
    make_policy, run_jobs_every_event, run_jobs_faulted, run_jobs_faulted_every_event,
    run_jobs_with, Grouping, RunResult,
};
use echelon_sched::baselines::SrptPolicy;
use echelon_sched::echelon::EchelonMadd;
use echelon_sched::varys::VarysMadd;
use echelon_simnet::driver::{DriveConfig, PhaseTimings};
use echelon_simnet::fattree::FatTree;
use echelon_simnet::flow::FlowDemand;
use echelon_simnet::fluid::NextCompletionMode;
use echelon_simnet::ids::{FlowId, NodeId};
use echelon_simnet::runner::{
    run_flows_configured, run_flows_with, FlowOutcomes, PodMaxMinPolicy, RatePolicy, RecomputeMode,
};
use echelon_simnet::sweep;
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;
use std::time::Instant;

const HOSTS: usize = 128;
const FLOWS_PER_JOB: usize = 8;
const JOB_COUNTS: [usize; 4] = [16, 32, 64, 96];
const DYNAMIC_JOB_COUNTS: [usize; 3] = [4, 8, 16];
const DYNAMIC_ITERATIONS: usize = 2;
const REPEATS: usize = 3;

struct Scenario {
    jobs: usize,
    demands: Vec<FlowDemand>,
    echelons: Vec<EchelonFlow>,
    coflows: Vec<Coflow>,
}

/// N tenants, each an 8-flow staggered EchelonFlow between its own hosts,
/// with jittered releases so groups arrive and depart throughout the run.
fn scenario(jobs: usize) -> Scenario {
    let mut rng = DetRng::seed_from_u64(0xEC4E10 + jobs as u64);
    let mut demands = Vec::new();
    let mut echelons = Vec::new();
    let mut coflows = Vec::new();
    let mut next_id = 0u64;
    for j in 0..jobs {
        let base = (j * 2) % HOSTS;
        let start = rng.f64_range(0.0, 10.0);
        let gap = rng.f64_range(0.2, 0.8);
        let mut refs = Vec::new();
        for k in 0..FLOWS_PER_JOB {
            // Alternate direction between the tenant's host pair so both
            // links carry load.
            let (src, dst) = if k % 2 == 0 {
                (base, (base + 1) % HOSTS)
            } else {
                ((base + 1) % HOSTS, base)
            };
            let d = FlowDemand {
                id: FlowId(next_id),
                src: NodeId(src as u32),
                dst: NodeId(dst as u32),
                size: rng.f64_range(0.5, 3.0),
                release: SimTime::new(start + k as f64 * gap),
            };
            refs.push(FlowRef::new(d.id, d.src, d.dst, d.size));
            demands.push(d);
            next_id += 1;
        }
        echelons.push(EchelonFlow::from_flows(
            EchelonId(j as u64),
            JobId(j as u32),
            refs.clone(),
            ArrangementFn::Staggered { gap },
        ));
        coflows.push(Coflow::new(EchelonId(j as u64), JobId(j as u32), refs));
    }
    Scenario {
        jobs,
        demands,
        echelons,
        coflows,
    }
}

/// Runs the scenario once in `mode`, returning the outcome and elapsed
/// seconds. Repeated [`REPEATS`] times; the minimum elapsed is reported
/// (least-noise estimator for wall-clock benches).
fn timed_run(
    sc: &Scenario,
    topo: &Topology,
    mk: &dyn Fn(&Scenario) -> Box<dyn RatePolicy>,
    mode: RecomputeMode,
) -> (FlowOutcomes, f64) {
    let mut best: Option<(FlowOutcomes, f64)> = None;
    for _ in 0..REPEATS {
        let mut policy = mk(sc);
        let start = Instant::now();
        let out = run_flows_with(topo, sc.demands.clone(), policy.as_mut(), mode);
        let secs = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, b)| secs < *b) {
            best = Some((out, secs));
        }
    }
    best.unwrap()
}

struct SchedResult {
    name: &'static str,
    events: usize,
    full_eps: f64,
    inc_eps: f64,
    speedup: f64,
    /// Fraction of occupied links whose rates changed per allocation,
    /// from the incremental run (MADD steady state is ~1.0 — see the
    /// dirty-link discussion in DESIGN.md §8).
    link_frac: f64,
    /// Fraction of pods recomputed per allocation (0.0 when the policy
    /// or topology has no pod decomposition — see DESIGN.md §10).
    pod_frac: f64,
    /// High-water mark of the flow arena (max concurrent flows).
    arena_capacity: usize,
}

fn bench_scheduler(
    sc: &Scenario,
    topo: &Topology,
    name: &'static str,
    mk: &dyn Fn(&Scenario) -> Box<dyn RatePolicy>,
) -> SchedResult {
    let (full, full_secs) = timed_run(sc, topo, mk, RecomputeMode::Full);
    let (inc, inc_secs) = timed_run(sc, topo, mk, RecomputeMode::Incremental);
    assert_eq!(
        full.trace().events(),
        inc.trace().events(),
        "{name}: incremental trace diverged from full on {} jobs",
        sc.jobs
    );
    let events = full.trace().events().len();
    SchedResult {
        name,
        events,
        full_eps: events as f64 / full_secs,
        inc_eps: events as f64 / inc_secs,
        speedup: full_secs / inc_secs,
        link_frac: inc.drive_stats().link_recompute_fraction(),
        pod_frac: inc.drive_stats().pod_recompute_fraction(),
        arena_capacity: inc.drive_stats().arena_capacity,
    }
}

/// A dynamic scenario: a seeded multi-tenant DAG workload whose flow
/// releases emerge from the computation/communication cascade.
struct DynScenario {
    jobs: usize,
    hosts: usize,
    flows: usize,
    dags: Vec<JobDag>,
}

fn dyn_scenario(jobs: usize) -> DynScenario {
    let hosts = 6 * jobs;
    let mut cfg = WorkloadConfig::default_mix(0xD1A0 + jobs as u64, jobs, hosts);
    cfg.iterations = DYNAMIC_ITERATIONS;
    let mut alloc = IdAlloc::new();
    let dags: Vec<JobDag> = generate_workload(&cfg, &mut alloc)
        .into_iter()
        .map(|j| j.dag)
        .collect();
    let flows = dags.iter().map(|d| d.all_flows().len()).sum();
    DynScenario {
        jobs,
        hosts,
        flows,
        dags,
    }
}

fn timed_dyn_run(ds: &DynScenario, grouping: Grouping, mode: RecomputeMode) -> (RunResult, f64) {
    let topo = Topology::big_switch_uniform(ds.hosts, 1.0);
    let dag_refs: Vec<&JobDag> = ds.dags.iter().collect();
    let mut best: Option<(RunResult, f64)> = None;
    for _ in 0..REPEATS {
        let mut policy = make_policy(grouping, &dag_refs);
        let start = Instant::now();
        let out = run_jobs_with(&topo, &dag_refs, policy.as_mut(), mode);
        let secs = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, b)| secs < *b) {
            best = Some((out, secs));
        }
    }
    best.unwrap()
}

fn bench_dyn_scheduler(ds: &DynScenario, name: &'static str, grouping: Grouping) -> SchedResult {
    let (full, full_secs) = timed_dyn_run(ds, grouping, RecomputeMode::Full);
    let (inc, inc_secs) = timed_dyn_run(ds, grouping, RecomputeMode::Incremental);
    assert_eq!(
        full.trace.events(),
        inc.trace.events(),
        "{name}: incremental trace diverged from full on {} dynamic jobs",
        ds.jobs
    );
    let events = full.trace.events().len();
    SchedResult {
        name,
        events,
        full_eps: events as f64 / full_secs,
        inc_eps: events as f64 / inc_secs,
        speedup: full_secs / inc_secs,
        link_frac: inc.stats.link_recompute_fraction(),
        pod_frac: inc.stats.pod_recompute_fraction(),
        arena_capacity: inc.stats.arena_capacity,
    }
}

/// Smoke gate for the recompute-horizon path: a certifying policy (SRPT)
/// run through the job runtime's default `PolicyHorizon` cadence must
/// produce a trace bit-identical to the every-event reference while
/// actually skipping recomputes, and the skip accounting must balance
/// (horizon allocations + skips == every-event allocations).
fn smoke_horizon_gate(ds: &DynScenario) {
    let topo = Topology::big_switch_uniform(ds.hosts, 1.0);
    let dag_refs: Vec<&JobDag> = ds.dags.iter().collect();
    let mut horizon_policy = SrptPolicy;
    let horizon = run_jobs_with(
        &topo,
        &dag_refs,
        &mut horizon_policy,
        RecomputeMode::Incremental,
    );
    let mut every_policy = SrptPolicy;
    let every = run_jobs_every_event(
        &topo,
        &dag_refs,
        &mut every_policy,
        RecomputeMode::Incremental,
    );
    assert_eq!(
        horizon.trace.events(),
        every.trace.events(),
        "srpt: horizon-skipping trace diverged from every-event on {} dynamic jobs",
        ds.jobs
    );
    assert!(
        horizon.stats.horizon_skips > 0,
        "srpt: horizon gate is vacuous — no events were skipped"
    );
    assert_eq!(
        horizon.stats.allocations + horizon.stats.horizon_skips,
        every.stats.allocations,
        "srpt: horizon skip accounting does not balance"
    );
    println!(
        "horizon gate: srpt skipped {} of {} recomputes, trace identical",
        horizon.stats.horizon_skips, every.stats.allocations
    );
}

/// The churn plan every faulted bench run shares: random link flaps,
/// degradations, an outage and a straggler over the scenario's own
/// topology, plus one guaranteed incident on host 0's egress.
fn fault_plan_for(ds: &DynScenario) -> echelon_simnet::fault::FaultPlan {
    use echelon_simnet::fault::FaultKind;
    use echelon_simnet::ids::ResourceId;
    let topo = Topology::big_switch_uniform(ds.hosts, 1.0);
    random_fault_plan(0xFA417 + ds.jobs as u64, &topo, &ChurnConfig::default())
        .with(SimTime::new(1.0), FaultKind::LinkDown(ResourceId(0)))
        .with(SimTime::new(2.0), FaultKind::LinkRestore(ResourceId(0)))
}

fn timed_dyn_faulted_run(
    ds: &DynScenario,
    grouping: Grouping,
    mode: RecomputeMode,
    plan: &echelon_simnet::fault::FaultPlan,
) -> (RunResult, f64) {
    let topo = Topology::big_switch_uniform(ds.hosts, 1.0);
    let dag_refs: Vec<&JobDag> = ds.dags.iter().collect();
    let mut best: Option<(RunResult, f64)> = None;
    for _ in 0..REPEATS {
        let mut policy = make_policy(grouping, &dag_refs);
        let start = Instant::now();
        let out = run_jobs_faulted(&topo, &dag_refs, policy.as_mut(), mode, plan);
        let secs = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, b)| secs < *b) {
            best = Some((out, secs));
        }
    }
    best.unwrap()
}

/// Faulted dynamic bench: identical churn injected into both recompute
/// modes; the trace-identity assertion makes capacity churn part of the
/// perf gate, not a separate correctness suite only.
fn bench_dyn_faulted(ds: &DynScenario, name: &'static str, grouping: Grouping) -> SchedResult {
    let plan = fault_plan_for(ds);
    let (full, full_secs) = timed_dyn_faulted_run(ds, grouping, RecomputeMode::Full, &plan);
    let (inc, inc_secs) = timed_dyn_faulted_run(ds, grouping, RecomputeMode::Incremental, &plan);
    assert_eq!(
        full.trace.events(),
        inc.trace.events(),
        "{name}: faulted incremental trace diverged from full on {} dynamic jobs",
        ds.jobs
    );
    assert_eq!(full.stats.fault_events, plan.len());
    let events = full.trace.events().len();
    SchedResult {
        name,
        events,
        full_eps: events as f64 / full_secs,
        inc_eps: events as f64 / inc_secs,
        speedup: full_secs / inc_secs,
        link_frac: inc.stats.link_recompute_fraction(),
        pod_frac: inc.stats.pod_recompute_fraction(),
        arena_capacity: inc.stats.arena_capacity,
    }
}

/// Smoke gate for fault injection: under the churn plan, the incremental
/// run must stay bit-identical both to the full recompute and to the
/// every-event naive reference (the strongest oracle — no cadence skips,
/// no caches), and every fault must be drained and accounted.
fn smoke_fault_gate(ds: &DynScenario) {
    let topo = Topology::big_switch_uniform(ds.hosts, 1.0);
    let dag_refs: Vec<&JobDag> = ds.dags.iter().collect();
    let plan = fault_plan_for(ds);
    for grouping in [Grouping::Echelon, Grouping::Coflow] {
        let mut p_inc = make_policy(grouping, &dag_refs);
        let inc = run_jobs_faulted(
            &topo,
            &dag_refs,
            p_inc.as_mut(),
            RecomputeMode::Incremental,
            &plan,
        );
        let mut p_ref = make_policy(grouping, &dag_refs);
        let reference = run_jobs_faulted_every_event(
            &topo,
            &dag_refs,
            p_ref.as_mut(),
            RecomputeMode::Full,
            &plan,
        );
        assert_eq!(
            inc.trace.events(),
            reference.trace.events(),
            "{grouping:?}: faulted incremental trace diverged from every-event reference"
        );
        assert_eq!(inc.stats.fault_events, plan.len());
        assert_eq!(reference.stats.fault_events, plan.len());
        assert!(inc.stats.fault_recomputes > 0);
    }
    println!(
        "fault gate: {} churn events, incremental ≡ every-event reference for both groupings",
        plan.len()
    );
}

/// Time-averaged number of concurrently active flows: Σ fct / makespan.
fn mean_active_flows(out: &FlowOutcomes) -> f64 {
    let span = out.makespan().secs();
    if span <= 0.0 {
        return 0.0;
    }
    let total_fct: f64 = out
        .completions()
        .values()
        .map(|c| c.finish - c.release)
        .sum();
    total_fct / span
}

fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

fn static_results(sc: &Scenario, topo: &Topology) -> [SchedResult; 2] {
    [
        bench_scheduler(sc, topo, "echelon-madd", &|sc: &Scenario| {
            Box::new(EchelonMadd::new(sc.echelons.clone()))
        }),
        bench_scheduler(sc, topo, "varys-madd", &|sc: &Scenario| {
            Box::new(VarysMadd::new(sc.coflows.clone()))
        }),
    ]
}

fn dyn_results(ds: &DynScenario) -> [SchedResult; 2] {
    [
        bench_dyn_scheduler(ds, "echelon-madd", Grouping::Echelon),
        bench_dyn_scheduler(ds, "varys-madd", Grouping::Coflow),
    ]
}

fn print_row(r: &SchedResult, jobs: usize, flows: usize) {
    println!(
        "{:<24} {:>5} {:>7} {:>8} {:>12.0} {:>12.0} {:>7.2}x {:>6.3}",
        r.name, jobs, flows, r.events, r.full_eps, r.inc_eps, r.speedup, r.link_frac
    );
}

fn scheduler_json(json: &mut String, results: &[SchedResult]) {
    json.push_str("      \"schedulers\": [\n");
    for (ri, r) in results.iter().enumerate() {
        json.push_str("        {\n");
        json.push_str(&format!("          \"name\": \"{}\",\n", r.name));
        json.push_str(&format!("          \"trace_events\": {},\n", r.events));
        json.push_str(&format!(
            "          \"full_events_per_sec\": {},\n",
            fmt_f64(r.full_eps)
        ));
        json.push_str(&format!(
            "          \"incremental_events_per_sec\": {},\n",
            fmt_f64(r.inc_eps)
        ));
        json.push_str(&format!("          \"speedup\": {},\n", fmt_f64(r.speedup)));
        json.push_str(&format!(
            "          \"link_recompute_fraction\": {},\n",
            fmt_f64(r.link_frac)
        ));
        json.push_str(&format!(
            "          \"pod_recompute_fraction\": {},\n",
            fmt_f64(r.pod_frac)
        ));
        json.push_str(&format!(
            "          \"arena_capacity\": {},\n",
            r.arena_capacity
        ));
        json.push_str("          \"trace_identical\": true\n");
        json.push_str(if ri + 1 < results.len() {
            "        },\n"
        } else {
            "        }\n"
        });
    }
    json.push_str("      ]\n");
}

/// Runs every (jobs, scheduler) combo of the static grid through the
/// sweep engine on `threads` worker threads, returning the merged
/// result digest plus the wall time. The digest is the byte identity
/// witness: it must be identical for every thread count.
fn sweep_digest(threads: usize, topo: &Topology, job_counts: &[usize]) -> (String, f64) {
    let combos: Vec<(usize, &'static str)> = job_counts
        .iter()
        .flat_map(|&jobs| [(jobs, "echelon-madd"), (jobs, "varys-madd")])
        .collect();
    let start = Instant::now();
    let rows = sweep::sweep_with(threads, &combos, |_, &(jobs, name)| {
        let sc = scenario(jobs);
        let mut policy: Box<dyn RatePolicy> = match name {
            "echelon-madd" => Box::new(EchelonMadd::new(sc.echelons.clone())),
            _ => Box::new(VarysMadd::new(sc.coflows.clone())),
        };
        let out = run_flows_with(
            topo,
            sc.demands.clone(),
            policy.as_mut(),
            RecomputeMode::Incremental,
        );
        format!(
            "{name}/{jobs}: events={} makespan_bits={:016x}",
            out.trace().events().len(),
            out.makespan().secs().to_bits()
        )
    });
    (rows.join("\n"), start.elapsed().as_secs_f64())
}

/// Asserts the sweep engine's determinism contract on this machine:
/// serial and `threads`-worker sweeps over the same grid produce
/// byte-identical digests. Returns `(serial_secs, parallel_secs)`.
fn sweep_gate(threads: usize, topo: &Topology, job_counts: &[usize]) -> (f64, f64) {
    let (serial, serial_secs) = sweep_digest(1, topo, job_counts);
    let (parallel, parallel_secs) = sweep_digest(threads, topo, job_counts);
    assert_eq!(
        serial, parallel,
        "sweep digest diverged between 1 and {threads} threads"
    );
    (serial_secs, parallel_secs)
}

/// Parameters for one `--scale` row: a fat-tree fabric saturated with
/// pod-local flows so the pod-decomposed waterfill carries the run.
/// How a scale scenario's releases are spread over time.
enum Arrival {
    /// All releases land uniformly in `[0, window)` — the saturation
    /// regime: concurrency ramps to (nearly) the full flow count.
    Uniform { window: f64 },
    /// A Poisson process: exponential inter-arrival gaps with the given
    /// mean, flows assigned to pods uniformly. Concurrency settles at a
    /// mid-scale steady state (arrival rate × sojourn time).
    Poisson { mean_gap: f64 },
}

struct ScaleSpec {
    /// Stable row identifier in printed output and BENCH_sched.json.
    label: &'static str,
    k: usize,
    flows_per_pod: usize,
    arrival: Arrival,
    size_lo: f64,
    size_hi: f64,
    /// Lower bound asserted on the peak concurrent flow count.
    min_peak_active: usize,
}

struct ScaleRow {
    label: &'static str,
    k: usize,
    hosts: usize,
    pods: usize,
    flows: usize,
    events: usize,
    eps: f64,
    wall_secs: f64,
    peak_active: usize,
    arena_capacity: usize,
    pod_frac: f64,
    alloc_batches: usize,
    batched_events: usize,
    phase: PhaseTimings,
}

/// Pod-local demands on a fat-tree: every flow stays inside its pod, so
/// the allocator's per-pod dirty sets are non-trivial and the
/// whole-fabric fallback never triggers.
fn scale_demands(spec: &ScaleSpec) -> Vec<FlowDemand> {
    let half = spec.k / 2;
    let hosts_per_pod = half * half;
    let total = spec.k * spec.flows_per_pod;
    let mut demands = Vec::with_capacity(total);
    let mut next_id = 0u64;
    match spec.arrival {
        Arrival::Uniform { window } => {
            let mut rng = DetRng::seed_from_u64(0x5CA1E + spec.k as u64);
            for pod in 0..spec.k {
                let base = pod * hosts_per_pod;
                for _ in 0..spec.flows_per_pod {
                    let src = rng.usize_range_inclusive(0, hosts_per_pod - 1);
                    let dst_raw = rng.usize_range_inclusive(0, hosts_per_pod - 2);
                    let dst = if dst_raw >= src { dst_raw + 1 } else { dst_raw };
                    demands.push(FlowDemand {
                        id: FlowId(next_id),
                        src: NodeId((base + src) as u32),
                        dst: NodeId((base + dst) as u32),
                        size: rng.f64_range(spec.size_lo, spec.size_hi),
                        release: SimTime::new(rng.f64_range(0.0, window)),
                    });
                    next_id += 1;
                }
            }
        }
        Arrival::Poisson { mean_gap } => {
            // Different seed constant than the uniform arm so the two
            // k=16 rows exercise independent draws.
            let mut rng = DetRng::seed_from_u64(0x57A66 + spec.k as u64);
            let mut t = 0.0f64;
            for _ in 0..total {
                let u = rng.f64_range(0.0, 1.0);
                t += -mean_gap * (1.0 - u).ln();
                let pod = rng.usize_range_inclusive(0, spec.k - 1);
                let base = pod * hosts_per_pod;
                let src = rng.usize_range_inclusive(0, hosts_per_pod - 1);
                let dst_raw = rng.usize_range_inclusive(0, hosts_per_pod - 2);
                let dst = if dst_raw >= src { dst_raw + 1 } else { dst_raw };
                demands.push(FlowDemand {
                    id: FlowId(next_id),
                    src: NodeId((base + src) as u32),
                    dst: NodeId((base + dst) as u32),
                    size: rng.f64_range(spec.size_lo, spec.size_hi),
                    release: SimTime::new(t),
                });
                next_id += 1;
            }
        }
    }
    demands
}

/// The drive configuration the scale tier runs under: rate tracing and
/// per-event feasibility checks are O(flows) per allocation — fine at
/// hundreds of flows, ruinous at 10⁵ — so both are off; completion
/// times, stats and the digest below are unaffected.
fn scale_config() -> DriveConfig {
    DriveConfig {
        next_completion: NextCompletionMode::Calendar,
        feasibility_checks: false,
        trace: false,
        profile: false,
        link_stats: false,
    }
}

/// FNV-style digest over the completion map (deterministic iteration
/// order): the byte-identity witness for scale runs, where full rate
/// traces are too large to keep.
fn completion_digest(out: &FlowOutcomes) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for (id, c) in out.completions() {
        for word in [id.0, c.finish.secs().to_bits(), c.size.to_bits()] {
            h ^= word;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn run_scale(spec: &ScaleSpec) -> (ScaleRow, u64) {
    let topo = FatTree::new(spec.k).build_fabric();
    let demands = scale_demands(spec);
    let flows = demands.len();

    // Timed pass: profiling off, so `events_per_sec` carries no
    // instrumentation overhead.
    let mut policy = PodMaxMinPolicy::new();
    let start = Instant::now();
    let out = run_flows_configured(
        &topo,
        demands.clone(),
        &mut policy,
        RecomputeMode::Incremental,
        scale_config(),
    );
    let wall_secs = start.elapsed().as_secs_f64();
    let stats = out.drive_stats();
    assert_eq!(out.completions().len(), flows, "k={}: flows lost", spec.k);
    assert!(
        stats.peak_active >= spec.min_peak_active,
        "k={}: peak_active {} below the {} target",
        spec.k,
        stats.peak_active,
        spec.min_peak_active
    );
    let digest = completion_digest(&out);

    // Profiled pass: same scenario with per-phase timers on. Timing
    // must not change behaviour, so the digest doubles as a free
    // identity gate.
    let mut policy = PodMaxMinPolicy::new();
    let profiled = run_flows_configured(
        &topo,
        demands,
        &mut policy,
        RecomputeMode::Incremental,
        DriveConfig {
            profile: true,
            ..scale_config()
        },
    );
    assert_eq!(
        completion_digest(&profiled),
        digest,
        "k={}: profiled run diverged from the timed run",
        spec.k
    );
    let pstats = profiled.drive_stats();

    // Every event is one arrival or one completion; with tracing off this
    // is the throughput denominator.
    let events = 2 * flows;
    let row = ScaleRow {
        label: spec.label,
        k: spec.k,
        hosts: (spec.k * spec.k * spec.k) / 4,
        pods: spec.k,
        flows,
        events,
        eps: events as f64 / wall_secs,
        wall_secs,
        peak_active: stats.peak_active,
        arena_capacity: stats.arena_capacity,
        pod_frac: stats.pod_recompute_fraction(),
        alloc_batches: pstats.alloc_batches,
        batched_events: pstats.batched_events,
        phase: pstats.phase,
    };
    (row, digest)
}

fn print_scale_row(r: &ScaleRow) {
    println!(
        "{:<14} k={:<3} {:>6} hosts {:>4} pods {:>7} flows {:>8} events {:>12.0} ev/s peak {:>6} pod% {:>6.3} ({:.2}s)",
        r.label, r.k, r.hosts, r.pods, r.flows, r.events, r.eps, r.peak_active, r.pod_frac, r.wall_secs
    );
    let total = r.phase.total_ns().max(1) as f64;
    println!(
        "             batches {:>8} (+{} coalesced)  phases: queue {:>4.1}% alloc {:>4.1}% write {:>4.1}% book {:>4.1}%",
        r.alloc_batches,
        r.batched_events,
        100.0 * r.phase.queue_ns as f64 / total,
        100.0 * r.phase.allocate_ns as f64 / total,
        100.0 * r.phase.write_back_ns as f64 / total,
        100.0 * r.phase.bookkeeping_ns as f64 / total,
    );
}

/// Byte-identity gate for the scale tier: the same scale scenario run
/// serially and through the 2-thread sweep engine must produce the same
/// completion digests.
fn scale_sweep_gate(specs: &[ScaleSpec]) {
    let digest = |threads: usize| -> String {
        let combos: Vec<usize> = (0..specs.len()).collect();
        sweep::sweep_with(threads, &combos, |_, &i| {
            let (row, d) = run_scale(&specs[i]);
            format!("k{}/{}: digest={d:016x}", row.k, row.flows)
        })
        .join("\n")
    };
    let serial = digest(1);
    let parallel = digest(2);
    assert_eq!(
        serial, parallel,
        "scale digest diverged between 1 and 2 threads"
    );
    println!("scale gate: 1-thread and 2-thread completion digests identical");
}

/// Fractional throughput drop against a smoke row's committed
/// `events_per_sec` beyond which the smoke run prints a warning. Never a
/// failure: the baseline was recorded on one machine, and CI runs on
/// others.
const SCALE_SMOKE_REGRESSION: f64 = 0.30;

/// Reads one field of a smoke row out of `BENCH_sched.json`'s
/// `scale_smoke` section, string quotes stripped. The file is
/// self-written with stable formatting, so a string scan keyed on the
/// row label avoids a JSON-parser dependency.
fn smoke_field<'a>(json: &'a str, label: &str, key: &str) -> Option<&'a str> {
    let sec = json.find("\"scale_smoke\"")?;
    let tail = &json[sec..];
    let lab = tail.find(&format!("\"label\": \"{label}\""))?;
    let tail = &tail[lab..];
    let key = format!("\"{key}\": ");
    let rest = &tail[tail.find(&key)? + key.len()..];
    let end = rest.find([',', '\n'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

/// CI gate for one smoke row: its completion digest must equal the one
/// committed in `BENCH_sched.json`'s `scale_smoke` section (recorded by
/// the full `--scale` run). A missing file or row fails too. Throughput
/// is only reported: a drop of more than [`SCALE_SMOKE_REGRESSION`]
/// below the committed `events_per_sec` prints a warning.
fn gate_smoke_row(r: &ScaleRow, digest: u64, committed: Option<&str>) -> Result<(), String> {
    let field = |key| committed.and_then(|j| smoke_field(j, r.label, key));
    let pinned = field("completion_digest")
        .ok_or_else(|| format!("{}: no committed scale_smoke digest found", r.label))?;
    if pinned != format!("{digest:016x}") {
        return Err(format!(
            "{}: completion digest {digest:016x} differs from the committed {pinned}",
            r.label
        ));
    }
    if let Some(base) = field("events_per_sec").and_then(|v| v.parse::<f64>().ok()) {
        if r.eps < base * (1.0 - SCALE_SMOKE_REGRESSION) {
            println!(
                "warning: {}: {:.0} ev/s is more than {:.0}% below the committed {:.0} ev/s",
                r.label,
                r.eps,
                SCALE_SMOKE_REGRESSION * 100.0,
                base
            );
        }
    }
    Ok(())
}

/// The `scale_smoke` section of `BENCH_sched.json`: per-row committed
/// completion digests for the CI identity gate, plus the throughput the
/// smoke run compares against. Written by the full `--scale` run, read
/// by `--scale --smoke`.
fn scale_smoke_json(rows: &[(ScaleRow, u64)]) -> String {
    let mut json = String::new();
    json.push_str("  \"scale_smoke\": [\n");
    for (i, (r, d)) in rows.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"label\": \"{}\",\n", r.label));
        json.push_str(&format!("      \"k\": {},\n", r.k));
        json.push_str(&format!("      \"flows\": {},\n", r.flows));
        json.push_str(&format!("      \"events\": {},\n", r.events));
        json.push_str(&format!("      \"events_per_sec\": {},\n", fmt_f64(r.eps)));
        json.push_str(&format!("      \"completion_digest\": \"{d:016x}\"\n"));
        json.push_str(if i + 1 < rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  ]");
    json
}

fn scale_json(rows: &[(ScaleRow, u64)]) -> String {
    let mut json = String::new();
    json.push_str("  \"scale_scenarios\": [\n");
    for (i, (r, d)) in rows.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"label\": \"{}\",\n", r.label));
        json.push_str(&format!("      \"k\": {},\n", r.k));
        json.push_str(&format!("      \"hosts\": {},\n", r.hosts));
        json.push_str(&format!("      \"pods\": {},\n", r.pods));
        json.push_str(&format!("      \"flows\": {},\n", r.flows));
        json.push_str(&format!("      \"events\": {},\n", r.events));
        json.push_str(&format!("      \"events_per_sec\": {},\n", fmt_f64(r.eps)));
        json.push_str(&format!("      \"wall_secs\": {},\n", fmt_f64(r.wall_secs)));
        json.push_str(&format!("      \"peak_active\": {},\n", r.peak_active));
        json.push_str(&format!(
            "      \"arena_capacity\": {},\n",
            r.arena_capacity
        ));
        json.push_str(&format!(
            "      \"pod_recompute_fraction\": {},\n",
            fmt_f64(r.pod_frac)
        ));
        json.push_str(&format!("      \"alloc_batches\": {},\n", r.alloc_batches));
        json.push_str(&format!(
            "      \"batched_events\": {},\n",
            r.batched_events
        ));
        json.push_str("      \"phase_timings\": {\n");
        json.push_str(&format!("        \"queue_ns\": {},\n", r.phase.queue_ns));
        json.push_str(&format!(
            "        \"allocate_ns\": {},\n",
            r.phase.allocate_ns
        ));
        json.push_str(&format!(
            "        \"write_back_ns\": {},\n",
            r.phase.write_back_ns
        ));
        json.push_str(&format!(
            "        \"bookkeeping_ns\": {}\n",
            r.phase.bookkeeping_ns
        ));
        json.push_str("      },\n");
        json.push_str(&format!("      \"completion_digest\": \"{d:016x}\"\n"));
        json.push_str(if i + 1 < rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  ]\n");
    json
}

/// The two published scale rows: k=16 saturated (the ≥10k-concurrent
/// row) and k=32 streamed (10⁵ flows across 8192 hosts).
fn scale_specs() -> [ScaleSpec; 3] {
    [
        ScaleSpec {
            label: "k16-burst",
            k: 16,
            flows_per_pod: 800,
            arrival: Arrival::Uniform { window: 1.0 },
            size_lo: 0.5,
            size_hi: 1.5,
            min_peak_active: 10_000,
        },
        ScaleSpec {
            label: "k32-trickle",
            k: 32,
            flows_per_pod: 3200,
            arrival: Arrival::Uniform { window: 300.0 },
            size_lo: 0.2,
            size_hi: 0.6,
            min_peak_active: 64,
        },
        // Staggered mid-concurrency regime between the two uniform
        // extremes: Poisson arrivals hold a few hundred flows in flight,
        // so completions interleave with releases.
        ScaleSpec {
            label: "k16-staggered",
            k: 16,
            flows_per_pod: 800,
            arrival: Arrival::Poisson { mean_gap: 0.002 },
            size_lo: 0.5,
            size_hi: 1.5,
            min_peak_active: 128,
        },
    ]
}

/// Small fat-tree scenarios for the CI smoke gate: same code path, pod
/// decomposition active, seconds not minutes.
fn scale_smoke_specs() -> [ScaleSpec; 2] {
    [
        ScaleSpec {
            label: "k8-smoke-burst",
            k: 8,
            flows_per_pod: 60,
            arrival: Arrival::Uniform { window: 1.0 },
            size_lo: 0.5,
            size_hi: 1.5,
            min_peak_active: 64,
        },
        ScaleSpec {
            label: "k8-smoke-spread",
            k: 8,
            flows_per_pod: 120,
            arrival: Arrival::Uniform { window: 4.0 },
            size_lo: 0.3,
            size_hi: 0.9,
            min_peak_active: 32,
        },
    ]
}

// ------------------------------------------------------------ open loop

/// Offered loads for the open-loop service tier: light, loaded, and
/// near-saturation.
const OPEN_LOOP_LOADS: [f64; 3] = [0.5, 0.8, 0.95];
/// Mean inter-arrival gap at load 1.0; a scenario at load `ρ` uses
/// `OPEN_LOOP_BASE_IA / ρ`.
const OPEN_LOOP_BASE_IA: f64 = 1.2;
const OPEN_LOOP_HOSTS: usize = 16;
const OPEN_LOOP_JOBS: usize = 120;
const OPEN_LOOP_SMOKE_JOBS: usize = 24;
/// Stream length for the bounded-memory witness.
const OPEN_LOOP_OCCUPANCY_JOBS: usize = 2000;
const OPEN_LOOP_SEED: u64 = 0x0BE7;
/// Schedulers the service tier compares: fair share, Varys-style
/// coflows, and echelon formation.
const OPEN_LOOP_SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Fair,
    SchedulerKind::Coflow,
    SchedulerKind::Echelon,
];

struct OpenLoopRow {
    load: f64,
    mean_ia: f64,
    jobs: usize,
    scheduler: &'static str,
    wall_secs: f64,
    throughput: f64,
    p50_jct: f64,
    p99_jct: f64,
    p99_tardiness: f64,
    /// `(tier name, SLO violation rate)` per tenant tier.
    slo: Vec<(String, f64)>,
    rejected: usize,
    peak_book: usize,
}

fn open_loop_cfg(jobs: usize, load: f64) -> OpenLoopConfig {
    OpenLoopConfig::default_tiers(
        OPEN_LOOP_SEED,
        jobs,
        OPEN_LOOP_HOSTS,
        OPEN_LOOP_BASE_IA / load,
    )
}

/// Runs one open-loop scenario streamed, replays it materialized,
/// asserts the completion digests are bit-identical (admission gating
/// and book eviction change no allocation decision), and folds the
/// steady-state metrics into a report row.
fn run_open_loop(jobs: usize, load: f64, kind: SchedulerKind) -> OpenLoopRow {
    let topo = Topology::big_switch_uniform(OPEN_LOOP_HOSTS, 1.0);
    let cfg = open_loop_cfg(jobs, load);
    let svc = ServiceConfig::default();
    let plan = echelon_simnet::fault::FaultPlan::empty();
    let wall = Instant::now();
    let open = run_service(
        &topo,
        &cfg,
        &svc,
        kind,
        RecomputeMode::Incremental,
        &plan,
        ServiceMode::Streaming,
    );
    let closed = run_service(
        &topo,
        &cfg,
        &svc,
        kind,
        RecomputeMode::Incremental,
        &plan,
        ServiceMode::Materialized,
    );
    let wall_secs = wall.elapsed().as_secs_f64();
    assert_eq!(
        open.digest,
        closed.digest,
        "{} load {load}: open-loop stream and closed-loop replay diverged",
        kind.name()
    );
    // Warmup: the expected span of the first tenth of arrivals.
    let mean_ia = OPEN_LOOP_BASE_IA / load;
    let warmup = mean_ia * jobs as f64 * 0.1;
    let m = steady_state_metrics(&open.records, &open.result, &cfg.tenants, warmup);
    OpenLoopRow {
        load,
        mean_ia,
        jobs,
        scheduler: kind.name(),
        wall_secs,
        throughput: m.throughput,
        p50_jct: m.p50_jct,
        p99_jct: m.p99_jct,
        p99_tardiness: m.p99_tardiness,
        slo: m
            .tenants
            .iter()
            .map(|t| (t.name.clone(), t.violation_rate))
            .collect(),
        rejected: open.rejected_per_tenant.iter().sum(),
        peak_book: open.peak_book_occupancy,
    }
}

fn print_open_loop_row(r: &OpenLoopRow) {
    let slo: Vec<String> = r.slo.iter().map(|(n, v)| format!("{n} {v:.3}")).collect();
    println!(
        "open-loop {:<8} load {:.2} thru {:>7.3} p50 {:>7.3} p99 {:>8.3} p99T {:>8.3} peak {:>4} rej {:>3} slo[{}] ({:.2}s)",
        r.scheduler,
        r.load,
        r.throughput,
        r.p50_jct,
        r.p99_jct,
        r.p99_tardiness,
        r.peak_book,
        r.rejected,
        slo.join(", "),
        r.wall_secs
    );
}

/// The bounded-memory witness at stream scale: a long Poisson stream
/// under the echelon scheduler must keep the book high-water mark far
/// below the total number of groups offered (completed-job eviction is
/// what makes the coordinator open-loop-safe). Returns
/// `(groups offered, peak book occupancy)`.
fn open_loop_occupancy(jobs: usize) -> (usize, usize) {
    let topo = Topology::big_switch_uniform(OPEN_LOOP_HOSTS, 1.0);
    let cfg = open_loop_cfg(jobs, 0.8);
    let out = run_service(
        &topo,
        &cfg,
        &ServiceConfig::default(),
        SchedulerKind::Echelon,
        RecomputeMode::Incremental,
        &echelon_simnet::fault::FaultPlan::empty(),
        ServiceMode::Streaming,
    );
    let groups: usize = out.records.iter().map(|r| r.echelons.len()).sum();
    assert!(out.peak_book_occupancy > 0, "book never held a group");
    assert!(
        out.peak_book_occupancy * 4 < groups,
        "peak book occupancy {} not sublinear in {} offered groups",
        out.peak_book_occupancy,
        groups
    );
    (groups, out.peak_book_occupancy)
}

/// Byte-identity gate for the open-loop tier: the (load × scheduler)
/// grid run serially and through the 2-thread sweep engine must merge
/// to identical digests, and inside every task the streamed incremental
/// run must match a full-recompute materialized replay — the strongest
/// cross-check the service layer offers.
fn open_loop_sweep_gate(jobs: usize) {
    let mut combos = Vec::new();
    for &load in &OPEN_LOOP_LOADS {
        for kind in OPEN_LOOP_SCHEDULERS {
            combos.push((load, kind));
        }
    }
    let digest = |threads: usize| -> String {
        sweep::sweep_with(threads, &combos, |_, &(load, kind)| {
            let topo = Topology::big_switch_uniform(OPEN_LOOP_HOSTS, 1.0);
            let cfg = open_loop_cfg(jobs, load);
            let svc = ServiceConfig::default();
            let plan = echelon_simnet::fault::FaultPlan::empty();
            let open = run_service(
                &topo,
                &cfg,
                &svc,
                kind,
                RecomputeMode::Incremental,
                &plan,
                ServiceMode::Streaming,
            );
            let closed = run_service(
                &topo,
                &cfg,
                &svc,
                kind,
                RecomputeMode::Full,
                &plan,
                ServiceMode::Materialized,
            );
            assert_eq!(
                open.digest,
                closed.digest,
                "{} load {load}: streamed/incremental vs materialized/full diverged",
                kind.name()
            );
            format!("{}@{load}: digest={:016x}", kind.name(), open.digest)
        })
        .join("\n")
    };
    let serial = digest(1);
    let parallel = digest(2);
    assert_eq!(
        serial, parallel,
        "open-loop digest diverged between 1 and 2 threads"
    );
    println!("open-loop gate: 1-thread and 2-thread completion digests identical");
}

fn open_loop_json(rows: &[OpenLoopRow], occupancy: (usize, usize, usize)) -> String {
    let mut json = String::new();
    json.push_str("  \"open_loop_scenarios\": [\n");
    let per_load = OPEN_LOOP_SCHEDULERS.len();
    for (li, chunk) in rows.chunks(per_load).enumerate() {
        let first = &chunk[0];
        json.push_str("    {\n");
        json.push_str(&format!("      \"load\": {},\n", fmt_f64(first.load)));
        json.push_str(&format!(
            "      \"mean_interarrival\": {},\n",
            fmt_f64(first.mean_ia)
        ));
        json.push_str(&format!("      \"jobs\": {},\n", first.jobs));
        json.push_str("      \"schedulers\": [\n");
        for (i, r) in chunk.iter().enumerate() {
            json.push_str("        {\n");
            json.push_str(&format!("          \"name\": \"{}\",\n", r.scheduler));
            json.push_str(&format!(
                "          \"throughput\": {},\n",
                fmt_f64(r.throughput)
            ));
            json.push_str(&format!("          \"p50_jct\": {},\n", fmt_f64(r.p50_jct)));
            json.push_str(&format!("          \"p99_jct\": {},\n", fmt_f64(r.p99_jct)));
            json.push_str(&format!(
                "          \"p99_tardiness\": {},\n",
                fmt_f64(r.p99_tardiness)
            ));
            json.push_str("          \"slo_violation_rates\": {");
            for (ti, (name, v)) in r.slo.iter().enumerate() {
                json.push_str(&format!("\"{name}\": {}", fmt_f64(*v)));
                if ti + 1 < r.slo.len() {
                    json.push_str(", ");
                }
            }
            json.push_str("},\n");
            json.push_str(&format!("          \"rejected\": {},\n", r.rejected));
            json.push_str(&format!(
                "          \"peak_book_occupancy\": {},\n",
                r.peak_book
            ));
            json.push_str(&format!(
                "          \"wall_secs\": {},\n",
                fmt_f64(r.wall_secs)
            ));
            json.push_str("          \"open_closed_identical\": true\n");
            json.push_str(if i + 1 < chunk.len() {
                "        },\n"
            } else {
                "        }\n"
            });
        }
        json.push_str("      ]\n");
        json.push_str(if (li + 1) * per_load < rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  ],\n");
    let (jobs, groups, peak) = occupancy;
    json.push_str("  \"open_loop_occupancy\": {\n");
    json.push_str(&format!("    \"jobs\": {jobs},\n"));
    json.push_str(&format!("    \"groups\": {groups},\n"));
    json.push_str(&format!("    \"peak_book_occupancy\": {peak},\n"));
    json.push_str("    \"sublinear\": true\n");
    json.push_str("  }");
    json
}

// ------------------------------------------------------------ placement

/// Seed for the placement co-design tier (matches `repro codesign`).
const PLACEMENT_SEED: u64 = 42;

fn print_placement_cell(c: &exp::PlacementCell) {
    println!(
        "placement {:<18} {:<8} {} jct {:>8.3} p99T {:>8.3} pods {:>4.2}/{} digest {:016x}",
        c.placement,
        c.scheduler,
        if c.faulted { "churn" } else { "clean" },
        c.mean_jct,
        c.p99_tardiness,
        c.mean_pods_spanned,
        c.max_pods_spanned,
        c.digest
    );
}

/// Runs the E18 cross-product at 1 and 2 sweep threads and asserts every
/// cell's completion digest is byte-identical before returning the grid.
fn placement_cells_gated() -> Vec<exp::PlacementCell> {
    let serial = exp::codesign_experiment_with(1, PLACEMENT_SEED);
    let parallel = exp::codesign_experiment_with(2, PLACEMENT_SEED);
    assert_eq!(serial.len(), parallel.len(), "placement grid size diverged");
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            (a.placement, a.scheduler, a.faulted, a.digest),
            (b.placement, b.scheduler, b.faulted, b.digest),
            "placement cell diverged between 1 and 2 sweep threads"
        );
    }
    parallel
}

/// The `placement_scenarios` section of `BENCH_sched.json`: one object
/// per (placement, scheduler, faulted) cell with its JCT, tardiness
/// tail, pods-spanned spread, and the per-cell completion digest that
/// the 1-vs-2-thread gate pinned.
fn placement_json(cells: &[exp::PlacementCell]) -> String {
    let mut json = String::new();
    json.push_str("  \"placement_scenarios\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"placement\": \"{}\",\n", c.placement));
        json.push_str(&format!("      \"scheduler\": \"{}\",\n", c.scheduler));
        json.push_str(&format!("      \"faulted\": {},\n", c.faulted));
        json.push_str(&format!("      \"mean_jct\": {},\n", fmt_f64(c.mean_jct)));
        json.push_str(&format!(
            "      \"total_tardiness\": {},\n",
            fmt_f64(c.total_tardiness)
        ));
        json.push_str(&format!(
            "      \"p99_tardiness\": {},\n",
            fmt_f64(c.p99_tardiness)
        ));
        json.push_str(&format!(
            "      \"mean_pods_spanned\": {},\n",
            fmt_f64(c.mean_pods_spanned)
        ));
        json.push_str(&format!(
            "      \"max_pods_spanned\": {},\n",
            c.max_pods_spanned
        ));
        json.push_str(&format!(
            "      \"completion_digest\": \"{:016x}\",\n",
            c.digest
        ));
        json.push_str("      \"thread_invariant\": true\n");
        json.push_str(if i + 1 < cells.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  ]");
    json
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = std::env::args().any(|a| a == "--scale");
    let open_loop = std::env::args().any(|a| a == "--open-loop");
    let placement = std::env::args().any(|a| a == "--placement");
    if placement && smoke {
        // CI gate: the full placement × scheduler × fault cross-product
        // with the 1-vs-2-thread digest identity assertion. Writes
        // nothing.
        let cells = placement_cells_gated();
        for c in &cells {
            print_placement_cell(c);
        }
        println!("\nplacement sensitivity per scheduler (clean-run JCT spread):");
        for (scheduler, spread) in exp::codesign_interaction(&cells) {
            println!("  {scheduler:>8}: {spread:.3}");
        }
        println!(
            "\nplacement smoke ok ({} cells, 1-thread and 2-thread digests identical)",
            cells.len()
        );
        return;
    }
    if open_loop && smoke {
        // CI gate: the full load × scheduler grid streamed and replayed
        // on a short stream, the 2-thread sweep identity, and the
        // bounded-occupancy witness on a 2k-job stream. Writes nothing.
        for &load in &OPEN_LOOP_LOADS {
            for kind in OPEN_LOOP_SCHEDULERS {
                let r = run_open_loop(OPEN_LOOP_SMOKE_JOBS, load, kind);
                print_open_loop_row(&r);
            }
        }
        open_loop_sweep_gate(OPEN_LOOP_SMOKE_JOBS);
        let (groups, peak) = open_loop_occupancy(OPEN_LOOP_OCCUPANCY_JOBS);
        println!(
            "open-loop occupancy: {OPEN_LOOP_OCCUPANCY_JOBS} jobs, {groups} groups offered, peak book {peak}"
        );
        println!("\nopen-loop smoke ok (open and closed loops bit-identical)");
        return;
    }
    if scale && smoke {
        // CI gate: small fat-trees through the identical scale path,
        // each row's digest against the committed one, and the 2-thread
        // byte-identity digest assertion. Writes nothing.
        let specs = scale_smoke_specs();
        let committed = std::fs::read_to_string("BENCH_sched.json").ok();
        for spec in &specs {
            let (row, digest) = run_scale(spec);
            print_scale_row(&row);
            if let Err(e) = gate_smoke_row(&row, digest, committed.as_deref()) {
                panic!("{e}");
            }
        }
        scale_sweep_gate(&specs);
        println!("\nscale smoke ok");
        return;
    }
    let topo = Topology::big_switch_uniform(HOSTS, 2.0);
    let threads = sweep::configured_threads();

    println!(
        "{:<24} {:>5} {:>7} {:>8} {:>12} {:>12} {:>8} {:>6}",
        "scheduler", "jobs", "flows", "events", "full ev/s", "incr ev/s", "speedup", "link%"
    );

    if smoke {
        // One small scenario per family: the trace-identity assertions
        // inside the bench helpers are the gate; nothing is written.
        let sc = scenario(JOB_COUNTS[0]);
        for r in static_results(&sc, &topo) {
            print_row(&r, sc.jobs, sc.demands.len());
        }
        let ds = dyn_scenario(DYNAMIC_JOB_COUNTS[0]);
        for r in dyn_results(&ds) {
            print_row(&r, ds.jobs, ds.flows);
        }
        smoke_horizon_gate(&ds);
        smoke_fault_gate(&ds);
        // Sweep-engine gate: a 2-worker sweep over the smallest static
        // scenario must merge byte-identically to the serial sweep.
        sweep_gate(2, &topo, &JOB_COUNTS[..1]);
        println!("sweep gate: 1-thread and 2-thread digests identical");
        println!("\nsmoke ok (traces bit-identical across modes)");
        return;
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"sched\",\n");
    json.push_str(&format!(
        "  \"topology\": \"big_switch_uniform({HOSTS})\",\n"
    ));
    json.push_str(&format!("  \"flows_per_job\": {FLOWS_PER_JOB},\n"));
    json.push_str(&format!("  \"repeats\": {REPEATS},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str("  \"scenarios\": [\n");

    for (si, &jobs) in JOB_COUNTS.iter().enumerate() {
        let wall = Instant::now();
        let sc = scenario(jobs);

        // Mean concurrency is a property of the workload + a scheduler;
        // report it under the reference (EchelonMadd full) run.
        let mut ech_ref: Box<dyn RatePolicy> = Box::new(EchelonMadd::new(sc.echelons.clone()));
        let ref_out = run_flows_with(
            &topo,
            sc.demands.clone(),
            ech_ref.as_mut(),
            RecomputeMode::Full,
        );
        let active = mean_active_flows(&ref_out);

        let results = static_results(&sc, &topo);
        let wall_secs = wall.elapsed().as_secs_f64();

        json.push_str("    {\n");
        json.push_str(&format!("      \"jobs\": {jobs},\n"));
        json.push_str(&format!("      \"flows\": {},\n", sc.demands.len()));
        json.push_str(&format!(
            "      \"mean_active_flows\": {},\n",
            fmt_f64(active)
        ));
        json.push_str(&format!("      \"wall_secs\": {},\n", fmt_f64(wall_secs)));
        for r in &results {
            print_row(r, jobs, sc.demands.len());
        }
        scheduler_json(&mut json, &results);
        json.push_str(if si + 1 < JOB_COUNTS.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  ],\n");

    // Dynamic scenarios: the job runtime computes releases on the fly, so
    // the event stream the schedulers see is driven by the DAG cascade.
    json.push_str(&format!(
        "  \"dynamic_iterations\": {DYNAMIC_ITERATIONS},\n"
    ));
    json.push_str("  \"dynamic_scenarios\": [\n");
    println!();
    for (si, &jobs) in DYNAMIC_JOB_COUNTS.iter().enumerate() {
        let wall = Instant::now();
        let ds = dyn_scenario(jobs);
        let results = dyn_results(&ds);
        let wall_secs = wall.elapsed().as_secs_f64();

        json.push_str("    {\n");
        json.push_str(&format!("      \"jobs\": {jobs},\n"));
        json.push_str(&format!("      \"hosts\": {},\n", ds.hosts));
        json.push_str(&format!("      \"flows\": {},\n", ds.flows));
        json.push_str(&format!("      \"wall_secs\": {},\n", fmt_f64(wall_secs)));
        for r in &results {
            print_row(r, jobs, ds.flows);
        }
        scheduler_json(&mut json, &results);
        json.push_str(if si + 1 < DYNAMIC_JOB_COUNTS.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  ],\n");

    // Faulted dynamic scenarios: the same workloads under seeded capacity
    // churn (link flaps, degradation, coordinator outage, straggler).
    // Fault handling rides the incremental path, so its speedup should
    // survive churn; the assertion inside `bench_dyn_faulted` guarantees
    // the number comes from a bit-identical schedule.
    json.push_str("  \"faulted_dynamic_scenarios\": [\n");
    println!();
    for (si, &jobs) in DYNAMIC_JOB_COUNTS.iter().enumerate() {
        let wall = Instant::now();
        let ds = dyn_scenario(jobs);
        let results = [
            bench_dyn_faulted(&ds, "echelon-madd+churn", Grouping::Echelon),
            bench_dyn_faulted(&ds, "varys-madd+churn", Grouping::Coflow),
        ];
        let wall_secs = wall.elapsed().as_secs_f64();

        json.push_str("    {\n");
        json.push_str(&format!("      \"jobs\": {jobs},\n"));
        json.push_str(&format!("      \"hosts\": {},\n", ds.hosts));
        json.push_str(&format!("      \"flows\": {},\n", ds.flows));
        json.push_str(&format!(
            "      \"fault_events\": {},\n",
            fault_plan_for(&ds).len()
        ));
        json.push_str(&format!("      \"wall_secs\": {},\n", fmt_f64(wall_secs)));
        for r in &results {
            print_row(r, jobs, ds.flows);
        }
        scheduler_json(&mut json, &results);
        json.push_str(if si + 1 < DYNAMIC_JOB_COUNTS.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    json.push_str("  ],\n");

    // Sweep engine: the whole static grid (jobs × scheduler) fanned out
    // across worker threads, digest asserted byte-identical to serial.
    // Scaling is hardware-dependent; wall times are recorded as measured
    // on this machine.
    let grid_threads = threads.max(2);
    let (serial_secs, parallel_secs) = sweep_gate(grid_threads, &topo, &JOB_COUNTS);
    println!(
        "\nsweep: {} tasks, serial {serial_secs:.3}s vs {grid_threads}-thread {parallel_secs:.3}s, digests identical",
        JOB_COUNTS.len() * 2
    );
    json.push_str("  \"sweep\": {\n");
    json.push_str(&format!("    \"tasks\": {},\n", JOB_COUNTS.len() * 2));
    json.push_str(&format!("    \"threads\": {grid_threads},\n"));
    json.push_str(&format!("    \"serial_secs\": {},\n", fmt_f64(serial_secs)));
    json.push_str(&format!(
        "    \"parallel_secs\": {},\n",
        fmt_f64(parallel_secs)
    ));
    json.push_str("    \"identical\": true\n");
    json.push_str("  }");

    // Open-loop service tier: streaming Poisson arrivals through the
    // admission gate at three offered loads, every row double-run as a
    // materialized replay with the digests asserted identical, plus the
    // bounded-memory witness on a 2k-job stream.
    println!();
    let mut ol_rows = Vec::new();
    for &load in &OPEN_LOOP_LOADS {
        for kind in OPEN_LOOP_SCHEDULERS {
            let r = run_open_loop(OPEN_LOOP_JOBS, load, kind);
            print_open_loop_row(&r);
            ol_rows.push(r);
        }
    }
    let (groups, peak) = open_loop_occupancy(OPEN_LOOP_OCCUPANCY_JOBS);
    println!(
        "open-loop occupancy: {OPEN_LOOP_OCCUPANCY_JOBS} jobs, {groups} groups offered, peak book {peak}"
    );
    json.push_str(",\n");
    json.push_str(&open_loop_json(
        &ol_rows,
        (OPEN_LOOP_OCCUPANCY_JOBS, groups, peak),
    ));

    // Scale tier: fat-tree fabrics under the pod-decomposed waterfill,
    // traced-off drive config, completion digests as the identity
    // witness. Only run when asked — the k=16 row alone is ~10⁴
    // concurrent flows.
    if scale {
        println!();
        let rows: Vec<(ScaleRow, u64)> = scale_specs()
            .iter()
            .map(|spec| {
                let r = run_scale(spec);
                print_scale_row(&r.0);
                r
            })
            .collect();
        json.push_str(",\n");
        json.push_str(&scale_json(&rows));
        // Committed baselines for the CI smoke throughput gate: the same
        // smoke rows `--scale --smoke` runs, recorded from this box.
        let smoke_rows: Vec<(ScaleRow, u64)> = scale_smoke_specs()
            .iter()
            .map(|spec| {
                let r = run_scale(spec);
                print_scale_row(&r.0);
                r
            })
            .collect();
        json.push_str(",\n");
        json.push_str(&scale_smoke_json(&smoke_rows));
    }

    // Placement co-design tier: the E18 cross-product with per-cell
    // digests pinned by the 1-vs-2-thread sweep gate.
    if placement {
        println!();
        let cells = placement_cells_gated();
        for c in &cells {
            print_placement_cell(c);
        }
        println!("placement gate: 1-thread and 2-thread per-cell digests identical");
        json.push_str(",\n");
        json.push_str(&placement_json(&cells));
    }
    json.push_str("\n}\n");

    std::fs::write("BENCH_sched.json", &json).expect("write BENCH_sched.json");
    println!("\nwrote BENCH_sched.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_row(eps: f64) -> ScaleRow {
        ScaleRow {
            label: "k8-smoke-burst",
            k: 8,
            hosts: 128,
            pods: 8,
            flows: 480,
            events: 960,
            eps,
            wall_secs: 0.01,
            peak_active: 480,
            arena_capacity: 480,
            pod_frac: 0.125,
            alloc_batches: 960,
            batched_events: 0,
            phase: PhaseTimings::default(),
        }
    }

    /// The smoke gate fails on a digest that differs from the committed
    /// one, and on a missing pin, but only warns on a throughput drop.
    #[test]
    fn smoke_gate_checks_the_committed_digest() {
        let committed = format!(
            "{{\n{}\n}}\n",
            scale_smoke_json(&[(smoke_row(90_000.0), 0x1cfd_c921_57f7_5eda)])
        );
        let slow = smoke_row(1.0);
        assert_eq!(
            gate_smoke_row(&slow, 0x1cfd_c921_57f7_5eda, Some(&committed)),
            Ok(())
        );
        let err = gate_smoke_row(&slow, 0x1cfd_c921_57f7_5edb, Some(&committed)).unwrap_err();
        assert!(err.contains("1cfdc92157f75eda"), "{err}");
        assert!(gate_smoke_row(&slow, 0x1cfd_c921_57f7_5eda, None).is_err());
        let other = ScaleRow {
            label: "k8-smoke-spread",
            ..smoke_row(90_000.0)
        };
        assert!(gate_smoke_row(&other, 0x1cfd_c921_57f7_5eda, Some(&committed)).is_err());
    }
}
