//! The experiment implementations, one function per paper artifact.
//!
//! See `DESIGN.md` §4 for the experiment index (E1-E11) and
//! `EXPERIMENTS.md` for paper-vs-measured records.

use echelon_agent::agent::EchelonAgent;
use echelon_agent::coordinator::{Coordinator, CoordinatorConfig};
use echelon_agent::enforce::{QueueConfig, QueueEnforcedPolicy};
use echelon_cluster::metrics::ScenarioMetrics;
use echelon_cluster::placement::PlacementPolicy;
use echelon_cluster::scenario::{Scenario, SchedulerKind};
use echelon_cluster::workload::WorkloadConfig;
use echelon_core::arrangement::ArrangementFn;
use echelon_core::echelon::{EchelonFlow, FlowRef};
use echelon_core::{EchelonId, JobId};
use echelon_paradigms::config::{DpConfig, FsdpConfig, PpConfig, TpConfig};
use echelon_paradigms::dag::{CompKind, JobDag};
use echelon_paradigms::dp::{build_dp_allreduce, build_dp_ps};
use echelon_paradigms::fsdp::build_fsdp;
use echelon_paradigms::ids::IdAlloc;
use echelon_paradigms::pp::build_pp_gpipe;
use echelon_paradigms::profiler::profile_gaps;
use echelon_paradigms::runtime::{run_jobs, RunResult};
use echelon_paradigms::tp::build_tp;
use echelon_sched::echelon::{EchelonMadd, IntraMode};
use echelon_sched::optimal::{optimal_schedule, Objective};
use echelon_simnet::fault::FaultPlan;
use echelon_simnet::flow::FlowDemand;
use echelon_simnet::ids::{FlowId, NodeId};
use echelon_simnet::runner::{run_flows, MaxMinPolicy, RunConfig};
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// Finish time of the forward phase on the consuming stage of a 2-stage
/// pipeline (the quantity Fig. 2 annotates).
fn forward_finish(out: &RunResult) -> f64 {
    out.timeline_of(NodeId(1))
        .iter()
        .filter(|e| e.kind == CompKind::Forward)
        .map(|e| e.end.secs())
        .fold(0.0, f64::max)
}

fn fig2_dag() -> JobDag {
    let mut alloc = IdAlloc::new();
    build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut alloc)
}

// ---------------------------------------------------------------- E1 --

/// E1 / Fig. 2 — comp finish times and per-flow finishes under the three
/// schedulers.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// `(scheduler, comp finish, [flow finish; 3])` rows.
    pub rows: Vec<(&'static str, f64, Vec<f64>)>,
}

/// Runs E1.
pub fn fig2() -> Fig2Result {
    let topo = Topology::chain(2, 1.0);
    let config = RunConfig::default();
    let mut rows = Vec::new();
    let runs = [
        ("fair-sharing", SchedulerKind::Fair),
        ("coflow", SchedulerKind::Coflow),
        ("echelonflow", SchedulerKind::Echelon),
    ];
    for (name, kind) in runs {
        let dag = fig2_dag();
        let out = run_jobs(&topo, &[&dag], kind.policy(&[&dag]).as_mut(), &config);
        // The three forward activation flows, in release order.
        let mut releases: Vec<(SimTime, FlowId)> =
            out.flow_releases.iter().map(|(&id, &t)| (t, id)).collect();
        releases.sort();
        let finishes: Vec<f64> = releases
            .into_iter()
            .take(3)
            .map(|(_, id)| out.flow_finishes[&id].secs())
            .collect();
        rows.push((name, forward_finish(&out), finishes));
    }
    Fig2Result { rows }
}

/// One flow's piecewise-constant rate breakpoints.
pub type RateSeries = Vec<(SimTime, f64)>;

/// E1 supplement — the piecewise-constant rate series of the three
/// forward flows under each scheduler (what Fig. 2 actually plots).
pub fn fig2_rate_series() -> Vec<(&'static str, Vec<(FlowId, RateSeries)>)> {
    let topo = Topology::chain(2, 1.0);
    let config = RunConfig::default();
    let mut out = Vec::new();
    let runs = [
        ("fair-sharing", SchedulerKind::Fair),
        ("coflow", SchedulerKind::Coflow),
        ("echelonflow", SchedulerKind::Echelon),
    ];
    for (name, kind) in runs {
        let dag = fig2_dag();
        let run = run_jobs(&topo, &[&dag], kind.policy(&[&dag]).as_mut(), &config);
        let mut releases: Vec<(SimTime, FlowId)> =
            run.flow_releases.iter().map(|(&id, &t)| (t, id)).collect();
        releases.sort();
        let series = releases
            .into_iter()
            .take(3)
            .map(|(_, id)| (id, run.trace.rate_series(id)))
            .collect();
        out.push((name, series));
    }
    out
}

// ---------------------------------------------------------------- E2 --

/// E2 / Table 1 — one row per paradigm.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Paradigm name as in the paper.
    pub paradigm: &'static str,
    /// Whether the declared EchelonFlows are all Coflow-compliant.
    pub coflow_compliant: bool,
    /// The paper's arrangement description.
    pub arrangement: &'static str,
    /// Comp finish under Coflow scheduling.
    pub coflow_time: f64,
    /// Comp finish under EchelonFlow scheduling.
    pub echelon_time: f64,
}

fn table1_fsdp_dag() -> JobDag {
    let mut alloc = IdAlloc::new();
    build_fsdp(
        JobId(0),
        &FsdpConfig {
            placement: vec![NodeId(0), NodeId(1)],
            layers: 3,
            shard_bytes: 1.0,
            layer_shard_bytes: Some(vec![3.0, 2.0, 1.0]),
            fwd_time_per_layer: 1.0,
            bwd_time_per_layer: 1.0,
            iterations: 1,
        },
        &mut alloc,
    )
}

/// Runs E2: builds each paradigm, reads off its declared arrangement, and
/// measures both schedulers.
pub fn table1() -> Vec<Table1Row> {
    let config = RunConfig::default();
    let mut rows = Vec::new();
    let cases: Vec<(&'static str, &'static str, JobDag, Topology)> = vec![
        (
            "DP - AllReduce",
            "same flow finish time",
            {
                let mut alloc = IdAlloc::new();
                build_dp_allreduce(
                    JobId(0),
                    &DpConfig {
                        placement: vec![NodeId(0), NodeId(1), NodeId(2)],
                        ps: None,
                        bucket_bytes: vec![3.0, 3.0],
                        fwd_time: 1.0,
                        bwd_time_per_bucket: 0.5,
                        iterations: 1,
                    },
                    &mut alloc,
                )
            },
            Topology::big_switch_uniform(3, 1.0),
        ),
        (
            "DP - PS",
            "same flow finish time",
            {
                let mut alloc = IdAlloc::new();
                build_dp_ps(
                    JobId(0),
                    &DpConfig {
                        placement: vec![NodeId(0), NodeId(1)],
                        ps: Some(NodeId(2)),
                        bucket_bytes: vec![2.0, 2.0],
                        fwd_time: 1.0,
                        bwd_time_per_bucket: 0.5,
                        iterations: 1,
                    },
                    &mut alloc,
                )
            },
            Topology::big_switch_uniform(3, 1.0),
        ),
        (
            "PP",
            "staggered flow finish time",
            fig2_dag(),
            Topology::chain(2, 1.0),
        ),
        (
            "TP",
            "same flow finish time",
            {
                let mut alloc = IdAlloc::new();
                build_tp(
                    JobId(0),
                    &TpConfig {
                        placement: vec![NodeId(0), NodeId(1)],
                        layers: 2,
                        fwd_time_per_layer: 1.0,
                        bwd_time_per_layer: 1.0,
                        activation_bytes: 2.0,
                        iterations: 1,
                    },
                    &mut alloc,
                )
            },
            Topology::big_switch_uniform(2, 1.0),
        ),
        (
            "FSDP",
            "staggered Coflow finish time",
            table1_fsdp_dag(),
            Topology::big_switch_uniform(2, 1.0),
        ),
    ];

    for (paradigm, arrangement, dag, topo) in cases {
        let compliant = dag.echelons.iter().all(|h| h.is_coflow_compliant());
        let finish = |kind: SchedulerKind| {
            let out = run_jobs(&topo, &[&dag], kind.policy(&[&dag]).as_mut(), &config);
            out.comp_finish_time().secs()
        };
        let coflow_time = finish(SchedulerKind::Coflow);
        let echelon_time = finish(SchedulerKind::Echelon);
        rows.push(Table1Row {
            paradigm,
            coflow_compliant: compliant,
            arrangement,
            coflow_time,
            echelon_time,
        });
    }
    rows
}

// ---------------------------------------------------------------- E3 --

/// E3 / Fig. 1a — the GPipe worker timeline and per-worker idleness
/// under a chosen scheduler. `activation_bytes = 1.0` reproduces the
/// paper's figure (transfers fit in the compute gaps; the idle areas are
/// the inherent pipeline bubbles); `activation_bytes > 1.0` makes
/// transfers slower than compute, where the scheduler changes the
/// bubbles.
pub fn fig1_timeline(kind: SchedulerKind, activation_bytes: f64) -> RunResult {
    // Fig. 1's shape: 4 stages, 4 micro-batches.
    let mut alloc = IdAlloc::new();
    let dag = build_pp_gpipe(
        JobId(0),
        &PpConfig {
            placement: (0..4).map(NodeId).collect(),
            micro_batches: 4,
            fwd_time: 1.0,
            bwd_time: 1.0,
            activation_bytes,
            iterations: 1,
        },
        &mut alloc,
    );
    let topo = Topology::chain(4, 1.0);
    let config = RunConfig::default();
    run_jobs(&topo, &[&dag], kind.policy(&[&dag]).as_mut(), &config)
}

// ---------------------------------------------------------------- E4 --

/// E4 / Fig. 6b — reference-time recalibration: per-flow
/// `(label, start, ideal finish, actual finish, tardiness)` rows for an
/// EchelonFlow whose later flows start late.
pub fn fig6_trace() -> Vec<(String, f64, f64, f64, f64)> {
    // Pipeline-shaped EchelonFlow, T = 1; f1 and f2 start late (2.5 and
    // 3.5 instead of 1 and 2) because "previous flows were delayed".
    let flows = vec![
        FlowRef::new(FlowId(0), NodeId(0), NodeId(1), 1.0),
        FlowRef::new(FlowId(1), NodeId(0), NodeId(1), 1.0),
        FlowRef::new(FlowId(2), NodeId(0), NodeId(1), 1.0),
    ];
    let h = EchelonFlow::from_flows(
        EchelonId(0),
        JobId(0),
        flows.clone(),
        ArrangementFn::Staggered { gap: 1.0 },
    );
    let demands = vec![
        FlowDemand::new(FlowId(0), NodeId(0), NodeId(1), 1.0, SimTime::new(0.0)),
        FlowDemand::new(FlowId(1), NodeId(0), NodeId(1), 1.0, SimTime::new(2.5)),
        FlowDemand::new(FlowId(2), NodeId(0), NodeId(1), 1.0, SimTime::new(3.5)),
    ];
    let topo = Topology::chain(2, 1.0);
    let mut policy = EchelonMadd::new(vec![h.clone()]);
    let out = run_flows(&topo, demands.clone(), &mut policy, &RunConfig::default());

    let mut bound = h;
    bound.bind_reference(SimTime::ZERO);
    demands
        .iter()
        .enumerate()
        .map(|(j, d)| {
            let ideal = bound.ideal_finish_of_stage(j).secs();
            let actual = out.finish(d.id).unwrap().secs();
            (
                format!("f{j}"),
                d.release.secs(),
                ideal,
                actual,
                actual - ideal,
            )
        })
        .collect()
}

// ---------------------------------------------------------------- E5 --

/// E5 / Figs. 3-5 — per-paradigm workflow summary: the collective
/// sequence and iteration times under the three schedulers.
#[derive(Debug, Clone)]
pub struct WorkflowRow {
    /// Paradigm name.
    pub paradigm: &'static str,
    /// The comm-op sequence (names in id order, deduplicated runs).
    pub ops: String,
    /// Iteration time under fair sharing.
    pub fair: f64,
    /// Iteration time under Coflow scheduling.
    pub coflow: f64,
    /// Iteration time under EchelonFlow scheduling.
    pub echelon: f64,
}

/// Runs E5.
pub fn workflows() -> Vec<WorkflowRow> {
    let config = RunConfig::default();
    let cases: Vec<(&'static str, JobDag, Topology)> = vec![
        (
            "DP-AllReduce (Fig. 4a)",
            {
                let mut alloc = IdAlloc::new();
                build_dp_allreduce(
                    JobId(0),
                    &DpConfig {
                        placement: vec![NodeId(0), NodeId(1), NodeId(2)],
                        ps: None,
                        bucket_bytes: vec![3.0, 3.0],
                        fwd_time: 1.0,
                        bwd_time_per_bucket: 0.5,
                        iterations: 1,
                    },
                    &mut alloc,
                )
            },
            Topology::big_switch_uniform(3, 1.0),
        ),
        (
            "TP (Fig. 5)",
            {
                let mut alloc = IdAlloc::new();
                build_tp(
                    JobId(0),
                    &TpConfig {
                        placement: vec![NodeId(0), NodeId(1)],
                        layers: 2,
                        fwd_time_per_layer: 1.0,
                        bwd_time_per_layer: 1.0,
                        activation_bytes: 2.0,
                        iterations: 1,
                    },
                    &mut alloc,
                )
            },
            Topology::big_switch_uniform(2, 1.0),
        ),
        (
            "FSDP (Fig. 3)",
            table1_fsdp_dag(),
            Topology::big_switch_uniform(2, 1.0),
        ),
    ];

    let mut rows = Vec::new();
    for (paradigm, dag, topo) in cases {
        // Comm-op sequence with run-length compression.
        let mut ops = String::new();
        let mut last: Option<(&str, usize)> = None;
        for c in dag.comms.values() {
            match &mut last {
                Some((name, count)) if *name == c.name => *count += 1,
                _ => {
                    if let Some((name, count)) = last.take() {
                        ops.push_str(&format!("{name}x{count} → "));
                    }
                    last = Some((c.name, 1));
                }
            }
        }
        if let Some((name, count)) = last {
            ops.push_str(&format!("{name}x{count}"));
        }

        let finish = |kind: SchedulerKind| {
            let out = run_jobs(&topo, &[&dag], kind.policy(&[&dag]).as_mut(), &config);
            out.comp_finish_time().secs()
        };
        let fair = finish(SchedulerKind::Fair);
        let coflow = finish(SchedulerKind::Coflow);
        let echelon = finish(SchedulerKind::Echelon);
        rows.push(WorkflowRow {
            paradigm,
            ops,
            fair,
            coflow,
            echelon,
        });
    }
    rows
}

// ---------------------------------------------------------------- E6 --

/// E6 / Property 1 — `(instance, echelon value, optimal value)` rows.
pub fn prop1() -> Vec<(&'static str, f64, f64)> {
    let mut rows = Vec::new();

    // Pipeline instance (Fig. 2), objective: max tardiness.
    {
        let topo = Topology::chain(2, 1.0);
        let demands = vec![
            FlowDemand::new(FlowId(0), NodeId(0), NodeId(1), 2.0, SimTime::new(1.0)),
            FlowDemand::new(FlowId(1), NodeId(0), NodeId(1), 2.0, SimTime::new(2.0)),
            FlowDemand::new(FlowId(2), NodeId(0), NodeId(1), 2.0, SimTime::new(3.0)),
        ];
        let deadlines: BTreeMap<FlowId, SimTime> = [(0u64, 1.0), (1, 2.0), (2, 3.0)]
            .into_iter()
            .map(|(i, t)| (FlowId(i), SimTime::new(t)))
            .collect();
        let best = optimal_schedule(&topo, &demands, &Objective::MaxTardiness(deadlines.clone()));
        let h = EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            vec![
                FlowRef::new(FlowId(0), NodeId(0), NodeId(1), 2.0),
                FlowRef::new(FlowId(1), NodeId(0), NodeId(1), 2.0),
                FlowRef::new(FlowId(2), NodeId(0), NodeId(1), 2.0),
            ],
            ArrangementFn::Staggered { gap: 1.0 },
        );
        let mut policy = EchelonMadd::new(vec![h]);
        let out = run_flows(&topo, demands, &mut policy, &RunConfig::default());
        let achieved = deadlines
            .iter()
            .map(|(id, d)| out.finish(*id).unwrap() - *d)
            .fold(f64::NEG_INFINITY, f64::max);
        rows.push(("PP / max tardiness", achieved, best.best_value));
    }

    // Coflow instance (DP gradient star), objective: makespan.
    {
        let topo = Topology::big_switch_uniform(4, 1.0);
        let demands = vec![
            FlowDemand::new(FlowId(0), NodeId(0), NodeId(3), 1.5, SimTime::ZERO),
            FlowDemand::new(FlowId(1), NodeId(1), NodeId(3), 1.0, SimTime::ZERO),
            FlowDemand::new(FlowId(2), NodeId(2), NodeId(3), 0.5, SimTime::ZERO),
        ];
        let best = optimal_schedule(&topo, &demands, &Objective::Makespan);
        let h = EchelonFlow::new(
            EchelonId(0),
            JobId(0),
            vec![vec![
                FlowRef::new(FlowId(0), NodeId(0), NodeId(3), 1.5),
                FlowRef::new(FlowId(1), NodeId(1), NodeId(3), 1.0),
                FlowRef::new(FlowId(2), NodeId(2), NodeId(3), 0.5),
            ]],
            ArrangementFn::Coflow,
        );
        let mut policy = EchelonMadd::new(vec![h]);
        let out = run_flows(&topo, demands, &mut policy, &RunConfig::default());
        rows.push(("DP / makespan", out.makespan().secs(), best.best_value));
    }

    // FSDP-ish chained stages on one link, objective: max tardiness.
    {
        let topo = Topology::chain(2, 1.0);
        let demands: Vec<FlowDemand> = (0..4)
            .map(|i| {
                FlowDemand::new(
                    FlowId(i),
                    NodeId(0),
                    NodeId(1),
                    1.0,
                    SimTime::new(0.2 * i as f64),
                )
            })
            .collect();
        let deadlines: BTreeMap<FlowId, SimTime> = (0..4)
            .map(|i| (FlowId(i), SimTime::new(0.5 * i as f64)))
            .collect();
        let best = optimal_schedule(&topo, &demands, &Objective::MaxTardiness(deadlines.clone()));
        let h = EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            (0..4)
                .map(|i| FlowRef::new(FlowId(i), NodeId(0), NodeId(1), 1.0))
                .collect(),
            ArrangementFn::Staggered { gap: 0.5 },
        );
        let mut policy = EchelonMadd::new(vec![h]);
        let out = run_flows(&topo, demands, &mut policy, &RunConfig::default());
        let achieved = deadlines
            .iter()
            .map(|(id, d)| out.finish(*id).unwrap() - *d)
            .fold(f64::NEG_INFINITY, f64::max);
        rows.push(("FSDP / max tardiness", achieved, best.best_value));
    }

    rows
}

// --------------------------------------------------------------- E10 --

/// E10 — the multi-tenant comparison: `(scheduler, metrics)` per policy.
pub fn multijob(
    seed: u64,
    jobs: usize,
    hosts: usize,
    scattered: bool,
) -> Vec<(&'static str, ScenarioMetrics)> {
    let mut cfg = WorkloadConfig::default_mix(seed, jobs, hosts);
    if scattered {
        cfg.placement = PlacementPolicy::Scattered {
            seed: seed ^ 0xDEAD,
        };
    }
    let scenario = Scenario::generate(&cfg);
    SchedulerKind::ALL
        .iter()
        .map(|&k| (k.name(), scenario.run(k, &FaultPlan::empty()).1))
        .collect()
}

/// E10 supplement — the multi-tenant comparison across many seeds:
/// per scheduler, mean total tardiness, mean JCT, and the number of
/// seeds on which it achieved the (possibly tied) best tardiness.
pub fn multijob_sweep(
    seeds: &[u64],
    jobs: usize,
    hosts: usize,
) -> Vec<(&'static str, f64, f64, usize)> {
    use echelon_sched::echelon::InterOrder;
    let mut names: Vec<&'static str> = SchedulerKind::ALL.iter().map(|k| k.name()).collect();
    names.push("echelon(least-work)");
    let mut tardiness = vec![Vec::new(); names.len()];
    let mut jct = vec![Vec::new(); names.len()];
    let mut wins = vec![0usize; names.len()];
    // Seeds are independent runs: fan them out across worker threads and
    // merge in seed order, so the aggregation below sums floats in the
    // exact order the serial loop did — bit-identical output.
    let per_seed_rows = echelon_simnet::sweep::sweep(seeds, |_, &seed| {
        let mut cfg = WorkloadConfig::default_mix(seed, jobs, hosts);
        cfg.placement = PlacementPolicy::Scattered {
            seed: seed ^ 0xDEAD,
        };
        let scenario = Scenario::generate(&cfg);
        let mut per_seed: Vec<(f64, f64)> = SchedulerKind::ALL
            .iter()
            .map(|&k| {
                let (_, m) = scenario.run(k, &FaultPlan::empty());
                (m.total_tardiness, m.mean_jct)
            })
            .collect();
        let echelons: Vec<EchelonFlow> = scenario
            .jobs
            .iter()
            .flat_map(|j| j.dag.echelons.iter().cloned())
            .collect();
        let mut lw = EchelonMadd::new(echelons).with_inter(InterOrder::LeastWork);
        let (_, m) = scenario.run_with(&mut lw, &FaultPlan::empty());
        per_seed.push((m.total_tardiness, m.mean_jct));
        per_seed
    });
    for per_seed in per_seed_rows {
        let best = per_seed
            .iter()
            .map(|&(t, _)| t)
            .fold(f64::INFINITY, f64::min);
        for (i, &(t, j)) in per_seed.iter().enumerate() {
            tardiness[i].push(t);
            jct[i].push(j);
            if t <= best + 1e-9 {
                wins[i] += 1;
            }
        }
    }
    names
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            let mt = tardiness[i].iter().sum::<f64>() / tardiness[i].len() as f64;
            let mj = jct[i].iter().sum::<f64>() / jct[i].len() as f64;
            (n, mt, mj, wins[i])
        })
        .collect()
}

// --------------------------------------------------------------- E11 --

/// E11a — profiling-error sensitivity: the Fig. 2 job scheduled with a
/// mis-profiled arrangement gap. Returns `(error, comp finish)` rows.
pub fn ablation_profile_error() -> Vec<(f64, f64)> {
    let topo = Topology::chain(2, 1.0);
    let mut rows = Vec::new();
    for err in [-0.5, -0.25, 0.0, 0.25, 0.5, 1.0] {
        let dag = fig2_dag();
        // Re-declare every EchelonFlow with the perturbed gap.
        let echelons: Vec<EchelonFlow> = dag
            .echelons
            .iter()
            .map(|h| scale_arrangement(h, 1.0 + err))
            .collect();
        let mut policy = EchelonMadd::new(echelons);
        let out = run_jobs(&topo, &[&dag], &mut policy, &RunConfig::default());
        rows.push((err, forward_finish(&out)));
    }
    rows
}

/// Rebuilds an EchelonFlow with its arrangement distances scaled.
fn scale_arrangement(h: &EchelonFlow, factor: f64) -> EchelonFlow {
    let stages: Vec<Vec<FlowRef>> = (0..h.num_stages()).map(|j| h.stage(j).to_vec()).collect();
    let arrangement = match h.arrangement() {
        ArrangementFn::Coflow => ArrangementFn::Coflow,
        ArrangementFn::Staggered { gap } => ArrangementFn::Staggered { gap: gap * factor },
        ArrangementFn::Phased {
            fwd_gap,
            bwd_gap,
            fwd_count,
        } => ArrangementFn::Phased {
            fwd_gap: fwd_gap * factor,
            bwd_gap: bwd_gap * factor,
            fwd_count: *fwd_count,
        },
        ArrangementFn::Offsets(offs) => {
            ArrangementFn::from_offsets(offs.iter().map(|o| o * factor).collect())
        }
    };
    EchelonFlow::new(h.id(), h.job(), stages, arrangement).with_weight(h.weight())
}

/// E11b — coordinator scheduling interval: `(interval, decisions, mean
/// JCT)` rows over a small multi-job scenario.
pub fn ablation_interval(seed: u64) -> Vec<(String, usize, f64)> {
    use echelon_agent::coordinator::Trigger;
    let cfg = WorkloadConfig::default_mix(seed, 4, 24);
    let scenario = Scenario::generate(&cfg);
    let mut rows = Vec::new();
    let triggers = [
        ("per-event".to_string(), Trigger::PerEvent),
        ("per-EchelonFlow".to_string(), Trigger::PerGroupChange),
        ("1s".to_string(), Trigger::Interval(1.0)),
        ("2s".to_string(), Trigger::Interval(2.0)),
        ("5s".to_string(), Trigger::Interval(5.0)),
        ("10s".to_string(), Trigger::Interval(10.0)),
    ];
    for (label, trigger) in triggers {
        let mut coordinator = Coordinator::new(CoordinatorConfig {
            trigger,
            ..CoordinatorConfig::default()
        });
        for j in &scenario.jobs {
            EchelonAgent::from_dag(&j.dag).report_to(&mut coordinator);
        }
        let mut policy = coordinator.into_policy();
        let (_, m) = scenario.run_with(&mut policy, &FaultPlan::empty());
        rows.push((label, policy.decisions_computed(), m.mean_jct));
    }
    rows
}

/// E11c — intra-EchelonFlow discipline: finish-early (EDD) versus
/// equalize (literal MADD shaping), on Fig. 2 + multi-job tardiness.
pub fn ablation_intra(seed: u64) -> Vec<(&'static str, f64, f64)> {
    let topo = Topology::chain(2, 1.0);
    let config = RunConfig::default();
    let mut rows = Vec::new();
    for (name, intra) in [
        ("finish-early", IntraMode::FinishEarly),
        ("equalize", IntraMode::Equalize),
    ] {
        let dag = fig2_dag();
        let mut policy = EchelonMadd::new(dag.echelons.clone())
            .with_intra(intra)
            .with_backfill(intra == IntraMode::FinishEarly);
        let fig2 = forward_finish(&run_jobs(&topo, &[&dag], &mut policy, &config));

        let cfg = WorkloadConfig::default_mix(seed, 4, 24);
        let scenario = Scenario::generate(&cfg);
        let dags: Vec<&_> = scenario.jobs.iter().map(|j| &j.dag).collect();
        let echelons: Vec<EchelonFlow> = dags
            .iter()
            .flat_map(|d| d.echelons.iter().cloned())
            .collect();
        let mut policy = EchelonMadd::new(echelons)
            .with_intra(intra)
            .with_backfill(intra == IntraMode::FinishEarly);
        let (_, m) = scenario.run_with(&mut policy, &FaultPlan::empty());
        rows.push((name, fig2, m.total_tardiness));
    }
    rows
}

/// E11d — work-conserving backfill on/off: `(setting, mean JCT, total
/// tardiness)` on a multi-job scenario.
pub fn ablation_backfill(seed: u64) -> Vec<(&'static str, f64, f64)> {
    let cfg = WorkloadConfig::default_mix(seed, 4, 24);
    let scenario = Scenario::generate(&cfg);
    let dags: Vec<&_> = scenario.jobs.iter().map(|j| &j.dag).collect();
    let echelons = || -> Vec<EchelonFlow> {
        dags.iter()
            .flat_map(|d| d.echelons.iter().cloned())
            .collect()
    };
    let mut rows = Vec::new();
    for (name, backfill) in [("backfill-on", true), ("backfill-off", false)] {
        let mut policy = EchelonMadd::new(echelons()).with_backfill(backfill);
        let (_, m) = scenario.run_with(&mut policy, &FaultPlan::empty());
        rows.push((name, m.mean_jct, m.total_tardiness));
    }
    rows
}

/// An ordering's count of sweep seeds where it is best or tied for best,
/// and where it is strictly best.
type SweepCounts = (&'static str, usize, usize);

/// E11f — inter-EchelonFlow ordering: total tardiness per ordering on a
/// multi-job scenario at `seed`, with Coflow scheduling as reference, and
/// over the `sweep` seeds each ordering's (reference excluded) best-or-tied
/// and strictly-best counts.
pub fn ablation_inter_order(
    seed: u64,
    sweep: RangeInclusive<u64>,
) -> (Vec<(&'static str, f64)>, Vec<SweepCounts>) {
    let rows = inter_order_tardiness(seed);
    let mut counts: Vec<SweepCounts> = rows[1..].iter().map(|r| (r.0, 0, 0)).collect();
    for s in sweep {
        let run = inter_order_tardiness(s);
        let orders = &run[1..];
        let best = orders.iter().map(|o| o.1).fold(f64::INFINITY, f64::min);
        let tied = |t: f64| t - best <= 1e-9 * best.max(1.0);
        let winners = orders.iter().filter(|o| tied(o.1)).count();
        for (c, &(_, t)) in counts.iter_mut().zip(orders) {
            if tied(t) {
                c.1 += 1;
                c.2 += usize::from(winners == 1);
            }
        }
    }
    (rows, counts)
}

/// E11f's rows at one seed: the Coflow reference, then each ordering.
fn inter_order_tardiness(seed: u64) -> Vec<(&'static str, f64)> {
    use echelon_sched::echelon::InterOrder;
    let cfg = WorkloadConfig::default_mix(seed, 5, 32);
    let scenario = Scenario::generate(&cfg);
    let mut rows = Vec::new();
    let (_, coflow) = scenario.run(SchedulerKind::Coflow, &FaultPlan::empty());
    rows.push(("coflow (reference)", coflow.total_tardiness));
    for (name, inter) in [
        ("earliest-deadline (default)", InterOrder::EarliestDeadline),
        ("most-tardy", InterOrder::MostTardy),
        ("least-work", InterOrder::LeastWork),
        ("bssi", InterOrder::Bssi),
    ] {
        let echelons: Vec<EchelonFlow> = scenario
            .jobs
            .iter()
            .flat_map(|j| j.dag.echelons.iter().cloned())
            .collect();
        let mut policy = EchelonMadd::new(echelons).with_inter(inter);
        let (_, m) = scenario.run_with(&mut policy, &FaultPlan::empty());
        rows.push((name, m.total_tardiness));
    }
    rows
}

/// E11e — queue-count enforcement fidelity: `(queues, makespan)` on the
/// two-pipeline contention instance, plus the exact-rate reference.
pub fn ablation_queues() -> Vec<(String, f64)> {
    let topo = Topology::dumbbell(2, 2, 10.0, 1.0);
    let mut alloc = IdAlloc::new();
    let mk = |job, a: u32, b: u32, alloc: &mut IdAlloc| {
        build_pp_gpipe(
            job,
            &PpConfig {
                placement: vec![NodeId(a), NodeId(b)],
                micro_batches: 3,
                fwd_time: 1.0,
                bwd_time: 1.0,
                activation_bytes: 2.0,
                iterations: 1,
            },
            alloc,
        )
    };
    let dags = [
        mk(JobId(0), 0, 2, &mut alloc),
        mk(JobId(1), 1, 3, &mut alloc),
    ];
    let dag_refs: Vec<&_> = dags.iter().collect();

    let echelons: Vec<EchelonFlow> = dags
        .iter()
        .flat_map(|d| d.echelons.iter().cloned())
        .collect();
    let mut rows = Vec::new();
    let out = run_jobs(
        &topo,
        &dag_refs,
        &mut EchelonMadd::new(echelons.clone()),
        &RunConfig::default(),
    );
    rows.push(("exact rates".to_string(), out.makespan.secs()));
    for queues in [1u8, 2, 4, 8] {
        let mut policy = QueueEnforcedPolicy::new(
            EchelonMadd::new(echelons.clone()),
            QueueConfig { queues, ratio: 2.0 },
        );
        let out = run_jobs(&topo, &dag_refs, &mut policy, &RunConfig::default());
        rows.push((format!("{queues} queues"), out.makespan.secs()));
    }
    rows
}

// --------------------------------------------------------------- E12 --

/// E12 — GPU placement: packed vs scattered fragmentation, per
/// scheduler, on a 4:1-oversubscribed k=4 fat-tree (on a non-blocking
/// big switch placement is irrelevant by construction; fragmentation
/// only bites when cross-pod traffic hits an oversubscribed core).
/// Returns `(placement, scheduler, total tardiness, mean JCT)` rows.
pub fn placement_experiment(seed: u64) -> Vec<(&'static str, &'static str, f64, f64)> {
    use echelon_simnet::fattree::FatTree;
    let mut rows = Vec::new();
    for (pname, placement) in [
        ("packed", PlacementPolicy::Packed),
        (
            "scattered",
            PlacementPolicy::Scattered {
                seed: seed ^ 0xF00D,
            },
        ),
    ] {
        let mut cfg = WorkloadConfig::default_mix(seed, 3, 16);
        cfg.placement = placement;
        let fabric = FatTree::new(4).with_oversubscription(4.0).build_fabric();
        let scenario = Scenario::generate_on(&cfg, fabric);
        for kind in [
            SchedulerKind::Fair,
            SchedulerKind::Coflow,
            SchedulerKind::Echelon,
        ] {
            let (_, m) = scenario.run(kind, &FaultPlan::empty());
            rows.push((pname, kind.name(), m.total_tardiness, m.mean_jct));
        }
        // On oversubscribed fabrics the SEBF-analog ordering often beats
        // the EDF default (no ordering dominates an NP-hard problem);
        // report it alongside.
        {
            use echelon_sched::echelon::InterOrder;
            let echelons: Vec<EchelonFlow> = scenario
                .jobs
                .iter()
                .flat_map(|j| j.dag.echelons.iter().cloned())
                .collect();
            let mut policy = EchelonMadd::new(echelons).with_inter(InterOrder::LeastWork);
            let (_, m) = scenario.run_with(&mut policy, &FaultPlan::empty());
            rows.push((pname, "echelon(least-work)", m.total_tardiness, m.mean_jct));
        }
    }
    rows
}

// --------------------------------------------------------------- E13 --

/// E13 — compute jitter (imperfect GPU isolation, §5): realized
/// computation times drift from the profiled arrangement distances.
/// Returns `(jitter %, coflow tardiness, echelon tardiness)` rows.
pub fn jitter_experiment(seed: u64) -> Vec<(f64, f64, f64)> {
    use echelon_cluster::workload::{apply_compute_jitter, generate_workload};
    use echelon_detrand::DetRng;

    let mut rows = Vec::new();
    for frac in [0.0, 0.1, 0.3] {
        let cfg = WorkloadConfig::default_mix(seed, 5, 32);
        let mut alloc = IdAlloc::new();
        let mut jobs = generate_workload(&cfg, &mut alloc);
        let mut rng = DetRng::seed_from_u64(seed ^ 0xBEEF);
        for j in &mut jobs {
            apply_compute_jitter(&mut j.dag, frac, &mut rng);
        }
        let scenario = echelon_cluster::scenario::Scenario {
            topology: Topology::big_switch_uniform(cfg.hosts, 1.0),
            jobs,
        };
        let (_, coflow) = scenario.run(SchedulerKind::Coflow, &FaultPlan::empty());
        let (_, echelon) = scenario.run(SchedulerKind::Echelon, &FaultPlan::empty());
        rows.push((frac, coflow.total_tardiness, echelon.total_tardiness));
    }
    rows
}

// --------------------------------------------------------------- E14 --

/// E14 — fluid-model validation under chunk-quantized transmission.
///
/// Max-min fair sharing is *exactly* reproduced at any chunk size (one
/// active chunk per flow sees the same share), so the interesting case
/// is a size-dependent policy: SRPT's preemption points shift to chunk
/// boundaries, producing an error that vanishes as the chunk shrinks.
/// Returns `(chunk size, max |finish − fluid|)` rows for both policies.
pub fn quantization_experiment() -> Vec<(f64, f64, f64, f64)> {
    use echelon_sched::baselines::SrptPolicy;
    use echelon_simnet::quantized::{run_flows_quantized, ChunkVisibility};
    let topo = Topology::chain(2, 1.0);
    let config = RunConfig::default();
    let demands = vec![
        FlowDemand::new(FlowId(0), NodeId(0), NodeId(1), 2.0, SimTime::new(1.0)),
        FlowDemand::new(FlowId(1), NodeId(0), NodeId(1), 1.7, SimTime::new(1.2)),
        FlowDemand::new(FlowId(2), NodeId(0), NodeId(1), 2.3, SimTime::new(1.4)),
    ];
    let fluid_fair = run_flows(&topo, demands.clone(), &mut MaxMinPolicy, &config);
    let fluid_srpt = run_flows(&topo, demands.clone(), &mut SrptPolicy, &config);
    let mut rows = Vec::new();
    for chunk in [1.0, 0.5, 0.1, 0.02] {
        let err = |quant: &echelon_simnet::quantized::QuantizedOutcome,
                   fluid: &echelon_simnet::runner::FlowOutcomes| {
            demands
                .iter()
                .map(|d| (quant.finishes[&d.id] - fluid.finish(d.id).unwrap()).abs())
                .fold(0.0f64, f64::max)
        };
        let q_fair = run_flows_quantized(
            &topo,
            demands.clone(),
            &mut MaxMinPolicy,
            chunk,
            ChunkVisibility::FlowState,
        );
        let q_srpt = run_flows_quantized(
            &topo,
            demands.clone(),
            &mut SrptPolicy,
            chunk,
            ChunkVisibility::FlowState,
        );
        let q_srpt_local = run_flows_quantized(
            &topo,
            demands.clone(),
            &mut SrptPolicy,
            chunk,
            ChunkVisibility::ChunkLocal,
        );
        rows.push((
            chunk,
            err(&q_fair, &fluid_fair),
            err(&q_srpt, &fluid_srpt),
            err(&q_srpt_local, &fluid_srpt),
        ));
    }
    rows
}

// --------------------------------------------------------------- E15 --

/// E15 — flat ring vs hierarchical all-reduce on an oversubscribed
/// fat-tree (the BlueConnect-style decomposition the paper cites \[11\]).
/// Returns `(variant, makespan, cross-core flows)` rows.
pub fn hierarchy_experiment() -> Vec<(&'static str, f64, usize)> {
    use echelon_paradigms::dp::build_dp_hierarchical;
    use echelon_simnet::fattree::FatTree;
    let topo = FatTree::new(4).with_oversubscription(4.0).build_fabric();
    // Two racks of two workers (pods 0 and 1 of the k=4 fat-tree).
    let groups = vec![vec![NodeId(0), NodeId(1)], vec![NodeId(4), NodeId(5)]];
    let cfg = DpConfig {
        placement: vec![NodeId(0), NodeId(1), NodeId(4), NodeId(5)],
        ps: None,
        bucket_bytes: vec![4.0, 4.0],
        fwd_time: 1.0,
        bwd_time_per_bucket: 0.5,
        iterations: 1,
    };
    let pod_of = |n: NodeId| n.0 / 4;
    let cross = |dag: &JobDag| {
        dag.all_flows()
            .iter()
            .filter(|f| pod_of(f.src) != pod_of(f.dst))
            .count()
    };

    let mut rows = Vec::new();
    let mut alloc = IdAlloc::new();
    let flat = build_dp_allreduce(JobId(0), &cfg, &mut alloc);
    let flat_out = run_jobs(&topo, &[&flat], &mut MaxMinPolicy, &RunConfig::default());
    rows.push(("flat ring", flat_out.makespan.secs(), cross(&flat)));

    let mut alloc = IdAlloc::new();
    let hier = build_dp_hierarchical(JobId(0), &cfg, &groups, &mut alloc);
    let hier_out = run_jobs(&topo, &[&hier], &mut MaxMinPolicy, &RunConfig::default());
    rows.push((
        "hierarchical (2 racks)",
        hier_out.makespan.secs(),
        cross(&hier),
    ));
    rows
}

// --------------------------------------------------------------- E16 --

/// E16 — multi-iteration steady state: 3 training iterations per job;
/// mean per-iteration time (job makespan / iterations) per scheduler.
pub fn steady_state_experiment(seed: u64) -> Vec<(&'static str, f64, f64)> {
    let mut cfg = WorkloadConfig::default_mix(seed, 4, 24);
    cfg.iterations = 3;
    let scenario = Scenario::generate(&cfg);
    let mut rows = Vec::new();
    for kind in [
        SchedulerKind::Fair,
        SchedulerKind::Coflow,
        SchedulerKind::Echelon,
    ] {
        let (_, m) = scenario.run(kind, &FaultPlan::empty());
        let mean_iter = m
            .jobs
            .iter()
            .map(|j| j.jct / cfg.iterations as f64)
            .sum::<f64>()
            / m.jobs.len() as f64;
        rows.push((kind.name(), mean_iter, m.total_tardiness));
    }
    rows
}

// --------------------------------------------------------------- E17 --

/// One scheduler's row of the churn experiment.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Scheduler name.
    pub scheduler: &'static str,
    /// Mean JCT without faults.
    pub clean_jct: f64,
    /// Mean JCT under the churn plan.
    pub churn_jct: f64,
    /// Eq. 4 total tardiness under churn.
    pub churn_tardiness: f64,
    /// Flow-seconds spent stalled on downed links.
    pub stall_flow_seconds: f64,
    /// Fault-forced policy recomputes.
    pub fault_recomputes: usize,
}

/// E17 — tardiness and JCT under capacity churn (link flaps, partial
/// degradations, coordinator outages, a straggler): the same seeded fault
/// plan is injected into every scheduler's run, alongside a fault-free
/// control. EchelonFlow scheduling should keep its tardiness lead over
/// Coflow and fair sharing even while the fabric is churning, because the
/// fault hooks invalidate exactly the caches the incremental paths keep.
pub fn churn_experiment(seed: u64) -> Vec<ChurnRow> {
    use echelon_cluster::churn::{random_fault_plan, ChurnConfig};

    let cfg = WorkloadConfig::default_mix(seed, 4, 24);
    let scenario = Scenario::generate(&cfg);
    let churn = ChurnConfig {
        horizon: 8.0,
        max_repair: 2.0,
        link_downs: 2,
        degrades: 2,
        outages: 1,
        slowdowns: 1,
    };
    // Random churn plus one targeted incident: host 0's egress port goes
    // dark for a second mid-run. Packed placement guarantees host 0 is
    // busy, so the stall-time column is exercised on every seed (the
    // random picks land on idle ports more often than not).
    use echelon_simnet::fault::FaultKind;
    use echelon_simnet::ids::ResourceId;
    let plan = random_fault_plan(seed, &scenario.topology, &churn)
        .with(SimTime::new(2.0), FaultKind::LinkDown(ResourceId(0)))
        .with(SimTime::new(3.0), FaultKind::LinkRestore(ResourceId(0)));
    let mut rows = Vec::new();
    for kind in [
        SchedulerKind::Fair,
        SchedulerKind::Coflow,
        SchedulerKind::Echelon,
    ] {
        let (_, clean) = scenario.run(kind, &FaultPlan::empty());
        let (run, m) = scenario.run(kind, &plan);
        rows.push(ChurnRow {
            scheduler: kind.name(),
            clean_jct: clean.mean_jct,
            churn_jct: m.mean_jct,
            churn_tardiness: m.total_tardiness,
            stall_flow_seconds: run.stats.stall_flow_seconds,
            fault_recomputes: run.stats.fault_recomputes,
        });
    }
    rows
}

// --------------------------------------------------------------- E18 --

/// One cell of the placement × scheduler × fault cross-product (E18).
#[derive(Debug, Clone)]
pub struct PlacementCell {
    /// Placement policy label.
    pub placement: &'static str,
    /// Scheduler label.
    pub scheduler: &'static str,
    /// True when the seeded churn plan was injected.
    pub faulted: bool,
    /// Mean JCT across the workload's jobs.
    pub mean_jct: f64,
    /// Eq. 4 total tardiness.
    pub total_tardiness: f64,
    /// 99th-percentile per-job summed tardiness (nearest-rank).
    pub p99_tardiness: f64,
    /// Mean pods spanned per job under this placement.
    pub mean_pods_spanned: f64,
    /// Worst single job's pod span.
    pub max_pods_spanned: usize,
    /// FNV-1a completion digest of the cell's run — byte-identical
    /// across sweep thread counts by the determinism contract.
    pub digest: u64,
}

/// The placement policies E18 compares, seeded off the experiment seed.
pub fn codesign_placements(seed: u64) -> [PlacementPolicy; 5] {
    [
        PlacementPolicy::Packed,
        PlacementPolicy::Scattered {
            seed: seed ^ 0xF00D,
        },
        PlacementPolicy::PodPacked,
        PlacementPolicy::PhaseInterleaved {
            seed: seed ^ 0xCA55,
        },
        PlacementPolicy::LeastContended,
    ]
}

/// E18 — placement × scheduling co-design: the full placement ×
/// scheduler × fault cross-product on a 4:1-oversubscribed k=4 fat-tree
/// *fabric* (pods visible to the pod-aware policies), fanned out through
/// [`echelon_simnet::sweep`]. The question the grid answers: does
/// echelon scheduling shrink or widen the JCT/tardiness gap between good
/// and bad placement — i.e. can a smarter scheduler paper over a worse
/// placer, and vice versa?
pub fn codesign_experiment(seed: u64) -> Vec<PlacementCell> {
    codesign_experiment_with(echelon_simnet::sweep::configured_threads(), seed)
}

/// [`codesign_experiment`] with an explicit sweep thread count. Results
/// are bit-identical at any thread count (each cell is shared-nothing
/// and generation happens before the fan-out); the unit tests gate on
/// 1 vs 2 threads and pin every cell's digest at seed 42.
pub fn codesign_experiment_with(threads: usize, seed: u64) -> Vec<PlacementCell> {
    use echelon_cluster::churn::{random_fault_plan, ChurnConfig};
    use echelon_cluster::metrics::{percentile, placement_spread};
    use echelon_cluster::service::completion_digest;
    use echelon_simnet::fattree::FatTree;

    let placements = codesign_placements(seed);
    // One scenario per placement, generated up front so every cell of a
    // placement row shares the identical workload (the scheduler and
    // fault axes then isolate their own effects).
    let scenarios: Vec<(usize, Scenario)> = placements
        .iter()
        .map(|&placement| {
            let mut cfg = WorkloadConfig::default_mix(seed, 3, 16);
            cfg.placement = placement;
            let fabric = FatTree::new(4).with_oversubscription(4.0).build_fabric();
            let scenario = Scenario::generate_on(&cfg, fabric);
            let spread = placement_spread(
                &scenario.topology,
                scenario.jobs.iter().map(|j| j.placement.as_slice()),
            );
            (spread.max_pods_spanned, scenario)
        })
        .collect();
    let plan = {
        let (_, first) = &scenarios[0];
        random_fault_plan(seed, &first.topology, &ChurnConfig::default())
    };
    let clean = FaultPlan::empty();

    let schedulers = [
        SchedulerKind::Fair,
        SchedulerKind::Coflow,
        SchedulerKind::Echelon,
    ];
    let mut cells: Vec<(usize, SchedulerKind, bool)> = Vec::new();
    for pi in 0..placements.len() {
        for &kind in &schedulers {
            for faulted in [false, true] {
                cells.push((pi, kind, faulted));
            }
        }
    }

    echelon_simnet::sweep::sweep_with(threads, &cells, |_, &(pi, kind, faulted)| {
        let (max_pods, scenario) = &scenarios[pi];
        let (run, m) = scenario.run(kind, if faulted { &plan } else { &clean });
        let spread = placement_spread(
            &scenario.topology,
            scenario.jobs.iter().map(|j| j.placement.as_slice()),
        );
        let mut tards: Vec<f64> = m.jobs.iter().map(|j| j.sum_tardiness).collect();
        tards.sort_by(f64::total_cmp);
        PlacementCell {
            placement: placements[pi].name(),
            scheduler: kind.name(),
            faulted,
            mean_jct: m.mean_jct,
            total_tardiness: m.total_tardiness,
            p99_tardiness: percentile(&tards, 0.99),
            mean_pods_spanned: spread.mean_pods_spanned,
            max_pods_spanned: *max_pods,
            digest: completion_digest(&run),
        }
    })
}

/// Distills E18 into the headline interaction numbers: per scheduler,
/// the spread (worst − best mean JCT across placements) on the clean
/// runs. A smaller spread means the scheduler absorbs placement damage.
pub fn codesign_interaction(cells: &[PlacementCell]) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    for sched in ["fair", "coflow", "echelon"] {
        let jcts: Vec<f64> = cells
            .iter()
            .filter(|c| c.scheduler == sched && !c.faulted)
            .map(|c| c.mean_jct)
            .collect();
        let best = jcts.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = jcts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        out.push((sched, worst - best));
    }
    out
}

/// Profiling report for the Fig. 2 job (feeds the E11a narrative).
pub fn profile_fig2() -> (f64, f64) {
    let dag = fig2_dag();
    let report = profile_gaps(&dag, 2);
    (
        report.mean_fwd_gap().unwrap_or(f64::NAN),
        report.uncontended_makespan,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E11(b)'s rows at the seed `repro` prints: on its 4-job mix,
    /// decision reuse cuts the coordinator's decisions from 52 per event
    /// to 25 per EchelonFlow change and 3 at a 10 s interval, at the same
    /// mean JCT bits on every row (EXPERIMENTS.md, E11(b)).
    #[test]
    fn e11b_interval_rows_are_pinned() {
        const MEAN_JCT: u64 = 0x4033_bebf_ba70_c734; // 19.745113041433072
        let want = [
            ("per-event", 52),
            ("per-EchelonFlow", 25),
            ("1s", 14),
            ("2s", 9),
            ("5s", 6),
            ("10s", 3),
        ];
        let got = ablation_interval(42);
        assert_eq!(got.len(), want.len());
        for ((label, decisions, jct), (want_label, want_decisions)) in got.iter().zip(want) {
            assert_eq!(
                (label.as_str(), *decisions, jct.to_bits()),
                (want_label, want_decisions, MEAN_JCT),
                "{label}: {jct}"
            );
        }
    }

    /// E11(f)'s sweep over seeds 1–20 (EXPERIMENTS.md, E11(f)):
    /// least-work is best or tied on every seed's multi-tenant sum and
    /// strictly best on 8, and no other ordering is ever strictly best.
    #[test]
    fn e11f_sweep_counts_are_pinned() {
        let (_, sweep) = ablation_inter_order(13, 1..=20);
        assert_eq!(
            sweep,
            [
                ("earliest-deadline (default)", 5, 0),
                ("most-tardy", 0, 0),
                ("least-work", 20, 8),
                ("bssi", 8, 0),
            ]
        );
    }

    #[test]
    fn fig2_reproduces_paper_numbers() {
        let r = fig2();
        let by_name: BTreeMap<&str, f64> = r.rows.iter().map(|(n, t, _)| (*n, *t)).collect();
        assert!((by_name["fair-sharing"] - 8.5).abs() < 1e-6);
        assert!((by_name["coflow"] - 10.0).abs() < 1e-6);
        assert!((by_name["echelonflow"] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn fig2_rate_series_contains_published_rates() {
        let all = fig2_rate_series();
        let coflow = &all.iter().find(|(n, _)| *n == "coflow").unwrap().1;
        // The first flow's final positive rate is B/6 (Fig. 2b).
        let (_, series) = &coflow[0];
        let last_rate = series
            .iter()
            .rev()
            .find(|(_, r)| *r > 0.0)
            .map(|(_, r)| *r)
            .unwrap();
        assert!((last_rate - 1.0 / 6.0).abs() < 1e-9, "rate {last_rate}");
    }

    #[test]
    fn table1_matches_paper_rows() {
        let rows = table1();
        let find = |p: &str| rows.iter().find(|r| r.paradigm == p).unwrap();
        assert!(find("DP - AllReduce").coflow_compliant);
        assert!(find("DP - PS").coflow_compliant);
        assert!(find("TP").coflow_compliant);
        assert!(!find("PP").coflow_compliant);
        assert!(!find("FSDP").coflow_compliant);
        // Behavioural: echelon strictly better where Coflow fails.
        assert!(find("PP").echelon_time < find("PP").coflow_time - 1e-6);
        assert!(find("FSDP").echelon_time < find("FSDP").coflow_time - 1e-6);
    }

    #[test]
    fn fig1_contended_echelon_not_worse() {
        let fair = fig1_timeline(SchedulerKind::Fair, 3.0);
        let echelon = fig1_timeline(SchedulerKind::Echelon, 3.0);
        assert!(
            echelon.makespan.secs() <= fair.makespan.secs() + 1e-6,
            "echelon {} vs fair {}",
            echelon.makespan,
            fair.makespan
        );
    }

    #[test]
    fn fig6_ideal_finishes_precede_late_starts() {
        let rows = fig6_trace();
        // f1 starts at 2.5 but its ideal finish is 1.0 (earlier than its
        // start) — the recalibration the paper's Fig. 6b illustrates.
        let f1 = &rows[1];
        assert!(f1.2 < f1.1, "ideal {} must precede start {}", f1.2, f1.1);
        assert!(rows[0].2 == 0.0);
    }

    #[test]
    fn prop1_echelon_matches_optimal() {
        for (name, achieved, optimal) in prop1() {
            assert!(
                (achieved - optimal).abs() < 1e-9,
                "{name}: {achieved} vs optimal {optimal}"
            );
        }
    }

    #[test]
    fn profile_error_zero_is_best_or_tied() {
        let rows = ablation_profile_error();
        let at_zero = rows.iter().find(|(e, _)| *e == 0.0).unwrap().1;
        for &(err, t) in &rows {
            assert!(
                at_zero <= t + 1e-6,
                "error {err} gives {t} better than exact {at_zero}"
            );
        }
    }

    #[test]
    fn codesign_grid_covers_cross_product_and_is_thread_invariant() {
        let serial = codesign_experiment_with(1, 5);
        let parallel = codesign_experiment_with(2, 5);
        assert_eq!(serial.len(), 5 * 3 * 2, "placement × scheduler × fault");
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.placement, b.placement);
            assert_eq!(a.scheduler, b.scheduler);
            assert_eq!(a.faulted, b.faulted);
            assert_eq!(
                a.digest, b.digest,
                "{}×{} (faulted={}) diverged across sweep threads",
                a.placement, a.scheduler, a.faulted
            );
        }
        // Ring affinity does what it says: pod-packed never sprawls more
        // than scattered on the fat-tree.
        let mean_pods = |p: &str| {
            serial
                .iter()
                .find(|c| c.placement == p)
                .map(|c| c.mean_pods_spanned)
                .unwrap()
        };
        assert!(mean_pods("pod-packed") <= mean_pods("scattered") + 1e-9);
        let spreads = codesign_interaction(&serial);
        assert_eq!(spreads.len(), 3);
        for (sched, spread) in spreads {
            assert!(spread >= 0.0 && spread.is_finite(), "{sched}: {spread}");
        }
    }

    /// The E18 grid's completion digests at seed 42, one line per
    /// `placement scheduler`: the clean run's digest, then the churned run's.
    const CODESIGN_SEED42_DIGESTS: &str = "\
packed fair 216fc993492af549 b933bcc055d815a9
packed coflow f96d4c1b5756b9e6 ce8388fe48fe0977
packed echelon 7e7e6ef2e80db5a8 50a1f843c1f0aba6
scattered fair 5cf78a1573456855 c759e89e7bc9132d
scattered coflow 6124ee9446006006 f3a78a5c306fbb76
scattered echelon 875d6ba5f22714d9 7a445e0142fcdaf9
pod-packed fair 216fc993492af549 05f874b281b4a59b
pod-packed coflow f96d4c1b5756b9e6 14cc20ae32c24e79
pod-packed echelon 7e7e6ef2e80db5a8 9320f671917569fd
phase-interleaved fair 216fc993492af549 05f874b281b4a59b
phase-interleaved coflow f96d4c1b5756b9e6 14cc20ae32c24e79
phase-interleaved echelon 7e7e6ef2e80db5a8 9320f671917569fd
least-contended fair 216fc993492af549 b933bcc055d815a9
least-contended coflow f96d4c1b5756b9e6 ce8388fe48fe0977
least-contended echelon 7e7e6ef2e80db5a8 50a1f843c1f0aba6
";

    #[test]
    fn codesign_grid_digests_are_pinned_at_seed_42() {
        let rendered: String = codesign_experiment_with(2, 42)
            .chunks(2)
            .map(|pair| {
                let (clean, churn) = (&pair[0], &pair[1]);
                assert!(!clean.faulted && churn.faulted);
                let (p, s) = (clean.placement, clean.scheduler);
                format!("{p} {s} {:016x} {:016x}\n", clean.digest, churn.digest)
            })
            .collect();
        assert_eq!(rendered, CODESIGN_SEED42_DIGESTS);
    }

    #[test]
    fn placement_rows_cover_grid() {
        let rows = placement_experiment(3);
        assert_eq!(rows.len(), 8);
        // Fragmentation hurts: scattered fair-sharing tardiness is no
        // better than packed on the oversubscribed fat-tree.
        let find = |p: &str, s: &str| {
            rows.iter()
                .find(|r| r.0 == p && r.1 == s)
                .map(|r| r.2)
                .unwrap()
        };
        assert!(find("scattered", "fair") + 1e-9 >= find("packed", "fair"));
    }

    #[test]
    fn jitter_zero_matches_unjittered_scenario() {
        let rows = jitter_experiment(3);
        assert_eq!(rows.len(), 3);
        // At zero jitter both schedulers behave as in the plain scenario.
        let cfg = WorkloadConfig::default_mix(3, 5, 32);
        let scenario = Scenario::generate(&cfg);
        let (_, echelon) = scenario.run(SchedulerKind::Echelon, &FaultPlan::empty());
        assert!((rows[0].2 - echelon.total_tardiness).abs() < 1e-9);
    }

    #[test]
    fn quantization_flow_state_is_exact() {
        let rows = quantization_experiment();
        for &(chunk, fair_err, srpt_err, srpt_local_err) in &rows {
            // Flow-state visibility reproduces the fluid model exactly.
            assert!(fair_err < 1e-9, "fair error {fair_err} at chunk {chunk}");
            assert!(srpt_err < 1e-9, "srpt error {srpt_err} at chunk {chunk}");
            // Chunk-local SRPT genuinely differs.
            assert!(srpt_local_err >= 0.0);
        }
        // Without flow state, SRPT's benefit is lost (error stays).
        assert!(rows.last().unwrap().3 > 0.05);
    }

    #[test]
    fn hierarchy_beats_flat_on_oversubscribed_fabric() {
        let rows = hierarchy_experiment();
        let flat = rows.iter().find(|r| r.0.starts_with("flat")).unwrap();
        let hier = rows.iter().find(|r| r.0.starts_with("hier")).unwrap();
        assert!(
            hier.1 <= flat.1 + 1e-6,
            "hier {} vs flat {}",
            hier.1,
            flat.1
        );
        assert!(hier.2 < flat.2, "cross flows {} !< {}", hier.2, flat.2);
    }

    #[test]
    fn steady_state_echelon_leads_or_ties() {
        let rows = steady_state_experiment(42);
        let find = |n: &str| rows.iter().find(|r| r.0 == n).unwrap();
        assert!(find("echelon").2 <= find("coflow").2 + 1e-6);
    }

    #[test]
    fn multijob_sweep_echelon_wins_most_seeds() {
        let rows = multijob_sweep(&[1, 2, 3, 5, 8], 4, 32);
        let find = |n: &str| rows.iter().find(|r| r.0 == n).unwrap();
        // Across seeds, echelon's mean tardiness beats coflow's, and it
        // wins (or ties) at least as many seeds as coflow does.
        assert!(find("echelon").1 <= find("coflow").1 + 1e-9);
        assert!(find("echelon").3 >= find("coflow").3);
        // The aggregate-optimized ordering beats every per-flow baseline
        // in the mean.
        let lw = find("echelon(least-work)").1;
        for base in ["fair", "fifo", "srpt", "coflow"] {
            assert!(lw <= find(base).1 + 1e-9, "least-work {lw} vs {base}");
        }
    }

    /// E10's multi-tenant rows as `repro` prints them (seed 42, 6 jobs,
    /// 32 hosts, scattered): per scheduler, the f64 bits of total
    /// tardiness, mean JCT, p95 JCT, makespan and utilization.
    const MULTIJOB_SEED42_BITS: &str = "\
fair 4067eeabf22451e6 4037bc0835ccc753 404a184d5587d7c9 404db77b3530353c 3fa7da89b088209f
fifo 4063fe6084494a1a 40371ed88aed15cf 404a184d5587d7c9 404db77b3530353c 3fa7da89b088209f
srpt 406411efce06b1ed 403775d778625547 404a184d5587d7c9 404db77b3530353c 3fa7da89b088209f
coflow 406485d5429bc4af 4037cc04ff488590 404a184d5587d7c9 404db77b3530353c 3fa7da89b088209f
echelon 406411efce06b1ed 403738eced3ef591 404a184d5587d7c9 404db77b3530353c 3fa7da89b088209f
";

    #[test]
    fn multijob_rows_are_pinned_at_seed_42() {
        let rendered: String = multijob(42, 6, 32, true)
            .iter()
            .map(|(name, m)| {
                let bits = [
                    m.total_tardiness,
                    m.mean_jct,
                    m.p95_jct,
                    m.makespan,
                    m.mean_utilization,
                ]
                .map(|x| format!("{:016x}", x.to_bits()));
                format!("{name} {}\n", bits.join(" "))
            })
            .collect();
        assert_eq!(rendered, MULTIJOB_SEED42_BITS);
    }

    #[test]
    fn multijob_runs_all_schedulers() {
        let rows = multijob(3, 3, 16, false);
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn churn_slows_everyone_but_keeps_echelon_competitive() {
        let rows = churn_experiment(42);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            // Churn never speeds a run up, and every scheduler was forced
            // through at least one fault recompute.
            assert!(
                r.churn_jct + 1e-9 >= r.clean_jct,
                "{}: churn {} < clean {}",
                r.scheduler,
                r.churn_jct,
                r.clean_jct
            );
            assert!(r.fault_recomputes > 0, "{} never recomputed", r.scheduler);
        }
        let find = |n: &str| rows.iter().find(|r| r.scheduler == n).unwrap();
        assert!(find("echelon").churn_tardiness <= find("coflow").churn_tardiness + 1e-6);
    }
}
