//! Post-hoc measurement of cluster runs.
//!
//! The runtime records raw spans; this module turns them into the
//! quantities the paper's objective and evaluation talk about: per-job
//! completion time, per-EchelonFlow tardiness (Eq. 2, with the reference
//! time reconstructed from the head flow's observed release — exactly
//! Definition 3.1's `r = s_0`), the global objective (Eq. 4), and worker
//! idleness.

use crate::service::JobRecord;
use crate::workload::{GeneratedJob, TenantSpec, ARRIVAL_LABEL};
use echelon_core::echelon::EchelonFlow;
use echelon_core::JobId;
use echelon_paradigms::runtime::RunResult;
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;
use std::collections::BTreeMap;

/// Nearest-rank percentile over an ascending-sorted slice: the smallest
/// element with at least `p` of the mass at or below it. `p` in `[0, 1]`;
/// an empty slice reports 0 (by convention, not interpolation).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0, 1]");
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

/// Computes an EchelonFlow's realized tardiness (Eq. 2) from a finished
/// run: the reference time is the earliest release among its flows and
/// every flow's tardiness is its finish minus its stage's ideal finish.
///
/// Returns `None` if any member flow never ran (job did not finish).
pub fn echelon_tardiness_from_run(h: &EchelonFlow, run: &RunResult) -> Option<f64> {
    let mut bound = h.clone();
    let reference = h
        .flows()
        .filter_map(|f| run.flow_releases.get(&f.id))
        .copied()
        .fold(SimTime::INFINITY, SimTime::min);
    if !reference.is_finite() {
        return None;
    }
    bound.bind_reference(reference);
    let mut worst = f64::NEG_INFINITY;
    for j in 0..bound.num_stages() {
        let d = bound.ideal_finish_of_stage(j);
        for f in bound.stage(j) {
            let e = run.flow_finishes.get(&f.id)?;
            worst = worst.max(*e - d);
        }
    }
    Some(worst)
}

/// Per-job summary.
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// The job.
    pub job: JobId,
    /// Arrival time.
    pub arrival: f64,
    /// Completion time of the job's last unit.
    pub finish: f64,
    /// Job completion time: `finish − arrival`.
    pub jct: f64,
    /// Sum over the job's EchelonFlows of clamped tardiness (Eq. 4
    /// restricted to the job).
    pub sum_tardiness: f64,
}

/// Whole-scenario summary.
#[derive(Debug, Clone)]
pub struct ScenarioMetrics {
    /// Per-job breakdown, in job order.
    pub jobs: Vec<JobMetrics>,
    /// Eq. 4 over every EchelonFlow of every job.
    pub total_tardiness: f64,
    /// Mean JCT.
    pub mean_jct: f64,
    /// 95th-percentile JCT (nearest-rank).
    pub p95_jct: f64,
    /// Completion time of the whole scenario.
    pub makespan: f64,
    /// Mean worker compute utilization over `[arrival of first job,
    /// makespan]`, excluding arrival gates.
    pub mean_utilization: f64,
}

/// Builds scenario metrics from generated jobs and their run.
pub fn scenario_metrics(jobs: &[GeneratedJob], run: &RunResult) -> ScenarioMetrics {
    let mut out_jobs = Vec::with_capacity(jobs.len());
    let mut total_tardiness = 0.0;
    for j in jobs {
        let finish = run
            .job_makespans
            .get(&j.dag.job)
            .copied()
            .unwrap_or(SimTime::ZERO)
            .secs();
        let sum_tardiness: f64 = j
            .dag
            .echelons
            .iter()
            .filter_map(|h| echelon_tardiness_from_run(h, run))
            .map(|t| t.max(0.0) * 1.0)
            .sum();
        total_tardiness += sum_tardiness;
        out_jobs.push(JobMetrics {
            job: j.dag.job,
            arrival: j.arrival,
            finish,
            jct: finish - j.arrival,
            sum_tardiness,
        });
    }

    let mut jcts: Vec<f64> = out_jobs.iter().map(|m| m.jct).collect();
    jcts.sort_by(f64::total_cmp);
    let mean_jct = if jcts.is_empty() {
        0.0
    } else {
        jcts.iter().sum::<f64>() / jcts.len() as f64
    };
    let p95_jct = percentile(&jcts, 0.95);

    // Utilization: compute seconds (excluding arrival gates) over the
    // per-worker active window.
    let mut gate_time: BTreeMap<_, f64> = BTreeMap::new();
    for e in &run.timeline {
        if e.label == ARRIVAL_LABEL {
            *gate_time.entry(e.worker).or_insert(0.0) += e.end - e.start;
        }
    }
    let span = run.makespan.secs();
    // Average over every *placed* worker, not just those that recorded
    // busy time: a host that sat idle the whole run (no finished compute
    // unit) is absent from `worker_busy`, and skipping it biased the mean
    // upward — a scheduler that starves half the cluster looked as
    // utilized as one that keeps every host busy.
    let mut placed: Vec<_> = jobs
        .iter()
        .flat_map(|j| j.placement.iter().copied())
        .chain(run.worker_busy.keys().copied())
        .collect();
    placed.sort();
    placed.dedup();
    let mut utils = Vec::new();
    for worker in &placed {
        let busy = run.worker_busy.get(worker).copied().unwrap_or(0.0);
        let gates = gate_time.get(worker).copied().unwrap_or(0.0);
        if span > 0.0 {
            utils.push(((busy - gates) / span).clamp(0.0, 1.0));
        }
    }
    let mean_utilization = if utils.is_empty() {
        0.0
    } else {
        utils.iter().sum::<f64>() / utils.len() as f64
    };

    ScenarioMetrics {
        jobs: out_jobs,
        total_tardiness,
        mean_jct,
        p95_jct,
        makespan: span,
        mean_utilization,
    }
}

/// How far placements sprawl across the fabric's pods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementSpread {
    /// Mean pods spanned per job (1.0 = every job fits one pod).
    pub mean_pods_spanned: f64,
    /// Worst single job.
    pub max_pods_spanned: usize,
}

/// Measures how many pods each job's host set touches on `topo`
/// ([`crate::placement::pods_spanned`]); jobs with no hosts (never
/// placed) are skipped. Returns zeros when nothing was placed.
pub fn placement_spread<'a, I>(topo: &Topology, placements: I) -> PlacementSpread
where
    I: IntoIterator<Item = &'a [echelon_simnet::ids::NodeId]>,
{
    let mut total = 0usize;
    let mut count = 0usize;
    let mut max = 0usize;
    for hosts in placements {
        if hosts.is_empty() {
            continue;
        }
        let spanned = crate::placement::pods_spanned(topo, hosts);
        total += spanned;
        max = max.max(spanned);
        count += 1;
    }
    PlacementSpread {
        mean_pods_spanned: if count > 0 {
            total as f64 / count as f64
        } else {
            0.0
        },
        max_pods_spanned: max,
    }
}

/// One tenant tier's slice of the steady state.
#[derive(Debug, Clone)]
pub struct TenantSteadyState {
    /// Tier name (from [`TenantSpec::name`]).
    pub name: String,
    /// Jobs of this tier finishing after warmup.
    pub completed: usize,
    /// Arrivals of this tier rejected at the full pending queue.
    pub rejected: usize,
    /// Completed jobs whose summed tardiness exceeded the tier's SLO.
    pub slo_violations: usize,
    /// `slo_violations / completed` (0 when nothing completed, and
    /// always 0 for a tier with no SLO).
    pub violation_rate: f64,
    /// 99th-percentile JCT within the tier.
    pub p99_jct: f64,
}

/// Service-level metrics over an open-loop run, measured past warmup.
#[derive(Debug, Clone)]
pub struct SteadyStateMetrics {
    /// Warmup cutoff used: jobs finishing at or before it are excluded.
    pub warmup: f64,
    /// Jobs completing after warmup.
    pub completed: usize,
    /// Completions per unit time over `(warmup, makespan]`.
    pub throughput: f64,
    /// Median JCT.
    pub p50_jct: f64,
    /// 99th-percentile JCT (nearest-rank).
    pub p99_jct: f64,
    /// Median per-job summed tardiness (Eq. 4 restricted to the job).
    pub p50_tardiness: f64,
    /// 99th-percentile per-job summed tardiness.
    pub p99_tardiness: f64,
    /// Per-tenant breakdown, in tier order.
    pub tenants: Vec<TenantSteadyState>,
}

/// Summed, clamped EchelonFlow tardiness of one finished job (Eq. 4
/// restricted to the job), from its retained groups.
fn job_tardiness(rec: &JobRecord, run: &RunResult) -> f64 {
    rec.echelons
        .iter()
        .filter_map(|h| echelon_tardiness_from_run(h, run))
        .map(|t| t.max(0.0))
        .sum()
}

/// Distills a service run's [`JobRecord`]s into steady-state SLO
/// metrics: throughput, JCT and tardiness percentiles, and per-tenant
/// SLO-violation rates, all over jobs finishing *after* `warmup` (the
/// ramp-up transient, where the cluster is still filling, would bias
/// every percentile down).
pub fn steady_state_metrics(
    records: &[JobRecord],
    run: &RunResult,
    tenants: &[TenantSpec],
    warmup: f64,
) -> SteadyStateMetrics {
    let mut jcts = Vec::new();
    let mut tards = Vec::new();
    let mut per_tenant: Vec<(usize, usize, Vec<f64>)> = vec![(0, 0, Vec::new()); tenants.len()];
    for rec in records {
        if rec.rejected {
            per_tenant[rec.tenant].1 += 1;
            continue;
        }
        let Some(finish) = rec.finished_at else {
            continue;
        };
        if finish <= warmup {
            continue;
        }
        let jct = finish - rec.arrival;
        let tardiness = job_tardiness(rec, run);
        jcts.push(jct);
        tards.push(tardiness);
        let slot = &mut per_tenant[rec.tenant];
        slot.2.push(jct);
        if tenants[rec.tenant]
            .slo_tardiness
            .is_some_and(|slo| tardiness > slo)
        {
            slot.0 += 1;
        }
    }
    jcts.sort_by(f64::total_cmp);
    tards.sort_by(f64::total_cmp);
    let completed = jcts.len();
    let window = run.makespan.secs() - warmup;
    let throughput = if window > 0.0 {
        completed as f64 / window
    } else {
        0.0
    };
    let tenants_out = tenants
        .iter()
        .zip(per_tenant)
        .map(|(spec, (violations, rejected, mut tier_jcts))| {
            tier_jcts.sort_by(f64::total_cmp);
            let completed = tier_jcts.len();
            TenantSteadyState {
                name: spec.name.clone(),
                completed,
                rejected,
                slo_violations: violations,
                violation_rate: if completed > 0 {
                    violations as f64 / completed as f64
                } else {
                    0.0
                },
                p99_jct: percentile(&tier_jcts, 0.99),
            }
        })
        .collect();
    SteadyStateMetrics {
        warmup,
        completed,
        throughput,
        p50_jct: percentile(&jcts, 0.5),
        p99_jct: percentile(&jcts, 0.99),
        p50_tardiness: percentile(&tards, 0.5),
        p99_tardiness: percentile(&tards, 0.99),
        tenants: tenants_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_workload, WorkloadConfig};
    use echelon_paradigms::ids::IdAlloc;
    use echelon_paradigms::runtime::run_jobs;
    use echelon_simnet::runner::{MaxMinPolicy, RunConfig};
    use echelon_simnet::topology::Topology;

    fn run_small() -> (Vec<crate::workload::GeneratedJob>, RunResult) {
        let cfg = WorkloadConfig::default_mix(5, 3, 16);
        let mut alloc = IdAlloc::new();
        let jobs = generate_workload(&cfg, &mut alloc);
        let topo = Topology::big_switch_uniform(16, 1.0);
        let dags: Vec<&_> = jobs.iter().map(|j| &j.dag).collect();
        let run = run_jobs(&topo, &dags, &mut MaxMinPolicy, &RunConfig::default());
        (jobs, run)
    }

    #[test]
    fn jct_is_finish_minus_arrival() {
        let (jobs, run) = run_small();
        let m = scenario_metrics(&jobs, &run);
        assert_eq!(m.jobs.len(), 3);
        for jm in &m.jobs {
            assert!(jm.jct > 0.0, "job {:?} has non-positive JCT", jm.job);
            assert!((jm.finish - jm.arrival - jm.jct).abs() < 1e-9);
        }
        assert!(m.mean_jct > 0.0);
        assert!(m.p95_jct >= m.mean_jct * 0.5);
        assert!(m.makespan >= m.jobs.iter().map(|j| j.finish).fold(0.0, f64::max) - 1e-9);
    }

    #[test]
    fn tardiness_is_reconstructed() {
        let (jobs, run) = run_small();
        let m = scenario_metrics(&jobs, &run);
        // Under plain fair sharing in a shared cluster, some EchelonFlow
        // is late (positive total tardiness) unless everything is
        // perfectly uncontended — either way the metric is finite.
        assert!(m.total_tardiness.is_finite());
        assert!(m.total_tardiness >= 0.0);
    }

    #[test]
    fn utilization_in_unit_range() {
        let (jobs, run) = run_small();
        let m = scenario_metrics(&jobs, &run);
        assert!(m.mean_utilization > 0.0);
        assert!(m.mean_utilization <= 1.0);
    }

    #[test]
    fn idle_placed_workers_drag_mean_utilization() {
        // One job placed on hosts {0, 1} but with all recorded busy time
        // on host 0: host 1 must enter the mean at 0, halving it.
        let (jobs, run) = run_small();
        let m = scenario_metrics(&jobs, &run);

        // Re-run the metric with one extra phantom placed host that never
        // shows up in worker_busy: the mean must strictly drop.
        let mut padded = jobs.clone();
        padded[0].placement.push(echelon_simnet::ids::NodeId(999));
        let m2 = scenario_metrics(&padded, &run);
        assert!(m2.mean_utilization < m.mean_utilization);
        let n = {
            let mut w: Vec<_> = jobs
                .iter()
                .flat_map(|j| j.placement.iter().copied())
                .collect();
            w.sort();
            w.dedup();
            w.len() as f64
        };
        assert!(
            (m2.mean_utilization - m.mean_utilization * n / (n + 1.0)).abs() < 1e-9,
            "idle host must contribute exactly one zero term"
        );
    }

    #[test]
    fn tardiness_from_run_none_for_unrun_flows() {
        let cfg = WorkloadConfig::default_mix(5, 1, 16);
        let mut alloc = IdAlloc::new();
        let jobs = generate_workload(&cfg, &mut alloc);
        let empty = empty_run();
        for h in &jobs[0].dag.echelons {
            assert!(echelon_tardiness_from_run(h, &empty).is_none());
        }
    }

    fn empty_run() -> RunResult {
        RunResult {
            comp_spans: Default::default(),
            comm_spans: Default::default(),
            flow_releases: Default::default(),
            flow_finishes: Default::default(),
            job_makespans: Default::default(),
            makespan: SimTime::ZERO,
            worker_busy: Default::default(),
            timeline: vec![],
            trace: Default::default(),
            stats: Default::default(),
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // The inlined p95 this helper replaced, on a 20-element slice:
        // ceil(20 * 0.95) = 19 → the 19th smallest.
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.95), 19.0);
    }

    fn record(
        job: u32,
        tenant: usize,
        arrival: f64,
        finished: Option<f64>,
        rejected: bool,
    ) -> JobRecord {
        JobRecord {
            job: JobId(job),
            tenant,
            arrival,
            admitted_at: finished.map(|_| arrival),
            finished_at: finished,
            rejected,
            echelons: Vec::new(),
            hosts: Vec::new(),
        }
    }

    #[test]
    fn steady_state_respects_warmup_and_empty_slo() {
        let tenants = vec![
            crate::workload::TenantSpec {
                name: "prod".into(),
                weight: 1.0,
                // A zero-tardiness job still "exceeds" a negative budget:
                // forces the violation path without needing a real run.
                slo_tardiness: Some(-1.0),
            },
            crate::workload::TenantSpec {
                name: "batch".into(),
                weight: 1.0,
                slo_tardiness: None,
            },
        ];
        let records = vec![
            record(0, 0, 0.0, Some(1.0), false), // inside warmup: dropped
            record(1, 0, 1.0, Some(4.0), false),
            record(2, 1, 1.0, Some(6.0), false),
            record(3, 1, 2.0, None, true), // rejected
        ];
        let mut run = empty_run();
        run.makespan = SimTime::new(6.0);
        let m = steady_state_metrics(&records, &run, &tenants, 2.0);
        assert_eq!(m.completed, 2);
        assert!((m.throughput - 2.0 / 4.0).abs() < 1e-12);
        assert_eq!(m.p50_jct, 3.0);
        assert_eq!(m.p99_jct, 5.0);
        // prod's negative SLO flags its one completed job…
        assert_eq!(m.tenants[0].slo_violations, 1);
        assert!((m.tenants[0].violation_rate - 1.0).abs() < 1e-12);
        // …while the SLO-less batch tier can never violate.
        assert_eq!(m.tenants[1].slo_violations, 0);
        assert_eq!(m.tenants[1].violation_rate, 0.0);
        assert_eq!(m.tenants[1].rejected, 1);
    }

    #[test]
    fn steady_state_over_real_service_run() {
        use crate::service::{run_service, service_parts, ServiceConfig, ServiceMode};
        use crate::workload::OpenLoopConfig;
        use echelon_simnet::fault::FaultPlan;

        let cfg = OpenLoopConfig::default_tiers(9, 15, 8, 0.6);
        let topo = Topology::big_switch_uniform(8, 1.0);
        let (feed, mut policy) = service_parts(
            &topo,
            &cfg,
            &ServiceConfig::default(),
            crate::scenario::SchedulerKind::Echelon,
            ServiceMode::Streaming,
        );
        let out = run_service(&topo, feed, &mut policy, &FaultPlan::new(Vec::new()));
        let m = steady_state_metrics(&out.records, &out.result, &cfg.tenants, 0.0);
        assert_eq!(m.completed, 15);
        assert!(m.throughput > 0.0);
        assert!(m.p50_jct > 0.0 && m.p99_jct >= m.p50_jct);
        assert!(m.p99_tardiness >= m.p50_tardiness);
        let per_tier: usize = m.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(per_tier, 15);
        for t in &m.tenants {
            assert!(t.violation_rate >= 0.0 && t.violation_rate <= 1.0);
        }
    }
}
