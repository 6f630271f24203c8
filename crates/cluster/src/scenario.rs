//! End-to-end scenario runner: one workload, many schedulers.
//!
//! This is the engine behind the paper's implied multi-tenant evaluation
//! (experiment E10): generate a seeded workload, run it under each
//! scheduler, and compare the global objective (Eq. 4), job completion
//! times and utilization.

use crate::metrics::{scenario_metrics, ScenarioMetrics};
use crate::workload::{generate_workload_on, GeneratedJob, WorkloadConfig};
use echelon_paradigms::dag::JobDag;
use echelon_paradigms::ids::IdAlloc;
use echelon_paradigms::runtime::{
    make_policy, run_jobs, run_jobs_faulted, run_jobs_with, Grouping, RunResult,
};
use echelon_sched::baselines::{FifoPolicy, SrptPolicy};
use echelon_simnet::fault::FaultPlan;
use echelon_simnet::runner::{MaxMinPolicy, RatePolicy, RecomputeMode};
use echelon_simnet::topology::Topology;

/// The schedulers a scenario can compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Per-flow max-min fair sharing.
    Fair,
    /// Per-flow FIFO.
    Fifo,
    /// Per-flow SRPT.
    Srpt,
    /// Varys/MADD over the Coflow formulation.
    Coflow,
    /// EchelonFlow scheduling (the paper's contribution).
    Echelon,
}

impl SchedulerKind {
    /// All comparable schedulers in report order.
    pub const ALL: [SchedulerKind; 5] = [
        SchedulerKind::Fair,
        SchedulerKind::Fifo,
        SchedulerKind::Srpt,
        SchedulerKind::Coflow,
        SchedulerKind::Echelon,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Fair => "fair",
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::Srpt => "srpt",
            SchedulerKind::Coflow => "coflow",
            SchedulerKind::Echelon => "echelon",
        }
    }
}

/// A fresh policy instance for one scheduler over one job set.
fn policy_for(kind: SchedulerKind, dags: &[&JobDag]) -> Box<dyn RatePolicy> {
    match kind {
        SchedulerKind::Fair => Box::new(MaxMinPolicy),
        SchedulerKind::Fifo => Box::new(FifoPolicy),
        SchedulerKind::Srpt => Box::new(SrptPolicy),
        SchedulerKind::Coflow => make_policy(Grouping::Coflow, dags),
        SchedulerKind::Echelon => make_policy(Grouping::Echelon, dags),
    }
}

/// A prepared scenario: topology + generated jobs.
pub struct Scenario {
    /// Fabric everything runs on.
    pub topology: Topology,
    /// Generated, arrival-gated jobs.
    pub jobs: Vec<GeneratedJob>,
}

impl Scenario {
    /// Generates a scenario from a workload config (big-switch fabric
    /// with unit NIC capacity).
    pub fn generate(cfg: &WorkloadConfig) -> Scenario {
        Scenario::generate_on(cfg, Topology::big_switch_uniform(cfg.hosts, 1.0))
    }

    /// Generates a scenario on a custom fabric (e.g. an oversubscribed
    /// fat-tree, where placement actually matters). The topology's first
    /// `cfg.hosts` nodes must be hosts. Placement sees the fabric:
    /// pod-aware policies read its pod partition, contention-aware ones
    /// its routes.
    pub fn generate_on(cfg: &WorkloadConfig, topology: Topology) -> Scenario {
        assert!(
            topology.num_nodes() >= cfg.hosts,
            "topology has {} nodes but the workload needs {} hosts",
            topology.num_nodes(),
            cfg.hosts
        );
        let mut alloc = IdAlloc::new();
        let jobs = generate_workload_on(cfg, &topology, &mut alloc);
        Scenario { topology, jobs }
    }

    /// Runs the scenario under one scheduler.
    pub fn run(&self, kind: SchedulerKind) -> (RunResult, ScenarioMetrics) {
        self.run_with_mode(kind, RecomputeMode::Full)
    }

    /// Runs the scenario under one scheduler with an explicit recompute
    /// mode (Full and Incremental are bit-identical by contract).
    pub fn run_with_mode(
        &self,
        kind: SchedulerKind,
        mode: RecomputeMode,
    ) -> (RunResult, ScenarioMetrics) {
        let dags: Vec<&_> = self.jobs.iter().map(|j| &j.dag).collect();
        let mut policy = policy_for(kind, &dags);
        let run = run_jobs_with(&self.topology, &dags, policy.as_mut(), mode);
        let metrics = scenario_metrics(&self.jobs, &run);
        (run, metrics)
    }

    /// Runs the scenario under one scheduler with an injected fault plan
    /// (link churn, coordinator outages, stragglers — see
    /// [`crate::churn`]). Full and Incremental stay bit-identical here
    /// too: faults force a recompute through every policy's invalidation
    /// hook.
    pub fn run_faulted(
        &self,
        kind: SchedulerKind,
        mode: RecomputeMode,
        plan: &FaultPlan,
    ) -> (RunResult, ScenarioMetrics) {
        let dags: Vec<&_> = self.jobs.iter().map(|j| &j.dag).collect();
        let mut policy = policy_for(kind, &dags);
        let run = run_jobs_faulted(&self.topology, &dags, policy.as_mut(), mode, plan);
        let metrics = scenario_metrics(&self.jobs, &run);
        (run, metrics)
    }

    /// Runs the scenario under a caller-supplied policy (for ablations).
    pub fn run_with(&self, policy: &mut dyn RatePolicy) -> (RunResult, ScenarioMetrics) {
        let dags: Vec<&_> = self.jobs.iter().map(|j| &j.dag).collect();
        let run = run_jobs(&self.topology, &dags, policy);
        let metrics = scenario_metrics(&self.jobs, &run);
        (run, metrics)
    }

    /// Runs the scenario under **all** schedulers, fanning the runs out
    /// across worker threads via [`echelon_simnet::sweep`]. The runs
    /// share nothing (each builds its own policy), results come back in
    /// [`SchedulerKind::ALL`] order regardless of thread count, and each
    /// run is bit-identical to its serial [`Scenario::run_with_mode`]
    /// counterpart.
    pub fn run_all(&self, mode: RecomputeMode) -> Vec<(SchedulerKind, RunResult, ScenarioMetrics)> {
        echelon_simnet::sweep::sweep(&SchedulerKind::ALL, |_, &kind| {
            let (run, metrics) = self.run_with_mode(kind, mode);
            (kind, run, metrics)
        })
    }
}

/// Convenience: generate and run one workload under one scheduler.
pub fn run_scenario(cfg: &WorkloadConfig, kind: SchedulerKind) -> ScenarioMetrics {
    Scenario::generate(cfg).run(kind).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schedulers_complete_the_same_workload() {
        let cfg = WorkloadConfig::default_mix(13, 4, 24);
        let scenario = Scenario::generate(&cfg);
        for kind in SchedulerKind::ALL {
            let (_, m) = scenario.run(kind);
            assert_eq!(m.jobs.len(), 4, "{} lost jobs", kind.name());
            assert!(m.makespan > 0.0);
        }
    }

    /// The headline multi-tenant shape: EchelonFlow scheduling achieves
    /// no worse total tardiness than Coflow scheduling on a mixed
    /// (pipeline-containing) workload.
    #[test]
    fn echelon_beats_or_ties_coflow_on_tardiness() {
        let cfg = WorkloadConfig::default_mix(17, 5, 32);
        let scenario = Scenario::generate(&cfg);
        let (_, coflow) = scenario.run(SchedulerKind::Coflow);
        let (_, echelon) = scenario.run(SchedulerKind::Echelon);
        assert!(
            echelon.total_tardiness <= coflow.total_tardiness + 1e-6,
            "echelon {} vs coflow {}",
            echelon.total_tardiness,
            coflow.total_tardiness
        );
    }

    /// Incremental recomputation is bit-identical to Full on the gated
    /// multi-tenant workload for every scheduler.
    #[test]
    fn incremental_mode_matches_full_on_cluster_workload() {
        let cfg = WorkloadConfig::default_mix(29, 4, 24);
        let scenario = Scenario::generate(&cfg);
        for kind in SchedulerKind::ALL {
            let (full, _) = scenario.run_with_mode(kind, RecomputeMode::Full);
            let (inc, _) = scenario.run_with_mode(kind, RecomputeMode::Incremental);
            assert_eq!(
                full.trace.events(),
                inc.trace.events(),
                "{} trace diverged between modes",
                kind.name()
            );
            assert_eq!(full.flow_finishes, inc.flow_finishes);
            assert_eq!(full.job_makespans, inc.job_makespans);
        }
    }

    /// The parallel all-schedulers fan-out returns results in `ALL` order
    /// and each run is bit-identical to its serial counterpart, for both
    /// the default thread count and a forced multi-thread sweep.
    #[test]
    fn run_all_matches_serial_runs_bitwise() {
        let cfg = WorkloadConfig::default_mix(41, 4, 24);
        let scenario = Scenario::generate(&cfg);
        let serial: Vec<_> = SchedulerKind::ALL
            .iter()
            .map(|&k| scenario.run_with_mode(k, RecomputeMode::Incremental))
            .collect();
        let check = |results: &[(SchedulerKind, RunResult, ScenarioMetrics)]| {
            assert_eq!(results.len(), SchedulerKind::ALL.len());
            for (i, (kind, run, metrics)) in results.iter().enumerate() {
                assert_eq!(*kind, SchedulerKind::ALL[i], "result order broke");
                let (sr, sm) = &serial[i];
                assert_eq!(run.trace.events(), sr.trace.events(), "{}", kind.name());
                assert_eq!(run.flow_finishes, sr.flow_finishes);
                assert_eq!(metrics.mean_jct.to_bits(), sm.mean_jct.to_bits());
                assert_eq!(
                    metrics.total_tardiness.to_bits(),
                    sm.total_tardiness.to_bits()
                );
            }
        };
        check(&scenario.run_all(RecomputeMode::Incremental));
        // Forced multi-thread sweep over the same grid.
        let forced = echelon_simnet::sweep::sweep_with(4, &SchedulerKind::ALL, |_, &kind| {
            let (run, metrics) = scenario.run_with_mode(kind, RecomputeMode::Incremental);
            (kind, run, metrics)
        });
        check(&forced);
    }

    /// Under randomized churn every scheduler still completes the
    /// workload, Full and Incremental remain bit-identical, and the
    /// faulted run is never faster than the fault-free one.
    #[test]
    fn churn_preserves_differential_identity_for_all_schedulers() {
        use crate::churn::{random_fault_plan, ChurnConfig};

        let cfg = WorkloadConfig::default_mix(43, 3, 16);
        let scenario = Scenario::generate(&cfg);
        let plan = random_fault_plan(43, &scenario.topology, &ChurnConfig::default());
        assert!(!plan.is_empty());
        for kind in SchedulerKind::ALL {
            let (clean, _) = scenario.run_with_mode(kind, RecomputeMode::Full);
            let (full, m) = scenario.run_faulted(kind, RecomputeMode::Full, &plan);
            let (inc, _) = scenario.run_faulted(kind, RecomputeMode::Incremental, &plan);
            assert_eq!(
                full.trace.events(),
                inc.trace.events(),
                "{} faulted trace diverged between modes",
                kind.name()
            );
            assert_eq!(full.flow_finishes, inc.flow_finishes);
            assert_eq!(m.jobs.len(), 3, "{} lost jobs under churn", kind.name());
            assert!(
                full.makespan.secs() + 1e-9 >= clean.makespan.secs(),
                "{} got faster under churn",
                kind.name()
            );
            assert_eq!(full.stats.fault_events, plan.len());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = WorkloadConfig::default_mix(23, 3, 16);
        let a = run_scenario(&cfg, SchedulerKind::Echelon);
        let b = run_scenario(&cfg, SchedulerKind::Echelon);
        assert_eq!(a.mean_jct, b.mean_jct);
        assert_eq!(a.total_tardiness, b.total_tardiness);
    }
}
