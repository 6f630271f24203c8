//! End-to-end scenario runner: one workload, many schedulers.
//!
//! This is the engine behind the paper's implied multi-tenant evaluation
//! (experiment E10): generate a seeded workload, run it under each
//! scheduler, and compare the global objective (Eq. 4), job completion
//! times and utilization. [`Scenario::run`] runs one scheduler kind and
//! [`Scenario::run_with`] a caller's policy, each under a fault plan and
//! with the trace on, which the metrics read.

use crate::metrics::{scenario_metrics, ScenarioMetrics};
use crate::workload::{generate_workload_on, GeneratedJob, WorkloadConfig};
use echelon_agent::coordinator::{CoordinatedPolicy, Coordinator, CoordinatorConfig};
use echelon_core::coflow::Coflow;
use echelon_paradigms::dag::JobDag;
use echelon_paradigms::ids::IdAlloc;
use echelon_paradigms::runtime::{run_jobs, RunResult};
use echelon_sched::baselines::{FifoPolicy, SrptPolicy};
use echelon_sched::echelon::InterOrder;
use echelon_simnet::fault::FaultPlan;
use echelon_simnet::runner::{MaxMinPolicy, RatePolicy, RunConfig};
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
    /// The Coflow formulation: the paper's coordinator over each job's
    /// Coflows as one-stage EchelonFlows, ranked by least work (Varys'
    /// smallest-bottleneck-first order).
    Coflow,
    /// EchelonFlow scheduling (the paper's contribution): the paper's
    /// coordinator at its defaults over each job's EchelonFlows.
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

    /// A fresh scheduler of this kind over `dags`. The grouped kinds
    /// are the paper's global coordinator (§5) with every declared group
    /// of `dags` registered; the per-flow kinds keep no group state.
    pub fn policy(self, dags: &[&JobDag]) -> Box<dyn RatePolicy> {
        match self {
            SchedulerKind::Fair => Box::new(MaxMinPolicy),
            SchedulerKind::Fifo => Box::new(FifoPolicy),
            SchedulerKind::Srpt => Box::new(SrptPolicy),
            SchedulerKind::Coflow | SchedulerKind::Echelon => {
                Box::new(self.coordinator(dags).expect("a grouped kind"))
            }
        }
    }

    /// The coordinator a grouped kind runs, with `dags`' groups
    /// registered; `None` for the per-flow kinds.
    pub(crate) fn coordinator(self, dags: &[&JobDag]) -> Option<CoordinatedPolicy> {
        let (groups, inter) = self.grouped(
            || {
                dags.iter()
                    .flat_map(|d| d.echelons.iter().cloned())
                    .collect::<Vec<_>>()
            },
            || {
                let coflows = dags.iter().flat_map(|d| d.coflows.iter().cloned());
                coflows.map(Coflow::into_echelon).collect()
            },
        )?;
        let mut coordinator = Coordinator::new(CoordinatorConfig {
            inter,
            ..CoordinatorConfig::default()
        });
        coordinator.submit_all(groups);
        Some(coordinator.into_policy())
    }

    /// Which of a job's two group lists a grouped kind schedules, and how
    /// the coordinator ranks them: echelon takes the EchelonFlows in the
    /// paper's default order, coflow the Coflows (as one-stage
    /// EchelonFlows) by least work. `None` for the per-flow kinds. Only
    /// the chosen list is built.
    pub(crate) fn grouped<T>(
        self,
        echelons: impl FnOnce() -> T,
        coflows: impl FnOnce() -> T,
    ) -> Option<(T, InterOrder)> {
        match self {
            SchedulerKind::Echelon => Some((echelons(), CoordinatorConfig::default().inter)),
            SchedulerKind::Coflow => Some((coflows(), InterOrder::LeastWork)),
            SchedulerKind::Fair | SchedulerKind::Fifo | SchedulerKind::Srpt => None,
        }
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

    /// Runs the scenario under one scheduler with a fault plan (link
    /// churn, coordinator outages, stragglers — see [`crate::churn`]).
    /// Faults force a recompute through every policy's invalidation hook.
    pub fn run(&self, kind: SchedulerKind, plan: &FaultPlan) -> (RunResult, ScenarioMetrics) {
        let dags: Vec<&_> = self.jobs.iter().map(|j| &j.dag).collect();
        self.run_with(kind.policy(&dags).as_mut(), plan)
    }

    /// Runs the scenario under a caller-supplied policy (for ablations),
    /// at the default [`RunConfig`] with `plan`: the trace stays on,
    /// since [`scenario_metrics`] reads the unit timeline.
    pub fn run_with(
        &self,
        policy: &mut dyn RatePolicy,
        plan: &FaultPlan,
    ) -> (RunResult, ScenarioMetrics) {
        let dags: Vec<&_> = self.jobs.iter().map(|j| &j.dag).collect();
        let config = RunConfig::from(plan.clone());
        let run = run_jobs(&self.topology, &dags, policy, &config);
        let metrics = scenario_metrics(&self.jobs, &run);
        (run, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echelon_simnet::runner::FullRecompute;

    /// The scenario under `kind` with its policy wrapped in
    /// [`FullRecompute`]: the reference for the plain run.
    fn run_full(scenario: &Scenario, kind: SchedulerKind, plan: &FaultPlan) -> RunResult {
        let dags: Vec<&_> = scenario.jobs.iter().map(|j| &j.dag).collect();
        let mut policy = FullRecompute(kind.policy(&dags));
        let config = RunConfig::from(plan.clone());
        run_jobs(&scenario.topology, &dags, &mut policy, &config)
    }

    #[test]
    fn all_schedulers_complete_the_same_workload() {
        let cfg = WorkloadConfig::default_mix(13, 4, 24);
        let scenario = Scenario::generate(&cfg);
        for kind in SchedulerKind::ALL {
            let (_, m) = scenario.run(kind, &FaultPlan::empty());
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
        let (_, coflow) = scenario.run(SchedulerKind::Coflow, &FaultPlan::empty());
        let (_, echelon) = scenario.run(SchedulerKind::Echelon, &FaultPlan::empty());
        assert!(
            echelon.total_tardiness <= coflow.total_tardiness + 1e-6,
            "echelon {} vs coflow {}",
            echelon.total_tardiness,
            coflow.total_tardiness
        );
    }

    /// The delta path is bit-identical to the from-scratch reference on
    /// the gated multi-tenant workload for every scheduler.
    #[test]
    fn incremental_mode_matches_full_on_cluster_workload() {
        let cfg = WorkloadConfig::default_mix(29, 4, 24);
        let scenario = Scenario::generate(&cfg);
        for kind in SchedulerKind::ALL {
            let full = run_full(&scenario, kind, &FaultPlan::empty());
            let (inc, _) = scenario.run(kind, &FaultPlan::empty());
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

    /// Under randomized churn every scheduler still completes the
    /// workload, the delta path stays bit-identical to the from-scratch
    /// reference, and the faulted run is never faster than the
    /// fault-free one.
    #[test]
    fn churn_preserves_differential_identity_for_all_schedulers() {
        use crate::churn::{random_fault_plan, ChurnConfig};

        let cfg = WorkloadConfig::default_mix(43, 3, 16);
        let scenario = Scenario::generate(&cfg);
        let plan = random_fault_plan(43, &scenario.topology, &ChurnConfig::default());
        assert!(!plan.is_empty());
        for kind in SchedulerKind::ALL {
            let (clean, _) = scenario.run(kind, &FaultPlan::empty());
            let full = run_full(&scenario, kind, &plan);
            let (inc, m) = scenario.run(kind, &plan);
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

    /// The grouped kinds are the paper's coordinator, so a coordinator
    /// outage covering the whole run degrades them to fair sharing:
    /// every flow finishes with the same bits as under `Fair`.
    #[test]
    fn grouped_runs_honour_a_coordinator_outage() {
        use echelon_simnet::fault::FaultKind;
        use echelon_simnet::time::SimTime;

        let plan = FaultPlan::empty()
            .with(SimTime::ZERO, FaultKind::CoordinatorDown)
            .with(SimTime::new(1e6), FaultKind::CoordinatorUp);
        let bits = |r: &RunResult| -> Vec<_> {
            let finishes = r.flow_finishes.iter();
            finishes.map(|(&id, t)| (id, t.secs().to_bits())).collect()
        };
        for seed in [13, 29] {
            let scenario = Scenario::generate(&WorkloadConfig::default_mix(seed, 4, 24));
            let (fair, _) = scenario.run(SchedulerKind::Fair, &plan);
            for kind in [SchedulerKind::Echelon, SchedulerKind::Coflow] {
                let (run, _) = scenario.run(kind, &plan);
                let full = run_full(&scenario, kind, &plan);
                let at = format!("seed {seed}, {}", kind.name());
                assert_eq!(bits(&run), bits(&fair), "{at}");
                assert_eq!(bits(&full), bits(&fair), "{at}, full recompute");
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = WorkloadConfig::default_mix(23, 3, 16);
        let (_, a) = Scenario::generate(&cfg).run(SchedulerKind::Echelon, &FaultPlan::empty());
        let (_, b) = Scenario::generate(&cfg).run(SchedulerKind::Echelon, &FaultPlan::empty());
        assert_eq!(a.mean_jct, b.mean_jct);
        assert_eq!(a.total_tardiness, b.total_tardiness);
    }
}
