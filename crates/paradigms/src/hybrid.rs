//! Hybrid data + pipeline parallelism — the "future DDLT paradigms"
//! extensibility claim (§3.1, §7) made concrete.
//!
//! Real large-model training combines parallelisms (Megatron-LM trains
//! with DP × PP × TP). This module models the 2D case: `R` data-parallel
//! **replicas**, each an `S`-stage GPipe **pipeline**. Per iteration:
//!
//! 1. every replica runs its pipeline (activations/gradients between
//!    consecutive stages — staggered EchelonFlows, §4 Case II);
//! 2. after a stage finishes its backward micro-batches, the replicas
//!    all-reduce that stage's parameter gradients across the replica
//!    group (Coflows, §4 Case I);
//! 3. per-worker updates gate the next iteration.
//!
//! The job therefore mixes *both* arrangement types in one workload —
//! exactly the situation where a single Coflow abstraction cannot express
//! the pipeline part but EchelonFlow expresses everything. No new
//! machinery is needed: the paradigm composes the existing pipeline
//! builder with cross-replica collectives, demonstrating that "as long as
//! their computation patterns can be profiled", new paradigms fit the
//! abstraction.

use crate::config::PpConfig;
use crate::dag::{CompKind, CompLabel, DagBuilder, JobDag};
use crate::ids::{CompId, IdAlloc};
use crate::pp::{build_iteration, gpipe_program};
use echelon_collectives::{CollectiveOp, Style};
use echelon_core::JobId;
use echelon_simnet::ids::NodeId;

/// Hybrid DP×PP configuration.
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Workers per replica per stage: `replicas[r][s]` is the worker
    /// running stage `s` of replica `r`. All replicas must have the same
    /// stage count; all workers must be distinct.
    pub replicas: Vec<Vec<NodeId>>,
    /// Micro-batches per mini-batch (per replica).
    pub micro_batches: usize,
    /// Forward computation time per micro-batch per stage.
    pub fwd_time: f64,
    /// Backward computation time per micro-batch per stage.
    pub bwd_time: f64,
    /// Activation bytes between consecutive stages per micro-batch.
    pub activation_bytes: f64,
    /// Parameter-gradient bytes per stage, all-reduced across replicas.
    pub stage_grad_bytes: f64,
    /// Training iterations.
    pub iterations: usize,
}

/// Builds a hybrid DP×PP job.
///
/// # Panics
///
/// Panics on fewer than 2 replicas or stages, mismatched replica shapes,
/// or duplicate workers.
pub fn build_hybrid(job: JobId, cfg: &HybridConfig, alloc: &mut IdAlloc) -> JobDag {
    let replicas = cfg.replicas.len();
    assert!(replicas >= 2, "hybrid needs at least 2 replicas");
    let stages = cfg.replicas[0].len();
    assert!(stages >= 2, "hybrid needs at least 2 pipeline stages");
    for r in &cfg.replicas {
        assert_eq!(r.len(), stages, "replicas must have equal stage counts");
    }
    {
        let mut all: Vec<NodeId> = cfg.replicas.iter().flatten().copied().collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before, "replicas share a worker");
    }
    assert!(cfg.iterations >= 1, "need at least one iteration");
    assert!(
        cfg.stage_grad_bytes > 0.0 && cfg.stage_grad_bytes.is_finite(),
        "bad stage gradient size"
    );

    let mut b = DagBuilder::new(job, alloc);
    let programs = vec![gpipe_program(cfg.micro_batches); stages];

    // gates[r][s]: units that must finish before replica r's stage s
    // starts the next iteration (its own update, which itself waits for
    // the stage's cross-replica all-reduce).
    let mut gates: Vec<Vec<Vec<CompId>>> = vec![vec![Vec::new(); stages]; replicas];
    for iter in 0..cfg.iterations {
        // 1. Each replica's pipeline iteration.
        let mut per_replica = Vec::with_capacity(replicas);
        for (r, replica) in cfg.replicas.iter().enumerate() {
            let pp_cfg = PpConfig {
                placement: replica.clone(),
                micro_batches: cfg.micro_batches,
                fwd_time: cfg.fwd_time,
                bwd_time: cfg.bwd_time,
                activation_bytes: cfg.activation_bytes,
                iterations: 1,
            };
            per_replica.push(build_iteration(&mut b, &pp_cfg, &programs, &gates[r]));
        }

        // 2. Per stage: all-reduce the stage's gradients across replicas
        //    once every replica finished that stage's backwards.
        let mut stage_sync = Vec::with_capacity(stages);
        for s in 0..stages {
            let mut deps: Vec<CompId> = Vec::with_capacity(replicas * cfg.micro_batches);
            for it in &per_replica {
                deps.extend_from_slice(it.bwd_comp(s));
            }
            let group: Vec<NodeId> = (0..replicas).map(|r| cfg.replicas[r][s]).collect();
            let ar = b.comm_op(
                &CollectiveOp::AllReduce {
                    participants: group,
                    bytes: cfg.stage_grad_bytes,
                },
                Style::Ring,
                &deps,
                &[],
            );
            // §4 Case I: gradient synchronizations are Coflows.
            b.declare_collective(ar);
            stage_sync.push(ar);
        }

        // 3. Updates: each worker applies its stage's synchronized
        //    gradients; these gate the next iteration.
        for (r, replica) in cfg.replicas.iter().enumerate() {
            for (s, &worker) in replica.iter().enumerate() {
                let u = b.comp(
                    worker,
                    0.0,
                    CompKind::Update,
                    CompLabel::from("U").iteration(iter),
                    &[],
                    &[stage_sync[s]],
                );
                gates[r][s].clear();
                gates[r][s].push(u);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_jobs;
    use echelon_core::coflow::Coflow;
    use echelon_sched::echelon::{EchelonMadd, InterOrder};
    use echelon_simnet::runner::{MaxMinPolicy, RunConfig};
    use echelon_simnet::topology::Topology;

    fn cfg() -> HybridConfig {
        HybridConfig {
            // 2 replicas × 2 stages on workers 0..4.
            replicas: vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]],
            micro_batches: 3,
            fwd_time: 1.0,
            bwd_time: 1.0,
            activation_bytes: 1.0,
            stage_grad_bytes: 2.0,
            iterations: 1,
        }
    }

    #[test]
    fn dag_shape_mixes_both_arrangements() {
        let mut alloc = IdAlloc::new();
        let dag = build_hybrid(JobId(0), &cfg(), &mut alloc);
        // Comms: 2 replicas × 3 mbs × 2 directions p2p + 2 stage
        // all-reduces = 14.
        assert_eq!(dag.comms.len(), 14);
        // Echelons: per replica 2 (fwd+bwd) staggered + 2 coflow-shaped
        // all-reduce groups = 6.
        assert_eq!(dag.echelons.len(), 6);
        let staggered = dag
            .echelons
            .iter()
            .filter(|h| !h.is_coflow_compliant())
            .count();
        assert_eq!(staggered, 4);
        // 4 workers, 2 per replica.
        assert_eq!(dag.workers().len(), 4);
    }

    #[test]
    fn runs_end_to_end_under_fair_sharing() {
        let mut alloc = IdAlloc::new();
        let dag = build_hybrid(JobId(0), &cfg(), &mut alloc);
        let topo = Topology::big_switch_uniform(4, 1.0);
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
        // Every comp and flow completes.
        assert_eq!(out.comp_spans.len(), dag.comps.len());
        assert_eq!(out.flow_finishes.len(), dag.all_flows().len());
        // The all-reduce happens after the pipeline backward phase.
        assert!(out.makespan.secs() > 8.0);
    }

    #[test]
    fn echelon_scheduling_not_worse_than_coflow() {
        let topo = Topology::big_switch_uniform(4, 1.0);
        let mk = || {
            let mut alloc = IdAlloc::new();
            build_hybrid(JobId(0), &cfg(), &mut alloc)
        };
        let dag_e = mk();
        let mut pe = EchelonMadd::new(dag_e.echelons.clone());
        let e = run_jobs(&topo, &[&dag_e], &mut pe, &RunConfig::default())
            .comp_finish_time()
            .secs();
        let dag_c = mk();
        let coflows = dag_c.coflows.iter().cloned().map(Coflow::into_echelon);
        let mut pc = EchelonMadd::new(coflows.collect()).with_inter(InterOrder::LeastWork);
        let c = run_jobs(&topo, &[&dag_c], &mut pc, &RunConfig::default())
            .comp_finish_time()
            .secs();
        assert!(e <= c + 1e-6, "echelon {e} vs coflow {c}");
    }

    #[test]
    fn multi_iteration_chains_through_allreduce() {
        let mut alloc = IdAlloc::new();
        let mut c = cfg();
        c.iterations = 2;
        let dag = build_hybrid(JobId(0), &c, &mut alloc);
        let topo = Topology::big_switch_uniform(4, 1.0);
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
        // Second iteration's first forward starts after the first
        // iteration's all-reduces.
        let first_ar_end = out
            .comm_spans
            .values()
            .map(|&(_, end)| end)
            .fold(echelon_simnet::time::SimTime::INFINITY, |a, b| a.min(b));
        let late_forwards: Vec<_> = out
            .timeline
            .iter()
            .filter(|e| e.kind == CompKind::Forward)
            .collect();
        // 2 iterations × 2 replicas × 2 stages × 3 mbs forwards ran.
        assert_eq!(late_forwards.len(), 24);
        assert!(first_ar_end.is_finite());
    }

    #[test]
    #[should_panic(expected = "share a worker")]
    fn overlapping_replicas_rejected() {
        let mut alloc = IdAlloc::new();
        let mut c = cfg();
        c.replicas[1][0] = NodeId(0);
        let _ = build_hybrid(JobId(0), &c, &mut alloc);
    }
}
