//! Tensor parallelism (Megatron), paper Fig. 5.
//!
//! Every layer is sharded across all workers. The forward pass of layer
//! `l` computes on the local shard and then all-reduces the activations
//! (AS_l); the backward pass all-reduces the gradients per layer (GS_l).
//! Each all-reduce barriers the next layer's computation on *every*
//! worker, so per §4 Case I its all-to-all flows form a **Coflow** —
//! TP is Coflow-compliant (Table 1).

use crate::config::TpConfig;
use crate::dag::{CompKind, CompLabel, DagBuilder, JobDag};
use crate::ids::{CommId, CompId, IdAlloc};
use echelon_collectives::{CollectiveOp, Style};
use echelon_core::JobId;

/// Builds a Megatron-style TP job.
pub fn build_tp(job: JobId, cfg: &TpConfig, alloc: &mut IdAlloc) -> JobDag {
    assert!(cfg.placement.len() >= 2, "TP needs at least 2 workers");
    assert!(cfg.layers >= 1, "TP needs at least one layer");
    assert!(cfg.iterations >= 1, "need at least one iteration");
    let mut b = DagBuilder::new(job, alloc);
    let workers = &cfg.placement;
    // Every layer's activation and gradient all-reduce moves the same
    // payload among the same workers.
    let sync_op = CollectiveOp::AllToAll {
        participants: workers.clone(),
        bytes: cfg.activation_bytes / (workers.len() as f64 - 1.0).max(1.0),
    };

    let mut prev_barrier: Option<CommId> = None;
    let mut comps: Vec<CompId> = Vec::with_capacity(workers.len());
    for iter in 0..cfg.iterations {
        // Forward: layer computation, then activation all-reduce; then
        // backward: layer computation, then gradient all-reduce, deepest
        // layer first.
        let forward = (1..=cfg.layers).map(|l| (l, "F", CompKind::Forward, cfg.fwd_time_per_layer));
        let backward = (1..=cfg.layers)
            .rev()
            .map(|l| (l, "B", CompKind::Backward, cfg.bwd_time_per_layer));
        for (l, tag, kind, duration) in forward.chain(backward) {
            comps.clear();
            for &node in workers {
                comps.push(b.comp(
                    node,
                    duration,
                    kind,
                    CompLabel::from(tag).index(l).iteration(iter),
                    &[],
                    prev_barrier.as_slice(),
                ));
            }
            let sync = b.comm_op(&sync_op, Style::Direct, &comps, &[]);
            b.declare_collective(sync);
            prev_barrier = Some(sync);
        }
        // Update barrier.
        for &node in workers {
            b.comp(
                node,
                0.0,
                CompKind::Update,
                CompLabel::from("U").iteration(iter),
                &[],
                prev_barrier.as_slice(),
            );
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_jobs;
    use echelon_simnet::ids::NodeId;
    use echelon_simnet::runner::{MaxMinPolicy, RunConfig};
    use echelon_simnet::time::SimTime;
    use echelon_simnet::topology::Topology;

    fn cfg() -> TpConfig {
        TpConfig {
            placement: vec![NodeId(0), NodeId(1)],
            layers: 2,
            fwd_time_per_layer: 1.0,
            bwd_time_per_layer: 1.0,
            activation_bytes: 2.0,
            iterations: 1,
        }
    }

    #[test]
    fn dag_shape() {
        let mut alloc = IdAlloc::new();
        let dag = build_tp(JobId(0), &cfg(), &mut alloc);
        // 2 workers × (2 fwd + 2 bwd + update) = 10 comps.
        assert_eq!(dag.comps.len(), 10);
        // 2 AS + 2 GS all-reduces.
        assert_eq!(dag.comms.len(), 4);
        assert_eq!(dag.coflows.len(), 4);
        assert!(dag.echelons.iter().all(|h| h.is_coflow_compliant()));
    }

    #[test]
    fn layers_are_serialized_by_allreduces() {
        let mut alloc = IdAlloc::new();
        let dag = build_tp(JobId(0), &cfg(), &mut alloc);
        let topo = Topology::big_switch_uniform(2, 1.0);
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
        // F1 [0,1]; AS1: 2 flows of 2 B on disjoint port pairs → [1,3];
        // F2 [3,4]; AS2 [4,6]; B2 [6,7]; GS2 [7,9]; B1 [9,10]; GS1
        // [10,12]; update at 12.
        assert!(
            out.makespan.approx_eq(SimTime::new(12.0)),
            "{:?}",
            out.makespan
        );
        // Each worker computes 4 of the 12 seconds.
        assert!((out.idle_fraction(NodeId(0)) - 8.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn multi_iteration() {
        let mut alloc = IdAlloc::new();
        let mut c = cfg();
        c.iterations = 2;
        let dag = build_tp(JobId(0), &c, &mut alloc);
        assert_eq!(dag.comms.len(), 8);
        let topo = Topology::big_switch_uniform(2, 1.0);
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
        assert!(out.makespan.approx_eq(SimTime::new(24.0)));
    }
}
