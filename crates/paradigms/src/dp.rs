//! Data parallelism: AllReduce and Parameter-Server variants (paper
//! Fig. 4).
//!
//! Every worker holds a full model replica. Per iteration it runs one
//! forward block, then produces gradient buckets back-to-back during the
//! backward pass (last layer's bucket first, as frameworks bucket
//! gradients \[33\]); each bucket is synchronized as soon as every worker
//! has produced it — by a ring all-reduce (AllReduce variant) or a push to
//! the PS (PS variant, followed by a weight pull that gates the next
//! iteration).
//!
//! Per §4 Case I, every gradient-synchronization collective forms a
//! **Coflow**: the training can only move past the bucket when *all* its
//! flows finish, so the EchelonFlow formulation uses the degenerate Eq. 5
//! arrangement — DP is Coflow-compliant (Table 1).

use crate::config::DpConfig;
use crate::dag::{CompKind, CompLabel, DagBuilder, JobDag};
use crate::ids::{CompId, IdAlloc};
use echelon_collectives::{CollectiveOp, Style};
use echelon_core::JobId;

fn validate(cfg: &DpConfig) {
    assert!(cfg.placement.len() >= 2, "DP needs at least 2 workers");
    assert!(!cfg.bucket_bytes.is_empty(), "DP needs at least one bucket");
    assert!(cfg.iterations >= 1, "need at least one iteration");
    for &b in &cfg.bucket_bytes {
        assert!(b > 0.0 && b.is_finite(), "bad bucket size {b}");
    }
}

/// Builds a DP job with ring all-reduce gradient synchronization.
pub fn build_dp_allreduce(job: JobId, cfg: &DpConfig, alloc: &mut IdAlloc) -> JobDag {
    validate(cfg);
    let mut b = DagBuilder::new(job, alloc);
    let workers = &cfg.placement;
    let buckets = cfg.bucket_bytes.len();

    // Chained across iterations through each worker's program order plus
    // the all-buckets barrier before the update.
    let mut prev_update: Vec<Option<CompId>> = vec![None; workers.len()];
    for iter in 0..cfg.iterations {
        // Forward on every worker.
        for (w, &node) in workers.iter().enumerate() {
            b.comp(
                node,
                cfg.fwd_time,
                CompKind::Forward,
                CompLabel::from("F").iteration(iter),
                prev_update[w].as_slice(),
                &[],
            );
        }

        // Backward buckets and their all-reduces.
        let mut syncs = Vec::with_capacity(buckets);
        for (l, &bytes) in cfg.bucket_bytes.iter().enumerate() {
            let bwds: Vec<CompId> = workers
                .iter()
                .map(|&node| {
                    b.comp(
                        node,
                        cfg.bwd_time_per_bucket,
                        CompKind::Backward,
                        CompLabel::from("B").index(buckets - l).iteration(iter),
                        &[],
                        &[],
                    )
                })
                .collect();
            let ar = b.comm_op(
                &CollectiveOp::AllReduce {
                    participants: workers.clone(),
                    bytes,
                },
                Style::Ring,
                &bwds,
                &[],
            );
            b.declare_collective(ar);
            syncs.push(ar);
        }

        // Update barrier: all buckets synchronized.
        prev_update = workers
            .iter()
            .map(|&node| {
                Some(b.comp(
                    node,
                    0.0,
                    CompKind::Update,
                    CompLabel::from("U").iteration(iter),
                    &[],
                    &syncs,
                ))
            })
            .collect();
    }
    b.build()
}

/// Builds a DP job whose gradient synchronization uses a two-level
/// hierarchical all-reduce over the given `groups` (racks). The flat
/// workers list is the concatenation of the groups; everything else
/// matches [`build_dp_allreduce`]. Use on rack-structured fabrics where
/// only group leaders should cross the oversubscribed core.
///
/// # Panics
///
/// Panics if the groups do not partition `cfg.placement` in order.
pub fn build_dp_hierarchical(
    job: JobId,
    cfg: &DpConfig,
    groups: &[Vec<echelon_simnet::ids::NodeId>],
    alloc: &mut IdAlloc,
) -> JobDag {
    validate(cfg);
    let flat: Vec<_> = groups.iter().flatten().copied().collect();
    assert_eq!(
        flat, cfg.placement,
        "groups must partition cfg.placement in order"
    );
    let mut b = DagBuilder::new(job, alloc);
    let workers = &cfg.placement;
    let buckets = cfg.bucket_bytes.len();

    let mut prev_update: Vec<Option<CompId>> = vec![None; workers.len()];
    for iter in 0..cfg.iterations {
        for (w, &node) in workers.iter().enumerate() {
            b.comp(
                node,
                cfg.fwd_time,
                CompKind::Forward,
                CompLabel::from("F").iteration(iter),
                prev_update[w].as_slice(),
                &[],
            );
        }
        let mut syncs = Vec::with_capacity(buckets);
        for (l, &bytes) in cfg.bucket_bytes.iter().enumerate() {
            let bwds: Vec<CompId> = workers
                .iter()
                .map(|&node| {
                    b.comp(
                        node,
                        cfg.bwd_time_per_bucket,
                        CompKind::Backward,
                        CompLabel::from("B").index(buckets - l).iteration(iter),
                        &[],
                        &[],
                    )
                })
                .collect();
            let d = echelon_collectives::hierarchical_allreduce(groups, bytes, b.flow_ids());
            let ar = b.comm("hierarchical-allreduce", d.stages, &bwds, &[]);
            b.declare_collective(ar);
            syncs.push(ar);
        }
        prev_update = workers
            .iter()
            .map(|&node| {
                Some(b.comp(
                    node,
                    0.0,
                    CompKind::Update,
                    CompLabel::from("U").iteration(iter),
                    &[],
                    &syncs,
                ))
            })
            .collect();
    }
    b.build()
}

/// Builds a DP job with parameter-server gradient synchronization.
///
/// # Panics
///
/// Panics if `cfg.ps` is unset.
pub fn build_dp_ps(job: JobId, cfg: &DpConfig, alloc: &mut IdAlloc) -> JobDag {
    validate(cfg);
    let ps = cfg.ps.expect("PS variant requires cfg.ps");
    let mut b = DagBuilder::new(job, alloc);
    let workers = &cfg.placement;
    let buckets = cfg.bucket_bytes.len();

    let mut prev_update: Vec<Option<CompId>> = vec![None; workers.len()];
    for iter in 0..cfg.iterations {
        for (w, &node) in workers.iter().enumerate() {
            b.comp(
                node,
                cfg.fwd_time,
                CompKind::Forward,
                CompLabel::from("F").iteration(iter),
                prev_update[w].as_slice(),
                &[],
            );
        }

        // Push each bucket to the PS as it is produced.
        let mut pushes = Vec::with_capacity(buckets);
        for (l, &bytes) in cfg.bucket_bytes.iter().enumerate() {
            let bwds: Vec<CompId> = workers
                .iter()
                .map(|&node| {
                    b.comp(
                        node,
                        cfg.bwd_time_per_bucket,
                        CompKind::Backward,
                        CompLabel::from("B").index(buckets - l).iteration(iter),
                        &[],
                        &[],
                    )
                })
                .collect();
            let push = b.comm_op(
                &CollectiveOp::PsPush {
                    workers: workers.clone(),
                    ps,
                    bytes,
                },
                Style::Direct,
                &bwds,
                &[],
            );
            b.declare_collective(push);
            pushes.push(push);
        }

        // The PS aggregates and sends fresh weights back; per §4, "the
        // completion of them all signifies the start of the next training
        // iteration" — another Coflow.
        let total_weights: f64 = cfg.bucket_bytes.iter().sum();
        let pull = b.comm_op(
            &CollectiveOp::PsPull {
                workers: workers.clone(),
                ps,
                bytes: total_weights,
            },
            Style::Direct,
            &[],
            &pushes,
        );
        b.declare_collective(pull);

        prev_update = workers
            .iter()
            .map(|&node| {
                Some(b.comp(
                    node,
                    0.0,
                    CompKind::Update,
                    CompLabel::from("U").iteration(iter),
                    &[],
                    &[pull],
                ))
            })
            .collect();
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

    fn cfg(workers: u32, buckets: usize) -> DpConfig {
        DpConfig {
            placement: (0..workers).map(NodeId).collect(),
            ps: None,
            bucket_bytes: vec![3.0; buckets],
            fwd_time: 1.0,
            bwd_time_per_bucket: 0.5,
            iterations: 1,
        }
    }

    #[test]
    fn allreduce_dag_shape() {
        let mut alloc = IdAlloc::new();
        let dag = build_dp_allreduce(JobId(0), &cfg(3, 2), &mut alloc);
        // 3 forwards + 3×2 backwards + 3 updates.
        assert_eq!(dag.comps.len(), 12);
        // 2 all-reduces.
        assert_eq!(dag.comms.len(), 2);
        // One (degenerate) EchelonFlow and one Coflow per bucket.
        assert_eq!(dag.echelons.len(), 2);
        assert_eq!(dag.coflows.len(), 2);
        assert!(dag.echelons.iter().all(|h| h.is_coflow_compliant()));
        // Ring all-reduce of a 3-byte bucket among 3 workers: 2·(3−1)
        // steps × 3 chunk flows, times 2 buckets = 24 flows.
        assert_eq!(dag.all_flows().len(), 24);
    }

    #[test]
    fn allreduce_runs_and_overlaps_backward() {
        let mut alloc = IdAlloc::new();
        let dag = build_dp_allreduce(JobId(0), &cfg(3, 2), &mut alloc);
        let topo = Topology::big_switch_uniform(3, 1.0);
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
        // The first bucket's all-reduce starts while the second bucket's
        // backward still computes (comm/comp overlap).
        assert!(out.makespan.secs() > 5.0);
        assert_eq!(out.flow_finishes.len(), 24);
        assert!(out.timeline.iter().any(|e| e.kind == CompKind::Update));
        let first_release = out
            .flow_releases
            .values()
            .fold(SimTime::INFINITY, |a, &b| a.min(b));
        // B1 of bucket 1 finishes at 1.5 → first chunks released then,
        // while B2 runs [1.5, 2.0].
        assert!(first_release.approx_eq(SimTime::new(1.5)));
    }

    #[test]
    fn ps_dag_shape_and_run() {
        let mut alloc = IdAlloc::new();
        let mut c = cfg(2, 2);
        c.ps = Some(NodeId(2));
        let dag = build_dp_ps(JobId(0), &c, &mut alloc);
        // 2 pushes + 1 pull.
        assert_eq!(dag.comms.len(), 3);
        assert_eq!(dag.coflows.len(), 3);
        // Push: 2 flows per bucket; pull: 2 flows.
        assert_eq!(dag.all_flows().len(), 6);
        let topo = Topology::big_switch_uniform(3, 1.0);
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
        assert!(out.makespan.secs() > 0.0);
        assert_eq!(out.flow_finishes.len(), 6);
    }

    #[test]
    fn multi_iteration_chains_through_update() {
        let mut alloc = IdAlloc::new();
        let mut c = cfg(2, 1);
        c.iterations = 2;
        let dag = build_dp_allreduce(JobId(0), &c, &mut alloc);
        let topo = Topology::big_switch_uniform(2, 1.0);
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
        let updates: Vec<_> = out
            .timeline
            .iter()
            .filter(|e| e.kind == CompKind::Update)
            .collect();
        assert_eq!(updates.len(), 4);
        // Iteration 1's forwards start only after iteration 0's update.
        let first_update_end = updates
            .iter()
            .map(|e| e.end)
            .fold(SimTime::INFINITY, SimTime::min);
        for f in out
            .timeline
            .iter()
            .filter(|e| e.kind == CompKind::Forward && e.label == "F(i1)")
        {
            assert!(first_update_end.at_or_before(f.start));
        }
    }

    #[test]
    fn hierarchical_dp_runs_and_reduces_cross_traffic() {
        use echelon_simnet::fattree::FatTree;
        // 4 workers in 2 rack groups on an oversubscribed fat-tree: the
        // hierarchical variant crosses the core less and finishes no
        // later than the flat ring.
        let groups = vec![vec![NodeId(0), NodeId(1)], vec![NodeId(4), NodeId(5)]];
        let mut c = cfg(4, 1);
        c.placement = vec![NodeId(0), NodeId(1), NodeId(4), NodeId(5)];
        let topo = FatTree::new(4).with_oversubscription(4.0).build_fabric();

        let mut alloc = IdAlloc::new();
        let flat = build_dp_allreduce(JobId(0), &c, &mut alloc);
        let flat_out = run_jobs(&topo, &[&flat], &mut MaxMinPolicy, &RunConfig::default());

        let mut alloc = IdAlloc::new();
        let hier = build_dp_hierarchical(JobId(0), &c, &groups, &mut alloc);
        let hier_out = run_jobs(&topo, &[&hier], &mut MaxMinPolicy, &RunConfig::default());

        assert!(
            hier_out.makespan.secs() <= flat_out.makespan.secs() + 1e-6,
            "hierarchical {:?} vs flat {:?}",
            hier_out.makespan,
            flat_out.makespan
        );
    }

    #[test]
    #[should_panic(expected = "partition cfg.placement")]
    fn hierarchical_groups_must_partition() {
        let groups = vec![vec![NodeId(0)], vec![NodeId(2)]];
        let mut alloc = IdAlloc::new();
        let _ = build_dp_hierarchical(JobId(0), &cfg(2, 1), &groups, &mut alloc);
    }

    #[test]
    #[should_panic(expected = "requires cfg.ps")]
    fn ps_variant_needs_ps_node() {
        let mut alloc = IdAlloc::new();
        let _ = build_dp_ps(JobId(0), &cfg(2, 1), &mut alloc);
    }

    #[test]
    fn two_dp_jobs_share_fabric() {
        let mut alloc = IdAlloc::new();
        let dag0 = build_dp_allreduce(JobId(0), &cfg(2, 1), &mut alloc);
        let mut c1 = cfg(2, 1);
        c1.placement = vec![NodeId(2), NodeId(3)];
        let dag1 = build_dp_allreduce(JobId(1), &c1, &mut alloc);
        let topo = Topology::big_switch_uniform(4, 1.0);
        let config = RunConfig::default();
        let out = run_jobs(&topo, &[&dag0, &dag1], &mut MaxMinPolicy, &config);
        assert!(out.job_makespans.contains_key(&JobId(0)));
        assert!(out.job_makespans.contains_key(&JobId(1)));
    }
}
