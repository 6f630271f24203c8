//! Computation-pattern profiling (paper §3.1 and §5, Fig. 7).
//!
//! The arrangement function's *distance* — the computation time `T` per
//! unit (or `T_fwd`/`T_bwd` per layer) — "can be obtained from computation
//! profiling on the training framework" by "running a few training
//! iterations". This module does exactly that inside the simulator: it
//! runs the job on a private, effectively infinite-bandwidth network (so
//! stalls vanish and only computation distances remain) and measures the
//! gaps between consecutive computation-unit starts per worker.
//!
//! The measured gaps are what an EchelonFlow agent would feed into
//! Eqs. 6-7; the ablation experiments perturb them to study sensitivity
//! to profiling error.

use crate::dag::{CompKind, JobDag};
use crate::runtime::run_jobs;
use echelon_simnet::ids::NodeId;
use echelon_simnet::runner::{MaxMinPolicy, RunConfig};
use echelon_simnet::topology::Topology;
use std::collections::BTreeMap;

/// Bandwidth used for the uncontended profiling run: large enough that
/// every transfer in the bundled experiments is effectively instant.
const PROFILE_BANDWIDTH: f64 = 1e6;

/// Measured computation distances of one job.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Gaps between consecutive *forward* unit starts, per worker.
    pub fwd_gaps: BTreeMap<NodeId, Vec<f64>>,
    /// Gaps between consecutive *backward* unit starts, per worker.
    pub bwd_gaps: BTreeMap<NodeId, Vec<f64>>,
    /// Iteration makespan of the uncontended run (the compute-bound lower
    /// bound on iteration time).
    pub uncontended_makespan: f64,
}

impl ProfileReport {
    /// Mean forward gap across workers — the `T` of Eq. 6 / `T_fwd` of
    /// Eq. 7. `None` if no worker has two forward units.
    pub fn mean_fwd_gap(&self) -> Option<f64> {
        mean_of(&self.fwd_gaps)
    }

    /// Mean backward gap — the `T_bwd` of Eq. 7.
    pub fn mean_bwd_gap(&self) -> Option<f64> {
        mean_of(&self.bwd_gaps)
    }
}

fn mean_of(gaps: &BTreeMap<NodeId, Vec<f64>>) -> Option<f64> {
    let all: Vec<f64> = gaps.values().flatten().copied().collect();
    if all.is_empty() {
        None
    } else {
        Some(all.iter().sum::<f64>() / all.len() as f64)
    }
}

/// Profiles a job by running it on an uncontended network and measuring
/// the start-to-start gaps of its computation units.
///
/// The profiling topology is a big switch over `num_nodes` hosts with
/// near-infinite capacity, so the measured gaps are pure computation
/// distances.
pub fn profile_gaps(dag: &JobDag, num_nodes: usize) -> ProfileReport {
    let topo = Topology::big_switch_uniform(num_nodes, PROFILE_BANDWIDTH);
    let out = run_jobs(&topo, &[dag], &mut MaxMinPolicy, &RunConfig::default());

    let mut fwd_gaps: BTreeMap<NodeId, Vec<f64>> = BTreeMap::new();
    let mut bwd_gaps: BTreeMap<NodeId, Vec<f64>> = BTreeMap::new();
    for worker in dag.workers() {
        let tl = out.timeline_of(worker);
        for (kind, store) in [
            (CompKind::Forward, &mut fwd_gaps),
            (CompKind::Backward, &mut bwd_gaps),
        ] {
            let starts: Vec<f64> = tl
                .iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.start.secs())
                .collect();
            let gaps: Vec<f64> = starts.windows(2).map(|w| w[1] - w[0]).collect();
            if !gaps.is_empty() {
                store.insert(worker, gaps);
            }
        }
    }
    ProfileReport {
        fwd_gaps,
        bwd_gaps,
        uncontended_makespan: out.makespan.secs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FsdpConfig, PpConfig};
    use crate::fsdp::build_fsdp;
    use crate::ids::IdAlloc;
    use crate::pp::build_pp_gpipe;
    use echelon_core::JobId;

    /// Profiling the Fig. 2 GPipe job recovers T = 1 — the "distance"
    /// the arrangement function needs.
    #[test]
    fn gpipe_profile_recovers_t() {
        let mut alloc = IdAlloc::new();
        let dag = build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut alloc);
        let report = profile_gaps(&dag, 2);
        let t = report.mean_fwd_gap().unwrap();
        assert!((t - 1.0).abs() < 1e-6, "measured T = {t}");
    }

    /// Profiling FSDP recovers T_fwd and T_bwd.
    #[test]
    fn fsdp_profile_recovers_phase_gaps() {
        let mut alloc = IdAlloc::new();
        let cfg = FsdpConfig {
            placement: vec![NodeId(0), NodeId(1)],
            layers: 4,
            shard_bytes: 1.0,
            layer_shard_bytes: None,
            fwd_time_per_layer: 1.0,
            bwd_time_per_layer: 2.5,
            iterations: 1,
        };
        let dag = build_fsdp(JobId(0), &cfg, &mut alloc);
        let report = profile_gaps(&dag, 2);
        assert!((report.mean_fwd_gap().unwrap() - 1.0).abs() < 1e-6);
        assert!((report.mean_bwd_gap().unwrap() - 2.5).abs() < 1e-6);
    }

    /// The uncontended makespan is the compute-bound lower bound.
    #[test]
    fn uncontended_makespan_is_compute_bound() {
        let mut alloc = IdAlloc::new();
        let dag = build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut alloc);
        let report = profile_gaps(&dag, 2);
        // Ideal GPipe with S = 2, M = 3, f = b = 1: forward fills
        // [0,4] on stage 1 (one bubble slot), backward symmetric:
        // makespan = (M + S − 1) · (f + b) = 8.
        assert!(
            (report.uncontended_makespan - 8.0).abs() < 1e-3,
            "makespan {}",
            report.uncontended_makespan
        );
    }
}
