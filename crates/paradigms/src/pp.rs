//! Pipeline parallelism: GPipe (paper Fig. 1) and 1F1B (PipeDream-flush),
//! the "other PP variations" the paper notes form EchelonFlows with more
//! general arrangement functions.
//!
//! Both variants share one machinery: each worker owns one pipeline stage
//! and executes a fixed **program** of forward/backward micro-batch units;
//! consecutive stages exchange activations (forward) and activation
//! gradients (backward) as point-to-point flows. The EchelonFlow
//! formulation (§4 Case II) groups, per direction and consecutive-worker
//! pair, the per-micro-batch flows into one EchelonFlow whose arrangement
//! offsets are the *ideal* (zero-communication) start times of the
//! consuming computation units — Eq. 6's constant gap `T` for GPipe, a
//! general offset vector for 1F1B. The Coflow formulation groups the same
//! flows into one Coflow (what Fig. 2b schedules).

use crate::config::PpConfig;
use crate::dag::{CompKind, CompLabel, DagBuilder, JobDag};
use crate::ids::{CommId, CompId, IdAlloc};
use echelon_collectives::{CollectiveOp, Style};
use echelon_core::arrangement::ArrangementFn;
use echelon_core::echelon::FlowRef;
use echelon_core::JobId;
use echelon_simnet::time::EPS;

/// One entry of a stage's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Forward of micro-batch `m` (1-based).
    F(usize),
    /// Backward of micro-batch `m` (1-based).
    B(usize),
}

/// GPipe program: all forwards in order, then all backwards in reverse
/// (the schedule of the paper's Fig. 1a).
pub(crate) fn gpipe_program(micro_batches: usize) -> Vec<Slot> {
    let mut prog: Vec<Slot> = (1..=micro_batches).map(Slot::F).collect();
    prog.extend((1..=micro_batches).rev().map(Slot::B));
    prog
}

/// 1F1B program for stage `s` of `stages`: `stages − 1 − s` warmup
/// forwards, then alternating forward/backward, then cooldown backwards.
fn one_f_one_b_program(s: usize, stages: usize, micro_batches: usize) -> Vec<Slot> {
    let warmup = (stages - 1 - s).min(micro_batches);
    let mut prog = Vec::new();
    for m in 1..=warmup {
        prog.push(Slot::F(m));
    }
    let mut next_f = warmup + 1;
    let mut next_b = 1;
    while next_f <= micro_batches {
        prog.push(Slot::F(next_f));
        next_f += 1;
        prog.push(Slot::B(next_b));
        next_b += 1;
    }
    while next_b <= micro_batches {
        prog.push(Slot::B(next_b));
        next_b += 1;
    }
    prog
}

/// Offsets (relative to the first) of the program's `F` slots in
/// micro-batch order (or `B` slots in program order when `backward`),
/// from the ideal (zero-communication, no-stall) start of every slot
/// walking durations back-to-back. Consumption order is program order:
/// the starts ascend.
fn consumption_offsets(program: &[Slot], fwd: f64, bwd: f64, backward: bool) -> Vec<f64> {
    let mut t = 0.0;
    let mut base = None;
    let mut offsets = Vec::with_capacity(program.len() / 2);
    for slot in program {
        if matches!((slot, backward), (Slot::F(_), false) | (Slot::B(_), true)) {
            offsets.push(t - *base.get_or_insert(t));
        }
        t += match slot {
            Slot::F(_) => fwd,
            Slot::B(_) => bwd,
        };
    }
    offsets
}

/// Collapses uniform offsets to the paper's Eq. 6 `Staggered` form.
fn arrangement_from_offsets(offsets: Vec<f64>) -> ArrangementFn {
    if offsets.len() >= 2 {
        let gap = offsets[1] - offsets[0];
        let uniform = offsets
            .windows(2)
            .all(|w| ((w[1] - w[0]) - gap).abs() < EPS);
        if uniform {
            return ArrangementFn::Staggered { gap };
        }
    } else if offsets.len() == 1 {
        return ArrangementFn::Staggered { gap: 0.0 };
    }
    ArrangementFn::from_offsets(offsets)
}

/// One constructed pipeline iteration: the handles downstream builders
/// (update barriers, cross-replica gradient synchronization) attach to.
pub(crate) struct PipelineIteration {
    /// Backward computation units, stage-major: stage `s`'s unit for
    /// micro-batch `m` (1-based) sits at `s · micro_batches + m − 1`.
    bwd_comp: Vec<CompId>,
    micro_batches: usize,
}

impl PipelineIteration {
    /// Stage `s`'s backward units, one per micro-batch.
    pub fn bwd_comp(&self, s: usize) -> &[CompId] {
        &self.bwd_comp[s * self.micro_batches..(s + 1) * self.micro_batches]
    }
}

/// Builds one pipeline iteration into `b`: the forward/backward units of
/// every stage, the inter-stage activation/gradient flows, and the §4
/// Case II EchelonFlow + Coflow groupings. `gates[s]` (if non-empty)
/// must complete before stage `s`'s first forward — used to chain
/// iterations through that stage's update (weights are worker-local in
/// PP, so the barrier is per stage, not global).
pub(crate) fn build_iteration(
    b: &mut DagBuilder<'_>,
    cfg: &PpConfig,
    programs: &[Vec<Slot>],
    gates: &[Vec<CompId>],
) -> PipelineIteration {
    let stages = cfg.placement.len();
    let mbs = cfg.micro_batches;
    // Per-stage bookkeeping for this iteration, flat and stage-major:
    // entry `s · mbs + mi` belongs to stage (or stage pair) `s` and
    // micro-batch index `mi`. Pair `s` is the link between stages `s`
    // and `s + 1`.
    let mut fwd_comp: Vec<Option<CompId>> = vec![None; stages * mbs];
    let mut bwd_comp: Vec<Option<CompId>> = vec![None; stages * mbs];
    let pairs = stages.saturating_sub(1) * mbs;
    let mut act: Vec<Option<(CommId, FlowRef)>> = vec![None; pairs];
    let mut grad: Vec<Option<(CommId, FlowRef)>> = vec![None; pairs];

    // Kahn-style interleaved construction: repeatedly advance each
    // stage's program pointer while dependencies already exist. The
    // pipeline schedules are deadlock-free, so this terminates.
    let mut ptr = vec![0usize; stages];
    loop {
        let mut progress = false;
        for s in 0..stages {
            while ptr[s] < programs[s].len() {
                let slot = programs[s][ptr[s]];
                match slot {
                    Slot::F(m) => {
                        let mi = m - 1;
                        // Needs activations from the previous stage.
                        let dep_comm: Option<CommId> = if s == 0 {
                            None
                        } else {
                            match act[(s - 1) * mbs + mi] {
                                Some((c, _)) => Some(c),
                                None => break, // upstream not built yet
                            }
                        };
                        // The iteration gate applies to the first
                        // forward of each stage (program order
                        // sequences the rest).
                        let dep_comp: &[CompId] = match gates.get(s) {
                            Some(g) if mi == 0 => g,
                            _ => &[],
                        };
                        let id = b.comp(
                            cfg.placement[s],
                            cfg.fwd_time,
                            CompKind::Forward,
                            CompLabel::from("F").index(m),
                            dep_comp,
                            dep_comm.as_slice(),
                        );
                        fwd_comp[s * mbs + mi] = Some(id);
                        // Emit activations to the next stage.
                        if s + 1 < stages {
                            let cid = b.comm_op(
                                &CollectiveOp::P2p {
                                    src: cfg.placement[s],
                                    dst: cfg.placement[s + 1],
                                    bytes: cfg.activation_bytes,
                                },
                                Style::Direct,
                                &[id],
                                &[],
                            );
                            act[s * mbs + mi] = Some((cid, b.comms()[&cid].stages[0].flows[0]));
                        }
                    }
                    Slot::B(m) => {
                        let mi = m - 1;
                        // Needs the matching forward (program order
                        // implies it on the same worker) and, unless
                        // this is the last stage, gradients from the
                        // next stage.
                        let Some(f) = fwd_comp[s * mbs + mi] else {
                            break;
                        };
                        let dep_comm: Option<CommId> = if s + 1 == stages {
                            None
                        } else {
                            match grad[s * mbs + mi] {
                                Some((c, _)) => Some(c),
                                None => break,
                            }
                        };
                        let id = b.comp(
                            cfg.placement[s],
                            cfg.bwd_time,
                            CompKind::Backward,
                            CompLabel::from("B").index(m),
                            &[f],
                            dep_comm.as_slice(),
                        );
                        bwd_comp[s * mbs + mi] = Some(id);
                        // Emit activation gradients to the previous
                        // stage.
                        if s > 0 {
                            let cid = b.comm_op(
                                &CollectiveOp::P2p {
                                    src: cfg.placement[s],
                                    dst: cfg.placement[s - 1],
                                    bytes: cfg.activation_bytes,
                                },
                                Style::Direct,
                                &[id],
                                &[],
                            );
                            grad[(s - 1) * mbs + mi] =
                                Some((cid, b.comms()[&cid].stages[0].flows[0]));
                        }
                    }
                }
                ptr[s] += 1;
                progress = true;
            }
        }
        if ptr.iter().enumerate().all(|(s, &p)| p == programs[s].len()) {
            break;
        }
        assert!(progress, "pipeline program construction deadlocked");
    }

    // Group the iteration's flows: per consecutive pair and direction,
    // one EchelonFlow (Case II) and one Coflow.
    for s in 0..stages - 1 {
        // Forward: consumption offsets come from the *receiving*
        // stage's program (its forward slots).
        let fwd_offsets = consumption_offsets(&programs[s + 1], cfg.fwd_time, cfg.bwd_time, false);
        let flows: Vec<FlowRef> = act[s * mbs..(s + 1) * mbs]
            .iter()
            .map(|e| e.unwrap().1)
            .collect();
        b.declare_echelon(
            flows.iter().map(|&f| vec![f]).collect(),
            arrangement_from_offsets(fwd_offsets),
        );
        b.declare_coflow(flows);

        // Backward: gradients flowing s+1 → s, consumed by stage s's
        // backward slots in its program order.
        let bwd_offsets = consumption_offsets(&programs[s], cfg.fwd_time, cfg.bwd_time, true);
        let mut flows: Vec<FlowRef> = Vec::with_capacity(mbs);
        for slot in &programs[s] {
            if let Slot::B(m) = slot {
                flows.push(grad[s * mbs + m - 1].unwrap().1);
            }
        }
        b.declare_echelon(
            flows.iter().map(|&f| vec![f]).collect(),
            arrangement_from_offsets(bwd_offsets),
        );
        b.declare_coflow(flows);
    }

    PipelineIteration {
        bwd_comp: bwd_comp.into_iter().map(Option::unwrap).collect(),
        micro_batches: mbs,
    }
}

/// Shared pipeline builder over per-stage programs: `iterations`
/// repetitions of [`build_iteration`], chained through a zero-duration
/// update barrier per stage (the Fig. 1a barrier).
fn build_pipeline(
    job: JobId,
    cfg: &PpConfig,
    programs: Vec<Vec<Slot>>,
    alloc: &mut IdAlloc,
) -> JobDag {
    let stages = cfg.placement.len();
    assert!(stages >= 2, "pipeline needs at least 2 stages");
    assert!(cfg.micro_batches >= 1, "need at least one micro-batch");
    assert!(cfg.iterations >= 1, "need at least one iteration");
    assert!(
        cfg.micro_batches >= stages || programs[0].len() == 2 * cfg.micro_batches,
        "1F1B requires micro_batches >= stages"
    );

    let mut b = DagBuilder::new(job, alloc);
    let mut gates: Vec<Vec<CompId>> = vec![Vec::new(); stages];
    for iter in 0..cfg.iterations {
        let it = build_iteration(&mut b, cfg, &programs, &gates);
        for (s, gate) in gates.iter_mut().enumerate() {
            let u = b.comp(
                cfg.placement[s],
                0.0,
                CompKind::Update,
                CompLabel::from("U").iteration(iter),
                it.bwd_comp(s),
                &[],
            );
            gate.clear();
            gate.push(u);
        }
    }
    b.build()
}

/// Builds a GPipe pipeline job (paper Fig. 1).
pub fn build_pp_gpipe(job: JobId, cfg: &PpConfig, alloc: &mut IdAlloc) -> JobDag {
    let programs = vec![gpipe_program(cfg.micro_batches); cfg.placement.len()];
    build_pipeline(job, cfg, programs, alloc)
}

/// Builds a 1F1B (PipeDream-flush) pipeline job — the reordered-pipeline
/// extension whose arrangement function is a general offset vector.
///
/// # Panics
///
/// Panics unless `micro_batches >= stages` (1F1B's steady-state
/// requirement).
pub fn build_pp_1f1b(job: JobId, cfg: &PpConfig, alloc: &mut IdAlloc) -> JobDag {
    let stages = cfg.placement.len();
    assert!(
        cfg.micro_batches >= stages,
        "1F1B requires micro_batches ({}) >= stages ({stages})",
        cfg.micro_batches
    );
    let programs = (0..stages)
        .map(|s| one_f_one_b_program(s, stages, cfg.micro_batches))
        .collect();
    build_pipeline(job, cfg, programs, alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::run_jobs;
    use echelon_sched::echelon::EchelonMadd;
    use echelon_simnet::ids::NodeId;
    use echelon_simnet::runner::{MaxMinPolicy, RunConfig};
    use echelon_simnet::time::SimTime;
    use echelon_simnet::topology::Topology;

    #[test]
    fn gpipe_program_shape() {
        let p = gpipe_program(3);
        assert_eq!(
            p,
            vec![
                Slot::F(1),
                Slot::F(2),
                Slot::F(3),
                Slot::B(3),
                Slot::B(2),
                Slot::B(1)
            ]
        );
    }

    #[test]
    fn one_f_one_b_program_shape() {
        // Fig. 1-style 4-stage, 4-micro-batch pipeline, stage 0: 3 warmup
        // forwards, one steady (F4 B1), cooldown B2 B3 B4.
        let p = one_f_one_b_program(0, 4, 4);
        assert_eq!(
            p,
            vec![
                Slot::F(1),
                Slot::F(2),
                Slot::F(3),
                Slot::F(4),
                Slot::B(1),
                Slot::B(2),
                Slot::B(3),
                Slot::B(4),
            ]
        );
        // Last stage: pure 1F1B alternation.
        let p = one_f_one_b_program(3, 4, 4);
        assert_eq!(
            p,
            vec![
                Slot::F(1),
                Slot::B(1),
                Slot::F(2),
                Slot::B(2),
                Slot::F(3),
                Slot::B(3),
                Slot::F(4),
                Slot::B(4),
            ]
        );
    }

    #[test]
    fn gpipe_offsets_are_eq6() {
        // Receiving stage's forward slots are back-to-back: gap = T.
        let prog = gpipe_program(4);
        let offs = consumption_offsets(&prog, 1.5, 2.0, false);
        assert_eq!(offs, vec![0.0, 1.5, 3.0, 4.5]);
        assert_eq!(
            arrangement_from_offsets(offs),
            ArrangementFn::Staggered { gap: 1.5 }
        );
    }

    #[test]
    fn one_f_one_b_backward_offsets_non_uniform() {
        // Stage 0 of a 2-stage, 4-micro-batch 1F1B: program
        // F1 F2 B1 F3 B2 F4 B3 B4 → backward gaps f+b, f+b, b.
        let prog = one_f_one_b_program(0, 2, 4);
        let offs = consumption_offsets(&prog, 1.0, 2.0, true);
        assert_eq!(offs, vec![0.0, 3.0, 6.0, 8.0]);
        assert!(matches!(
            arrangement_from_offsets(offs),
            ArrangementFn::Offsets(_)
        ));
    }

    #[test]
    fn fig2_dag_structure() {
        let mut alloc = IdAlloc::new();
        let dag = build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut alloc);
        // 2 stages × 3 micro-batches × (F + B) + 2 updates = 14 comps.
        assert_eq!(dag.comps.len(), 14);
        // 3 forward + 3 backward p2p transfers.
        assert_eq!(dag.comms.len(), 6);
        // Forward + backward EchelonFlow per pair.
        assert_eq!(dag.echelons.len(), 2);
        assert_eq!(dag.coflows.len(), 2);
        // Forward echelon matches Eq. 6 with T = 1.
        assert_eq!(
            dag.echelons[0].arrangement(),
            &ArrangementFn::Staggered { gap: 1.0 }
        );
    }

    /// End-to-end GPipe forward+backward run under fair sharing completes
    /// and keeps pipeline ordering (B3 before B2 before B1 on each stage).
    #[test]
    fn gpipe_runs_end_to_end() {
        let mut alloc = IdAlloc::new();
        let dag = build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut alloc);
        let topo = Topology::chain(2, 1.0);
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
        assert!(out.makespan.secs() > 0.0);
        // All 6 flows completed and conserved.
        assert_eq!(out.flow_finishes.len(), 6);
        // Stage-1 timeline: forwards in micro-batch order.
        let tl = out.timeline_of(NodeId(1));
        let forwards: Vec<&str> = tl
            .iter()
            .filter(|e| e.kind == CompKind::Forward)
            .map(|e| e.label.as_str())
            .collect();
        assert_eq!(forwards, vec!["F1", "F2", "F3"]);
    }

    /// The headline number: under the EchelonFlow scheduler the Fig. 2
    /// forward phase finishes its last forward computation at t = 8.
    #[test]
    fn fig2_forward_phase_echelon_optimal() {
        let mut alloc = IdAlloc::new();
        let dag = build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut alloc);
        let topo = Topology::chain(2, 1.0);
        let mut policy = EchelonMadd::new(dag.echelons.clone());
        let out = run_jobs(&topo, &[&dag], &mut policy, &RunConfig::default());
        // Last forward on stage 1 (F3) ends at 8.
        let f3_end = out
            .timeline_of(NodeId(1))
            .iter()
            .find(|e| e.label == "F3" && e.kind == CompKind::Forward)
            .map(|e| e.end)
            .unwrap();
        assert!(f3_end.approx_eq(SimTime::new(8.0)), "F3 ends at {f3_end:?}");
    }

    #[test]
    fn multi_iteration_gpipe() {
        let mut alloc = IdAlloc::new();
        let mut cfg = PpConfig::fig2();
        cfg.iterations = 2;
        let dag = build_pp_gpipe(JobId(0), &cfg, &mut alloc);
        assert_eq!(dag.comps.len(), 28);
        assert_eq!(dag.echelons.len(), 4);
        let topo = Topology::chain(2, 1.0);
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
        assert_eq!(out.flow_finishes.len(), 12);
    }

    #[test]
    fn one_f_one_b_runs_end_to_end() {
        let mut alloc = IdAlloc::new();
        let cfg = PpConfig {
            placement: vec![NodeId(0), NodeId(1), NodeId(2)],
            micro_batches: 4,
            fwd_time: 1.0,
            bwd_time: 1.0,
            activation_bytes: 0.5,
            iterations: 1,
        };
        let dag = build_pp_1f1b(JobId(0), &cfg, &mut alloc);
        let topo = Topology::chain(3, 1.0);
        let out = run_jobs(&topo, &[&dag], &mut MaxMinPolicy, &RunConfig::default());
        // 3 stages × 4 mbs × 2 + 3 updates = 27 comps.
        assert_eq!(out.comp_spans.len(), 27);
        // 2 pairs × 4 mbs × 2 directions = 16 flows.
        assert_eq!(out.flow_finishes.len(), 16);
    }

    #[test]
    #[should_panic(expected = "micro_batches")]
    fn one_f_one_b_requires_enough_micro_batches() {
        let mut alloc = IdAlloc::new();
        let cfg = PpConfig {
            placement: vec![NodeId(0), NodeId(1), NodeId(2)],
            micro_batches: 2,
            fwd_time: 1.0,
            bwd_time: 1.0,
            activation_bytes: 0.5,
            iterations: 1,
        };
        let _ = build_pp_1f1b(JobId(0), &cfg, &mut alloc);
    }
}
