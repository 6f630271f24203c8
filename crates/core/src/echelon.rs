//! The [`EchelonFlow`] type (paper Definition 3.1).
//!
//! An EchelonFlow is declared *before* its flows start: the framework knows
//! the flow sizes, endpoints and the arrangement function from the training
//! paradigm and profiling (paper §5, Fig. 7). The **reference time** is
//! bound later, when the head flow actually starts — at that moment every
//! stage's ideal finish time becomes concrete, and stages whose flows start
//! late (because earlier flows were delayed) receive ideal finish times
//! *earlier* than their own start, giving them room to catch up and restore
//! the computation arrangement (the recalibration of §3.1 / Fig. 6b).

use crate::arrangement::ArrangementFn;
use crate::{EchelonId, JobId};
use echelon_simnet::ids::{FlowId, NodeId};
use echelon_simnet::time::SimTime;
use std::sync::Arc;

/// A flow belonging to an EchelonFlow: identity, endpoints and size.
/// (Release time is dynamic — it is whenever the generating computation
/// finishes — so it is not part of the declaration.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRef {
    /// Globally unique flow id.
    pub id: FlowId,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Bytes to transfer.
    pub size: f64,
}

impl FlowRef {
    /// Creates a flow reference.
    ///
    /// # Panics
    ///
    /// Panics on non-positive size or coincident endpoints.
    pub fn new(id: FlowId, src: NodeId, dst: NodeId, size: f64) -> FlowRef {
        assert!(size > 0.0 && size.is_finite(), "flow size must be positive");
        assert!(src != dst, "flow endpoints coincide");
        FlowRef { id, src, dst, size }
    }
}

/// An EchelonFlow: stages of flows plus an arrangement function
/// (Definition 3.1), with an optionally bound reference time.
///
/// The stages, the arrangement and the flow→stage index are fixed at
/// declaration and shared by every clone, so a clone copies a pointer
/// and the per-copy fields: id, job, weight and reference.
#[derive(Debug, Clone)]
pub struct EchelonFlow {
    id: EchelonId,
    job: JobId,
    weight: f64,
    reference: Option<SimTime>,
    shape: Arc<Shape>,
}

/// The immutable part of an [`EchelonFlow`].
#[derive(Debug)]
struct Shape {
    stages: Vec<Vec<FlowRef>>,
    arrangement: ArrangementFn,
    /// Reverse index: `(flow id, stage index)` pairs sorted by flow id.
    stage_of: Vec<(FlowId, usize)>,
}

impl EchelonFlow {
    /// Declares an EchelonFlow from its stages and arrangement function.
    ///
    /// Stages must be non-empty and flow ids unique across stages; the
    /// arrangement must be valid for the stage count.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated.
    pub fn new(
        id: EchelonId,
        job: JobId,
        stages: Vec<Vec<FlowRef>>,
        arrangement: ArrangementFn,
    ) -> EchelonFlow {
        assert!(!stages.is_empty(), "EchelonFlow needs at least one stage");
        let mut stage_of = Vec::with_capacity(stages.iter().map(Vec::len).sum());
        for (j, stage) in stages.iter().enumerate() {
            assert!(!stage.is_empty(), "stage {j} is empty");
            stage_of.extend(stage.iter().map(|f| (f.id, j)));
        }
        stage_of.sort_unstable_by_key(|&(id, _)| id);
        if let Some(w) = stage_of.windows(2).find(|w| w[0].0 == w[1].0) {
            panic!("flow {} appears twice", w[0].0);
        }
        // Validate the arrangement against the stage count eagerly.
        let _ = arrangement.offsets(stages.len());
        EchelonFlow {
            id,
            job,
            weight: 1.0,
            reference: None,
            shape: Arc::new(Shape {
                stages,
                arrangement,
                stage_of,
            }),
        }
    }

    /// Single-flow-per-stage convenience constructor (pipeline shape).
    pub fn from_flows(
        id: EchelonId,
        job: JobId,
        flows: Vec<FlowRef>,
        arrangement: ArrangementFn,
    ) -> EchelonFlow {
        let stages = flows.into_iter().map(|f| vec![f]).collect();
        EchelonFlow::new(id, job, stages, arrangement)
    }

    /// Sets the weight used in the weighted global objective (Eq. 4).
    ///
    /// # Panics
    ///
    /// Panics on non-positive weight.
    pub fn with_weight(mut self, weight: f64) -> EchelonFlow {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "weight must be positive"
        );
        self.weight = weight;
        self
    }

    /// This EchelonFlow's id.
    pub fn id(&self) -> EchelonId {
        self.id
    }

    /// The job this EchelonFlow belongs to.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// Weight in the global objective.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.shape.stages.len()
    }

    /// Total number of flows (the paper's cardinality `|H|` when every
    /// stage is a single flow).
    pub fn num_flows(&self) -> usize {
        self.shape.stage_of.len()
    }

    /// The flows of stage `j`.
    pub fn stage(&self, j: usize) -> &[FlowRef] {
        &self.shape.stages[j]
    }

    /// Iterator over all flows, stage by stage.
    pub fn flows(&self) -> impl Iterator<Item = &FlowRef> {
        self.shape.stages.iter().flatten()
    }

    /// The stage a flow belongs to, if it is part of this EchelonFlow.
    pub fn stage_of(&self, flow: FlowId) -> Option<usize> {
        self.shape
            .stage_of
            .binary_search_by_key(&flow, |&(id, _)| id)
            .ok()
            .map(|i| self.shape.stage_of[i].1)
    }

    /// `true` if the flow belongs to this EchelonFlow.
    pub fn contains(&self, flow: FlowId) -> bool {
        self.stage_of(flow).is_some()
    }

    /// The arrangement function.
    pub fn arrangement(&self) -> &ArrangementFn {
        &self.shape.arrangement
    }

    /// Total bytes across all flows.
    pub fn total_bytes(&self) -> f64 {
        self.flows().map(|f| f.size).sum()
    }

    /// Binds the reference time `r` to the head flow's start time
    /// (Definition 3.1: `d_0 = r = s_0`). Idempotent only for the same
    /// time; rebinding to a different time panics — a new training
    /// iteration must declare a new EchelonFlow, which is how the job
    /// "recalibrates the computation arrangement whenever a new
    /// EchelonFlow is generated" (§3.1).
    pub fn bind_reference(&mut self, r: SimTime) {
        match self.reference {
            None => self.reference = Some(r),
            Some(prev) => assert!(
                prev.approx_eq(r),
                "reference time already bound to {prev:?}, cannot rebind to {r:?}"
            ),
        }
    }

    /// The bound reference time, if any.
    pub fn reference(&self) -> Option<SimTime> {
        self.reference
    }

    /// Ideal finish time of stage `j` (requires a bound reference).
    ///
    /// # Panics
    ///
    /// Panics if the reference time is unbound.
    pub fn ideal_finish_of_stage(&self, j: usize) -> SimTime {
        let r = self
            .reference
            .expect("reference time not bound; bind_reference first");
        r + self.shape.arrangement.offset(j, self.shape.stages.len())
    }

    /// Ideal finish time of a flow (its stage's ideal finish).
    pub fn ideal_finish_of_flow(&self, flow: FlowId) -> Option<SimTime> {
        self.stage_of(flow).map(|j| self.ideal_finish_of_stage(j))
    }

    /// `true` when the arrangement degenerates to a Coflow (all stages
    /// share one ideal finish time) — the Property 2 condition.
    pub fn is_coflow_compliant(&self) -> bool {
        self.shape.arrangement.is_coflow(self.shape.stages.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fr(id: u64, src: u32, dst: u32, size: f64) -> FlowRef {
        FlowRef::new(FlowId(id), NodeId(src), NodeId(dst), size)
    }

    fn pipeline_echelon() -> EchelonFlow {
        EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 0, 1, 2.0)],
            ArrangementFn::Staggered { gap: 1.0 },
        )
    }

    #[test]
    fn construction_and_lookup() {
        let h = pipeline_echelon();
        assert_eq!(h.num_stages(), 3);
        assert_eq!(h.num_flows(), 3);
        assert_eq!(h.stage_of(FlowId(1)), Some(1));
        assert_eq!(h.stage_of(FlowId(9)), None);
        assert!(h.contains(FlowId(2)));
        assert_eq!(h.total_bytes(), 6.0);
        assert_eq!(h.weight(), 1.0);
    }

    #[test]
    fn ideal_finishes_follow_arrangement() {
        // The paper's Fig. 6b: reference r = 1, gaps of T = 1 give ideal
        // finishes d = 1, 2, 3.
        let mut h = pipeline_echelon();
        h.bind_reference(SimTime::new(1.0));
        for (j, want) in [1.0, 2.0, 3.0].into_iter().enumerate() {
            assert!(h.ideal_finish_of_stage(j).approx_eq(SimTime::new(want)));
        }
        assert_eq!(
            h.ideal_finish_of_flow(FlowId(2)).unwrap(),
            h.ideal_finish_of_stage(2)
        );
    }

    #[test]
    fn multi_flow_stages_share_ideal_finish() {
        // FSDP shape: two coflow stages of two flows each.
        let mut h = EchelonFlow::new(
            EchelonId(1),
            JobId(0),
            vec![
                vec![fr(0, 0, 1, 1.0), fr(1, 1, 0, 1.0)],
                vec![fr(2, 0, 1, 1.0), fr(3, 1, 0, 1.0)],
            ],
            ArrangementFn::Staggered { gap: 2.0 },
        );
        h.bind_reference(SimTime::ZERO);
        assert_eq!(
            h.ideal_finish_of_flow(FlowId(0)),
            h.ideal_finish_of_flow(FlowId(1))
        );
        assert!(h
            .ideal_finish_of_flow(FlowId(3))
            .unwrap()
            .approx_eq(SimTime::new(2.0)));
    }

    #[test]
    fn coflow_compliance_detection() {
        let c = EchelonFlow::from_flows(
            EchelonId(2),
            JobId(0),
            vec![fr(0, 0, 1, 1.0), fr(1, 0, 2, 1.0)],
            ArrangementFn::Coflow,
        );
        assert!(c.is_coflow_compliant());
        assert!(!pipeline_echelon().is_coflow_compliant());
    }

    #[test]
    fn rebinding_same_reference_is_idempotent() {
        let mut h = pipeline_echelon();
        h.bind_reference(SimTime::new(1.0));
        h.bind_reference(SimTime::new(1.0)); // fine
        assert_eq!(h.reference(), Some(SimTime::new(1.0)));
    }

    #[test]
    #[should_panic(expected = "cannot rebind")]
    fn rebinding_different_reference_panics() {
        let mut h = pipeline_echelon();
        h.bind_reference(SimTime::new(1.0));
        h.bind_reference(SimTime::new(2.0));
    }

    #[test]
    #[should_panic(expected = "reference time not bound")]
    fn ideal_finish_requires_binding() {
        let h = pipeline_echelon();
        let _ = h.ideal_finish_of_stage(0);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_flow_ids_rejected() {
        let _ = EchelonFlow::new(
            EchelonId(0),
            JobId(0),
            vec![vec![fr(0, 0, 1, 1.0)], vec![fr(0, 0, 1, 1.0)]],
            ArrangementFn::Coflow,
        );
    }

    #[test]
    #[should_panic(expected = "stage 1 is empty")]
    fn empty_stage_rejected() {
        let _ = EchelonFlow::new(
            EchelonId(0),
            JobId(0),
            vec![vec![fr(0, 0, 1, 1.0)], vec![]],
            ArrangementFn::Coflow,
        );
    }

    #[test]
    fn weight_builder() {
        let h = pipeline_echelon().with_weight(2.5);
        assert_eq!(h.weight(), 2.5);
    }
}
