//! The classic Coflow abstraction and its embedding into EchelonFlow
//! (paper §2.2 and Property 2).
//!
//! A Coflow (Chowdhury & Stoica, HotNets '12) is a set of semantically
//! related flows whose shared goal is minimizing the completion time of the
//! last flow (CCT). The paper proves EchelonFlow is a strict superset:
//! a Coflow is exactly an EchelonFlow whose arrangement function is Eq. 5
//! (`d_j = r` for all `j`), in which case minimizing the maximum tardiness
//! is minimizing CCT measured from the first flow's start.

use crate::arrangement::ArrangementFn;
use crate::echelon::{EchelonFlow, FlowRef};
use crate::{EchelonId, JobId};
use echelon_simnet::ids::FlowId;
use echelon_simnet::time::SimTime;
use std::collections::BTreeMap;

/// A Coflow: a flat set of flows with a common completion goal.
#[derive(Debug, Clone)]
pub struct Coflow {
    id: EchelonId,
    job: JobId,
    flows: Vec<FlowRef>,
    weight: f64,
}

impl Coflow {
    /// Creates a Coflow.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is empty or contains duplicate ids.
    pub fn new(id: EchelonId, job: JobId, flows: Vec<FlowRef>) -> Coflow {
        assert!(!flows.is_empty(), "Coflow needs at least one flow");
        // Builders emit flows in id order; only other orders need a
        // sorted copy to find duplicates.
        if !flows.windows(2).all(|w| w[0].id < w[1].id) {
            let mut ids: Vec<FlowId> = flows.iter().map(|f| f.id).collect();
            ids.sort_unstable();
            if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
                panic!("flow {} appears twice", w[0]);
            }
        }
        Coflow {
            id,
            job,
            flows,
            weight: 1.0,
        }
    }

    /// Sets the Coflow's weight.
    pub fn with_weight(mut self, weight: f64) -> Coflow {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "weight must be positive"
        );
        self.weight = weight;
        self
    }

    /// The Coflow's id (shared id space with EchelonFlows).
    pub fn id(&self) -> EchelonId {
        self.id
    }

    /// Owning job.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The member flows.
    pub fn flows(&self) -> &[FlowRef] {
        &self.flows
    }

    /// Weight in aggregate objectives.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Total bytes across the member flows.
    pub fn total_bytes(&self) -> f64 {
        self.flows.iter().map(|f| f.size).sum()
    }

    /// Coflow completion time: latest member finish minus `start`.
    ///
    /// # Panics
    ///
    /// Panics if a member flow's finish is missing.
    pub fn cct(&self, start: SimTime, finishes: &BTreeMap<FlowId, SimTime>) -> f64 {
        self.flows
            .iter()
            .map(|f| {
                let e = finishes
                    .get(&f.id)
                    .unwrap_or_else(|| panic!("flow {} has no recorded finish", f.id));
                *e - start
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Embeds this Coflow as a degenerate EchelonFlow (Property 2): one
    /// stage containing every flow, arrangement Eq. 5.
    pub fn into_echelon(self) -> EchelonFlow {
        EchelonFlow::new(self.id, self.job, vec![self.flows], ArrangementFn::Coflow)
            .with_weight(self.weight)
    }
}

/// Recovers a Coflow from a Coflow-compliant EchelonFlow (all stages
/// sharing one ideal finish time). Returns `None` for genuinely staggered
/// EchelonFlows — Coflow cannot express them (the "×" rows of Table 1).
pub fn try_into_coflow(h: &EchelonFlow) -> Option<Coflow> {
    if !h.is_coflow_compliant() {
        return None;
    }
    Some(Coflow::new(h.id(), h.job(), h.flows().copied().collect()).with_weight(h.weight()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tardiness::echelon_tardiness;
    use echelon_simnet::ids::NodeId;

    fn fr(id: u64, size: f64) -> FlowRef {
        FlowRef::new(FlowId(id), NodeId(0), NodeId(1), size)
    }

    fn finishes(pairs: &[(u64, f64)]) -> BTreeMap<FlowId, SimTime> {
        pairs
            .iter()
            .map(|&(id, t)| (FlowId(id), SimTime::new(t)))
            .collect()
    }

    #[test]
    fn cct_is_latest_finish() {
        let c = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 1.0), fr(1, 2.0)]);
        let fin = finishes(&[(0, 4.0), (1, 6.0)]);
        assert!((c.cct(SimTime::new(1.0), &fin) - 5.0).abs() < 1e-9);
        assert_eq!(c.total_bytes(), 3.0);
    }

    #[test]
    fn property2_embedding_preserves_metric() {
        // Property 2: the embedded EchelonFlow's tardiness equals the
        // Coflow's CCT measured from the first flow's start.
        let c = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 1.0), fr(1, 2.0)]);
        let fin = finishes(&[(0, 4.0), (1, 6.0)]);
        let start = SimTime::new(1.0);
        let cct = c.cct(start, &fin);
        let mut h = c.into_echelon();
        assert!(h.is_coflow_compliant());
        h.bind_reference(start);
        let t = echelon_tardiness(&h, &fin);
        assert!((t - cct).abs() < 1e-9);
    }

    #[test]
    fn round_trip_through_echelon() {
        let c = Coflow::new(EchelonId(3), JobId(1), vec![fr(0, 1.0), fr(1, 2.0)]).with_weight(2.0);
        let h = c.into_echelon();
        let back = try_into_coflow(&h).expect("compliant EchelonFlow");
        assert_eq!(back.id(), EchelonId(3));
        assert_eq!(back.job(), JobId(1));
        assert_eq!(back.flows().len(), 2);
        assert_eq!(back.weight(), 2.0);
    }

    #[test]
    fn staggered_echelon_is_not_a_coflow() {
        let h = EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 1.0), fr(1, 1.0)],
            ArrangementFn::Staggered { gap: 1.0 },
        );
        assert!(try_into_coflow(&h).is_none());
    }

    #[test]
    fn zero_gap_staggered_recovers_coflow() {
        // A staggered arrangement with zero distance is semantically a
        // Coflow; the conversion accepts it.
        let h = EchelonFlow::from_flows(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 1.0), fr(1, 1.0)],
            ArrangementFn::Staggered { gap: 0.0 },
        );
        assert!(try_into_coflow(&h).is_some());
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_flows_rejected() {
        let _ = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 1.0), fr(0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn empty_coflow_rejected() {
        let _ = Coflow::new(EchelonId(0), JobId(0), vec![]);
    }
}
