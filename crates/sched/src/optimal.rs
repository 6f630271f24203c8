//! Brute-force optimal permutation schedules for small instances.
//!
//! Ground truth for the Property 1 experiments: EchelonFlow scheduling is
//! NP-hard (Property 3), but small instances can be solved exactly within
//! the class of *preemptive priority-order schedules* — fix a permutation
//! of the flows, serve them strict-priority with work-conserving filling,
//! recomputing at every event. This class contains EDD (optimal for
//! maximum lateness on a single resource with preemption) and, per
//! Sincronia's analysis, ordering-based schedules are within small
//! constant factors of optimal for coflow-like objectives on fabrics —
//! making the exhaustive best-over-permutations a solid empirical anchor.
//!
//! Complexity is `O(n!)` simulations; instances are capped at 9 flows.

use echelon_simnet::alloc::{priority_fill_dense, AllocScratch};
use echelon_simnet::flow::{ActiveFlowView, FlowDemand};
use echelon_simnet::ids::FlowId;
use echelon_simnet::runner::{run_flows, FlowOutcomes, RatePolicy, RunConfig};
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;
use std::collections::BTreeMap;

/// The objective to minimize over schedules.
#[derive(Debug, Clone)]
pub enum Objective {
    /// `max_j (finish_j − deadline_j)` over the given per-flow deadlines
    /// (the EchelonFlow tardiness, Eq. 2, for a single EchelonFlow).
    MaxTardiness(BTreeMap<FlowId, SimTime>),
    /// Latest finish time (communication makespan).
    Makespan,
    /// Sum of flow finish times.
    TotalCompletion,
}

impl Objective {
    /// Evaluates the objective on a finished simulation.
    ///
    /// # Panics
    ///
    /// Panics if a deadline references a flow with no completion.
    pub fn evaluate(&self, out: &FlowOutcomes) -> f64 {
        match self {
            Objective::MaxTardiness(deadlines) => deadlines
                .iter()
                .map(|(id, d)| {
                    let e = out
                        .finish(*id)
                        .unwrap_or_else(|| panic!("flow {id} did not finish"));
                    e - *d
                })
                .fold(f64::NEG_INFINITY, f64::max),
            Objective::Makespan => out.makespan().secs(),
            Objective::TotalCompletion => out.completions().values().map(|c| c.finish.secs()).sum(),
        }
    }
}

/// A policy serving flows in one fixed priority permutation.
struct FixedOrderPolicy {
    order: Vec<FlowId>,
}

impl RatePolicy for FixedOrderPolicy {
    fn allocate_dense(
        &mut self,
        _now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(flows.len(), 0.0);
        priority_fill_dense(topo, flows, &self.order, out, ws);
    }

    fn name(&self) -> &'static str {
        "fixed-order"
    }
}

/// Result of the exhaustive search.
#[derive(Debug, Clone)]
pub struct OptimalResult {
    /// Best objective value found.
    pub best_value: f64,
    /// A permutation achieving it.
    pub best_order: Vec<FlowId>,
    /// Number of permutations evaluated.
    pub evaluated: usize,
}

/// Exhaustively searches all priority permutations of `demands` and
/// returns the best schedule under `objective`.
///
/// # Panics
///
/// Panics if there are more than 9 flows (factorial blow-up guard).
pub fn optimal_schedule(
    topo: &Topology,
    demands: &[FlowDemand],
    objective: &Objective,
) -> OptimalResult {
    assert!(
        demands.len() <= 9,
        "optimal search capped at 9 flows, got {}",
        demands.len()
    );
    let mut ids: Vec<FlowId> = demands.iter().map(|d| d.id).collect();
    ids.sort();

    let mut best_value = f64::INFINITY;
    let mut best_order = ids.clone();
    let mut evaluated = 0usize;

    permute(&mut ids.clone(), 0, &mut |perm| {
        let mut policy = FixedOrderPolicy {
            order: perm.to_vec(),
        };
        let out = run_flows(topo, demands.to_vec(), &mut policy, &RunConfig::default());
        let value = objective.evaluate(&out);
        evaluated += 1;
        if value < best_value - 1e-12 {
            best_value = value;
            best_order = perm.to_vec();
        }
    });

    OptimalResult {
        best_value,
        best_order,
        evaluated,
    }
}

/// Runs one fixed permutation and returns its outcomes (for inspecting
/// the optimal schedule found by [`optimal_schedule`]).
pub fn run_permutation(topo: &Topology, demands: &[FlowDemand], order: &[FlowId]) -> FlowOutcomes {
    let mut policy = FixedOrderPolicy {
        order: order.to_vec(),
    };
    run_flows(topo, demands.to_vec(), &mut policy, &RunConfig::default())
}

/// Heap's algorithm, calling `visit` on every permutation of `items`.
fn permute<T: Clone>(items: &mut Vec<T>, k: usize, visit: &mut impl FnMut(&[T])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echelon_simnet::ids::NodeId;

    fn demand(id: u64, size: f64, release: f64) -> FlowDemand {
        FlowDemand::new(
            FlowId(id),
            NodeId(0),
            NodeId(1),
            size,
            SimTime::new(release),
        )
    }

    fn deadlines(pairs: &[(u64, f64)]) -> BTreeMap<FlowId, SimTime> {
        pairs
            .iter()
            .map(|&(id, t)| (FlowId(id), SimTime::new(t)))
            .collect()
    }

    #[test]
    fn fig2_optimum_is_edd() {
        // Fig. 2's instance: the optimal max tardiness is 4, achieved by
        // the EDD order f0, f1, f2.
        let topo = Topology::chain(2, 1.0);
        let demands = vec![
            demand(0, 2.0, 1.0),
            demand(1, 2.0, 2.0),
            demand(2, 2.0, 3.0),
        ];
        let objective = Objective::MaxTardiness(deadlines(&[(0, 1.0), (1, 2.0), (2, 3.0)]));
        let res = optimal_schedule(&topo, &demands, &objective);
        assert_eq!(res.evaluated, 6);
        assert!(
            (res.best_value - 4.0).abs() < 1e-9,
            "best {}",
            res.best_value
        );
        assert_eq!(res.best_order, vec![FlowId(0), FlowId(1), FlowId(2)]);
    }

    #[test]
    fn makespan_insensitive_to_order_on_one_link() {
        let topo = Topology::chain(2, 1.0);
        let demands = vec![demand(0, 1.0, 0.0), demand(1, 2.0, 0.0)];
        let res = optimal_schedule(&topo, &demands, &Objective::Makespan);
        assert!((res.best_value - 3.0).abs() < 1e-9);
    }

    #[test]
    fn total_completion_prefers_srpt_order() {
        let topo = Topology::chain(2, 1.0);
        let demands = vec![demand(0, 3.0, 0.0), demand(1, 1.0, 0.0)];
        let res = optimal_schedule(&topo, &demands, &Objective::TotalCompletion);
        // Short first: finishes 1 and 4 → 5; long first would be 3 + 4 = 7.
        assert!((res.best_value - 5.0).abs() < 1e-9);
        assert_eq!(res.best_order[0], FlowId(1));
    }

    #[test]
    fn run_permutation_reproduces_best() {
        let topo = Topology::chain(2, 1.0);
        let demands = vec![demand(0, 3.0, 0.0), demand(1, 1.0, 0.0)];
        let res = optimal_schedule(&topo, &demands, &Objective::TotalCompletion);
        let out = run_permutation(&topo, &demands, &res.best_order);
        let value = Objective::TotalCompletion.evaluate(&out);
        assert!((value - res.best_value).abs() < 1e-9);
    }

    #[test]
    fn evaluated_counts_factorial() {
        let topo = Topology::chain(2, 1.0);
        let demands = vec![
            demand(0, 1.0, 0.0),
            demand(1, 1.0, 0.0),
            demand(2, 1.0, 0.0),
            demand(3, 1.0, 0.0),
        ];
        let res = optimal_schedule(&topo, &demands, &Objective::Makespan);
        assert_eq!(res.evaluated, 24);
    }

    #[test]
    #[should_panic(expected = "capped at 9")]
    fn too_many_flows_guarded() {
        let topo = Topology::chain(2, 1.0);
        let demands: Vec<_> = (0..10).map(|i| demand(i, 1.0, 0.0)).collect();
        let _ = optimal_schedule(&topo, &demands, &Objective::Makespan);
    }
}
