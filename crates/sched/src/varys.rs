//! Varys-style Coflow scheduling: inter-coflow ordering + intra-coflow
//! MADD (the paper's Fig. 2b contender).
//!
//! MADD (Minimum Allocation for Desired Duration, Varys SIGCOMM '14) gives
//! every flow of a coflow exactly the rate that makes it finish at the
//! coflow's bottleneck completion time Γ, so all flows finish
//! *simultaneously* — the behaviour the paper shows is harmful for
//! pipeline-shaped DDLT traffic. Inter-coflow, coflows are served
//! by SEBF (smallest effective bottleneck first), BSSI (Sincronia's
//! ordering), or arrival order; unused bandwidth is backfilled for work
//! conservation.
//!
//! Rates are recomputed at every flow arrival/departure with *remaining*
//! bytes, which on the paper's Fig. 2 instance reproduces the published
//! schedule exactly: the three staggered 2B flows converge to rates
//! (B/6, B/3, B/2) and all finish at t = 7.
//!
//! [`VarysMadd`] is not a second engine. Property 2 embeds a Coflow as a
//! one-stage EchelonFlow (`Coflow::into_echelon`, Eq. 5): every member
//! shares one ideal finish time, so the [`EchelonMadd`] engine serves
//! each coflow as one MADD stage in id order, which is Varys' intra
//! behaviour. Property 4 then makes Varys a ranking of that engine: SEBF
//! is its least-work ranking, BSSI the same solve, and arrival order one
//! more ranking over each group's first-seen time.

use crate::echelon::{EchelonMadd, Ranking};
use echelon_core::coflow::Coflow;
use echelon_simnet::alloc::AllocScratch;
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::fluid::FlowDelta;
use echelon_simnet::runner::RatePolicy;
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;

/// Inter-coflow ordering discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoflowOrder {
    /// Smallest effective bottleneck (isolation Γ) first — Varys' SEBF.
    Sebf,
    /// Sincronia's BSSI primal-dual ordering.
    Bssi,
    /// Coflow arrival order (first member flow seen first).
    Arrival,
}

/// The Varys-style coflow scheduler: the MADD engine over coflows, ranked
/// by a [`CoflowOrder`]. Flows of no coflow are singleton groups.
#[derive(Debug, Clone)]
pub struct VarysMadd(EchelonMadd);

impl VarysMadd {
    /// Creates a scheduler over the declared coflows with SEBF ordering
    /// and backfill (Varys defaults).
    ///
    /// # Panics
    ///
    /// Panics if coflows share ids or flows.
    pub fn new(coflows: Vec<Coflow>) -> VarysMadd {
        let echelons = coflows.into_iter().map(Coflow::into_echelon).collect();
        VarysMadd(EchelonMadd::new(echelons).with_ranking(Ranking::Coflow(CoflowOrder::Sebf)))
    }

    /// Selects the inter-coflow ordering.
    pub fn with_order(self, order: CoflowOrder) -> VarysMadd {
        VarysMadd(self.0.with_ranking(Ranking::Coflow(order)))
    }

    /// Enables/disables work-conserving backfill.
    pub fn with_backfill(self, backfill: bool) -> VarysMadd {
        VarysMadd(self.0.with_backfill(backfill))
    }
}

/// The engine itself, for callers that hold either grouping behind one
/// type: it registers coflows through `Coflow::into_echelon`.
impl From<VarysMadd> for EchelonMadd {
    fn from(varys: VarysMadd) -> EchelonMadd {
        varys.0
    }
}

impl RatePolicy for VarysMadd {
    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.0.allocate_dense(now, flows, topo, ws, out);
    }

    fn allocate_dense_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.0
            .allocate_dense_incremental(now, flows, delta, topo, ws, out);
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn book_stats(&self) -> Option<(usize, usize)> {
        self.0.book_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echelon_core::echelon::FlowRef;
    use echelon_core::{EchelonId, JobId};
    use echelon_simnet::flow::FlowDemand;
    use echelon_simnet::ids::{FlowId, NodeId};
    use echelon_simnet::runner::run_flows;

    fn fr(id: u64, src: u32, dst: u32, size: f64) -> FlowRef {
        FlowRef::new(FlowId(id), NodeId(src), NodeId(dst), size)
    }

    fn demand(id: u64, src: u32, dst: u32, size: f64, release: f64) -> FlowDemand {
        FlowDemand::new(
            FlowId(id),
            NodeId(src),
            NodeId(dst),
            size,
            SimTime::new(release),
        )
    }

    /// The coflow half of the paper's Fig. 2: three 2B flows released at
    /// t = 1, 2, 3 on a B = 1 link, formulated as one coflow. MADD with
    /// remaining bytes makes them all finish simultaneously at t = 7.
    #[test]
    fn fig2b_all_flows_finish_at_7() {
        let topo = Topology::chain(2, 1.0);
        let coflow = Coflow::new(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 0, 1, 2.0)],
        );
        let mut policy = VarysMadd::new(vec![coflow]);
        let out = run_flows(
            &topo,
            vec![
                demand(0, 0, 1, 2.0, 1.0),
                demand(1, 0, 1, 2.0, 2.0),
                demand(2, 0, 1, 2.0, 3.0),
            ],
            &mut policy,
        );
        for id in [FlowId(0), FlowId(1), FlowId(2)] {
            assert!(
                out.finish(id).unwrap().approx_eq(SimTime::new(7.0)),
                "flow {id} finished at {:?}",
                out.finish(id)
            );
        }
    }

    /// The published rate sequence of Fig. 2b: after the third arrival the
    /// flows proceed at B/6, B/3, B/2.
    #[test]
    fn fig2b_final_rates_match_figure() {
        let topo = Topology::chain(2, 1.0);
        let coflow = Coflow::new(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 0, 1, 2.0)],
        );
        let mut policy = VarysMadd::new(vec![coflow]);
        let out = run_flows(
            &topo,
            vec![
                demand(0, 0, 1, 2.0, 1.0),
                demand(1, 0, 1, 2.0, 2.0),
                demand(2, 0, 1, 2.0, 3.0),
            ],
            &mut policy,
        );
        // Last RateSet before completion for each flow.
        let last_rate = |id: FlowId| -> f64 {
            out.trace()
                .rate_series(id)
                .iter()
                .rev()
                .find(|(_, r)| *r > 0.0)
                .map(|(_, r)| *r)
                .unwrap()
        };
        assert!((last_rate(FlowId(0)) - 1.0 / 6.0).abs() < 1e-9);
        assert!((last_rate(FlowId(1)) - 1.0 / 3.0).abs() < 1e-9);
        assert!((last_rate(FlowId(2)) - 1.0 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn sebf_serves_small_coflow_first() {
        let topo = Topology::chain(2, 1.0);
        let small = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let big = Coflow::new(EchelonId(1), JobId(1), vec![fr(1, 0, 1, 4.0)]);
        let mut policy = VarysMadd::new(vec![big, small]);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 1.0, 0.0), demand(1, 0, 1, 4.0, 0.0)],
            &mut policy,
        );
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(5.0)));
    }

    #[test]
    fn arrival_order_serves_first_come_first() {
        let topo = Topology::chain(2, 1.0);
        let small = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let big = Coflow::new(EchelonId(1), JobId(1), vec![fr(1, 0, 1, 4.0)]);
        let mut policy = VarysMadd::new(vec![big, small]).with_order(CoflowOrder::Arrival);
        let out = run_flows(
            &topo,
            vec![demand(1, 0, 1, 4.0, 0.0), demand(0, 0, 1, 1.0, 0.5)],
            &mut policy,
        );
        // Big arrived first and is not preempted by the small one.
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(4.0)));
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(5.0)));
    }

    #[test]
    fn bssi_order_also_finishes_small_first() {
        let topo = Topology::chain(2, 1.0);
        let small = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let big = Coflow::new(EchelonId(1), JobId(1), vec![fr(1, 0, 1, 4.0)]);
        let mut policy = VarysMadd::new(vec![big, small]).with_order(CoflowOrder::Bssi);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 1.0, 0.0), demand(1, 0, 1, 4.0, 0.0)],
            &mut policy,
        );
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(5.0)));
    }

    #[test]
    fn coflow_flows_on_disjoint_ports_finish_together() {
        // MADD shapes the whole coflow to its bottleneck: a coflow with a
        // 2B flow and a 1B flow on disjoint ports finishes both at Γ = 2
        // ... unless backfill accelerates the small one. With backfill off
        // they finish together.
        let topo = Topology::big_switch_uniform(4, 1.0);
        let coflow = Coflow::new(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 2, 3, 1.0)],
        );
        let mut policy = VarysMadd::new(vec![coflow]).with_backfill(false);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0), demand(1, 2, 3, 1.0, 0.0)],
            &mut policy,
        );
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(2.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(2.0)));
    }

    #[test]
    fn backfill_accelerates_non_bottleneck_flow() {
        let topo = Topology::big_switch_uniform(4, 1.0);
        let coflow = Coflow::new(
            EchelonId(0),
            JobId(0),
            vec![fr(0, 0, 1, 2.0), fr(1, 2, 3, 1.0)],
        );
        let mut policy = VarysMadd::new(vec![coflow]); // backfill on
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 2.0, 0.0), demand(1, 2, 3, 1.0, 0.0)],
            &mut policy,
        );
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(2.0)));
    }

    #[test]
    fn unaffiliated_flows_become_singletons() {
        let topo = Topology::chain(2, 1.0);
        let mut policy = VarysMadd::new(vec![]);
        let out = run_flows(
            &topo,
            vec![demand(0, 0, 1, 1.0, 0.0), demand(1, 0, 1, 2.0, 0.0)],
            &mut policy,
        );
        // SEBF over singletons = SRPT-ish: short one first.
        assert!(out.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(1.0)));
        assert!(out.finish(FlowId(1)).unwrap().approx_eq(SimTime::new(3.0)));
    }

    /// The delta-patched cache must allocate bit-identically to the cache
    /// rebuilt at every call (Full mode) for every coflow ordering.
    #[test]
    fn incremental_path_matches_naive() {
        use echelon_simnet::runner::{run_flows_with, RecomputeMode};
        let topo = Topology::big_switch_uniform(4, 1.0);
        let make = |order| {
            let c0 = Coflow::new(
                EchelonId(0),
                JobId(0),
                vec![fr(0, 0, 1, 2.0), fr(1, 0, 1, 2.0), fr(2, 2, 1, 1.0)],
            );
            let c1 = Coflow::new(EchelonId(1), JobId(1), vec![fr(10, 1, 3, 4.0)]);
            VarysMadd::new(vec![c0, c1]).with_order(order)
        };
        let demands = vec![
            demand(0, 0, 1, 2.0, 1.0),
            demand(1, 0, 1, 2.0, 2.0),
            demand(2, 2, 1, 1.0, 0.0),
            demand(10, 1, 3, 4.0, 0.5),
            demand(20, 3, 0, 0.7, 0.2), // solo flow
        ];
        for order in [CoflowOrder::Sebf, CoflowOrder::Bssi, CoflowOrder::Arrival] {
            let a = run_flows(&topo, demands.clone(), &mut make(order));
            let b = run_flows_with(
                &topo,
                demands.clone(),
                &mut make(order),
                RecomputeMode::Incremental,
            );
            assert_eq!(
                a.trace().events(),
                b.trace().events(),
                "trace mismatch for {order:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "claimed by two")]
    fn overlapping_coflows_rejected() {
        let a = Coflow::new(EchelonId(0), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let b = Coflow::new(EchelonId(1), JobId(0), vec![fr(0, 0, 1, 1.0)]);
        let _ = VarysMadd::new(vec![a, b]);
    }
}
