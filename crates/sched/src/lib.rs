//! # echelon-sched — flow schedulers for the EchelonFlow reproduction
//!
//! Every scheduler implements [`echelon_simnet::runner::RatePolicy`]: given
//! the active flows and the topology, produce a feasible rate allocation.
//! The lineup covers the paper's baselines and its contribution:
//!
//! - [`baselines`] — per-flow policies: max-min fair sharing (Fig. 2a),
//!   FIFO, and SRPT (pFabric-style shortest-remaining-first).
//! - [`echelon`] — **the paper's scheduler**: MADD adapted to the
//!   tardiness metric exactly as Property 4 prescribes. Intra-EchelonFlow,
//!   stages are served in ideal-finish-time order (earliest-due-date —
//!   provably optimal for max lateness on a single resource) with MADD
//!   rate shaping inside each stage; inter-EchelonFlow, EchelonFlows are
//!   ranked by their tardiness (Eq. 2). Coflow scheduling (Fig. 2b) is the
//!   same engine over one-stage groups (`Coflow::into_echelon`) under
//!   [`echelon::InterOrder::LeastWork`] (Varys' SEBF) or
//!   [`echelon::InterOrder::Bssi`]: every flow of a coflow finishes at its
//!   bottleneck time, with work-conserving backfill.
//! - [`sincronia`] — the BSSI-style coflow ordering used as an inter-group
//!   ordering ablation.
//! - [`optimal`] — brute-force search over permutation schedules on small
//!   instances, the ground truth for the Property 1 experiments.
//! - [`book`] — shared bookkeeping: binds EchelonFlow reference times as
//!   head flows appear and resolves per-flow ideal finish times.

//!
//! ## Example
//!
//! ```
//! use echelon_core::prelude::*;
//! use echelon_sched::prelude::*;
//! use echelon_simnet::prelude::*;
//!
//! // The paper's Fig. 2 instance as raw flows + an EchelonFlow.
//! let topo = Topology::chain(2, 1.0);
//! let flows: Vec<FlowRef> = (0..3)
//!     .map(|m| FlowRef::new(FlowId(m), NodeId(0), NodeId(1), 2.0))
//!     .collect();
//! let h = EchelonFlow::from_flows(
//!     EchelonId(0), JobId(0), flows, ArrangementFn::Staggered { gap: 1.0 });
//! let demands: Vec<FlowDemand> = (0..3)
//!     .map(|m| FlowDemand::new(
//!         FlowId(m), NodeId(0), NodeId(1), 2.0, SimTime::new(1.0 + m as f64)))
//!     .collect();
//!
//! let mut policy = EchelonMadd::new(vec![h]);
//! let out = run_flows(&topo, demands, &mut policy, &RunConfig::default());
//! // Staggered finishes at 3, 5, 7 — the paper's optimal schedule.
//! assert!(out.finish(FlowId(2)).unwrap().approx_eq(SimTime::new(7.0)));
//! ```

pub mod baselines;
pub mod book;
pub mod echelon;
pub mod optimal;
mod scratch;
pub mod sincronia;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::baselines::{FairPolicy, FifoPolicy, SrptPolicy};
    pub use crate::book::EchelonBook;
    pub use crate::echelon::{EchelonMadd, InterOrder, IntraMode};
    pub use crate::optimal::{optimal_schedule, Objective, OptimalResult};
}
