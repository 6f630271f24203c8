//! # echelon-simnet — deterministic discrete-event fluid network simulator
//!
//! This crate is the network substrate of the EchelonFlow reproduction
//! (HotNets '22). It simulates flows as *fluids*: between two consecutive
//! events every active flow transmits at a constant rate chosen by a
//! scheduling policy, and rates are recomputed whenever a flow starts or
//! finishes. This is the standard evaluation substrate of the Coflow
//! literature (Varys, Sincronia) and exercises exactly the code path the
//! paper's claims are about — *who finishes when under a given bandwidth
//! allocation policy*.
//!
//! Design follows the smoltcp philosophy: event-driven, deterministic,
//! simple and robust over clever type tricks. There is no async runtime —
//! the simulation is CPU-bound and single-threaded, and events are totally
//! ordered by `(time, sequence)` so identical inputs always produce
//! identical traces.
//!
//! ## Layout
//!
//! - [`time`] — simulated time ([`time::SimTime`]) and epsilon-aware comparison.
//! - [`ids`] — small integer identifiers for nodes, links and flows.
//! - [`fattree`] — k-ary fat-tree builder with oversubscription, the
//!   datacenter fabric experiments run on.
//! - [`topology`] — the two network models used throughout: a non-blocking
//!   [`topology::BigSwitch`] fabric (per-host NIC capacities, the Varys
//!   model) and an explicit [`topology::LinkGraph`] with static shortest
//!   path routing.
//! - [`flow`] — flow demands and live flow state.
//! - [`alloc`] — dense allocation primitives shared by all schedulers:
//!   weighted max-min waterfilling on top of a floor (the work-conserving
//!   backfill), and strict-priority filling.
//! - [`fluid`] — the active-flow table: applies a rate allocation, advances
//!   time, and predicts the next flow completion via per-slot absolute due
//!   times (linear scan or calendar queue, bit-identical by construction).
//! - [`calendar`] — the bucketed calendar queue over predicted completion
//!   times backing the fluid layer's next-completion query.
//! - [`fault`] — timed fault injection: link down/restore/degrade,
//!   coordinator outage windows, and straggler compute slowdowns, driven
//!   as a first-class event source by [`driver::drive`].
//! - [`linkload`] — the stamped dense per-link accumulator the MADD
//!   schedulers allocate rates with.
//! - [`sweep`] — deterministic parallel sweep engine: shared-nothing
//!   scenario/seed/scheduler tasks fan out across threads (`parallel`
//!   feature, default on) with results merged in task-index order, so
//!   output is byte-identical regardless of thread count.
//! - [`driver`] — the shared simulation driver: one
//!   release→allocate→advance→complete event loop, parameterized by a
//!   [`driver::WorkloadSource`]. Every simulation in the workspace (static
//!   demands, quantized chunks, DAG runtimes, cluster arrivals) runs on it.
//! - [`quantized`] — chunk-quantized transmission, validating the fluid
//!   model against discretized behaviour.
//! - [`runner`] — a self-contained simulation loop that drives a set of
//!   flow demands to completion under a [`runner::RatePolicy`].
//! - [`trace`] — a time-series recorder used to regenerate the paper's
//!   figures.
//!
//! ## Quick example
//!
//! ```
//! use echelon_simnet::prelude::*;
//!
//! // Two hosts on a non-blocking big switch with unit NIC capacity.
//! let topo = Topology::big_switch_uniform(2, 1.0);
//! let demands = vec![
//!     FlowDemand::new(FlowId(0), NodeId(0), NodeId(1), 2.0, SimTime::ZERO),
//!     FlowDemand::new(FlowId(1), NodeId(0), NodeId(1), 2.0, SimTime::ZERO),
//! ];
//! let mut policy = MaxMinPolicy;
//! let outcome = run_flows(&topo, demands, &mut policy, &RunConfig::default());
//! // Two equal flows share the egress port fairly: both finish at t = 4.
//! assert!(outcome.finish(FlowId(0)).unwrap().approx_eq(SimTime::new(4.0)));
//! ```

pub mod alloc;
pub mod calendar;
pub mod driver;
pub mod fattree;
pub mod fault;
pub mod flow;
pub mod fluid;
pub mod ids;
pub mod linkload;
pub mod quantized;
pub mod runner;
pub mod sweep;
pub mod time;
pub mod topology;
pub mod trace;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::alloc::{AllocScratch, RateAlloc};
    pub use crate::calendar::CalendarQueue;
    pub use crate::driver::{drive, DriveOutcome, WorkloadSource};
    pub use crate::fattree::{FatTree, FatTreeFabric};
    pub use crate::fault::{FaultEvent, FaultKind, FaultPlan};
    pub use crate::flow::{ActiveFlowView, FlowArena, FlowDemand};
    pub use crate::fluid::{FlowDelta, FluidNetwork, NextCompletionMode};
    pub use crate::ids::{FlowId, LinkId, NodeId, ResourceId};
    pub use crate::linkload::LinkLoad;
    pub use crate::quantized::{run_flows_quantized, ChunkVisibility, QuantizedOutcome};
    pub use crate::runner::{
        run_flows, FlowOutcomes, MaxMinPolicy, PodMaxMinPolicy, RatePolicy, RecomputeMode,
        RunConfig,
    };
    pub use crate::time::SimTime;
    pub use crate::topology::Topology;
    pub use crate::trace::{FlowTrace, TraceEvent, TraceEventKind};
}
