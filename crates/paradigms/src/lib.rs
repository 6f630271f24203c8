//! # echelon-paradigms — DDLT training-paradigm workload models
//!
//! This crate models the distributed deep learning training paradigms the
//! paper analyzes (§2, Table 1) as **computation DAGs coupled to network
//! flows**, and runs them on the fluid network substrate:
//!
//! | Paradigm | Module | EchelonFlow arrangement (§4) |
//! |---|---|---|
//! | DP - AllReduce | [`dp`] | same flow finish time (Coflow, Eq. 5) |
//! | DP - PS | [`dp`] | same flow finish time (Coflow, Eq. 5) |
//! | PP (GPipe) | [`pp`] | staggered flow finish time (Eq. 6) |
//! | PP (1F1B) | [`pp`] | staggered, general offsets |
//! | TP (Megatron) | [`tp`] | same flow finish time (Coflow, Eq. 5) |
//! | FSDP (ZeRO) | [`fsdp`] | staggered Coflow finish time (Eq. 7) |
//!
//! Each builder produces a [`dag::JobDag`]: computation units pinned to
//! workers (executed in strict per-worker program order, like a GPU
//! stream), communication units decomposed into flow stages, the
//! dependency edges between them, and **both** groupings of the job's
//! flows — the EchelonFlow formulation of §4 and the plain Coflow
//! formulation a Coflow scheduler would use — so every experiment can run
//! the same job under both abstractions.
//!
//! [`runtime`] co-simulates computation and communication: workers execute
//! their programs, completed computations release flows, completed flows
//! unblock computations, and a pluggable [`echelon_simnet::runner::RatePolicy`]
//! allocates bandwidth. [`profiler`] extracts the arrangement-function
//! "distances" (T, T_fwd, T_bwd) by measuring an uncontended run, exactly
//! as the paper's system profiles a few training iterations (§5).

//!
//! ## Example
//!
//! ```
//! use echelon_core::JobId;
//! use echelon_paradigms::prelude::*;
//! use echelon_paradigms::config::PpConfig;
//! use echelon_sched::echelon::EchelonMadd;
//! use echelon_simnet::runner::RunConfig;
//! use echelon_simnet::time::SimTime;
//! use echelon_simnet::topology::Topology;
//!
//! // Build the paper's Fig. 2 GPipe job and run it under the
//! // EchelonFlow scheduler.
//! let mut alloc = IdAlloc::new();
//! let dag = build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut alloc);
//! let topo = Topology::chain(2, 1.0);
//! let mut policy = EchelonMadd::new(dag.echelons.clone());
//! let out = run_jobs(&topo, &[&dag], &mut policy, &RunConfig::default());
//! assert!(out.makespan.secs() > 0.0);
//! ```

pub mod config;
pub mod dag;
pub mod dp;
pub mod fsdp;
pub mod hybrid;
pub mod ids;
pub mod pp;
pub mod profiler;
pub mod runtime;
pub mod tp;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::config::{DpConfig, FsdpConfig, PpConfig, TpConfig};
    pub use crate::dag::{CommUnit, CompLabel, CompUnit, DagBuilder, JobDag};
    pub use crate::dp::{build_dp_allreduce, build_dp_hierarchical, build_dp_ps};
    pub use crate::fsdp::build_fsdp;
    pub use crate::hybrid::{build_hybrid, HybridConfig};
    pub use crate::ids::{CommId, CompId, IdAlloc};
    pub use crate::pp::{build_pp_1f1b, build_pp_gpipe};
    pub use crate::profiler::{profile_gaps, ProfileReport};
    pub use crate::runtime::{run_jobs, RunResult};
    pub use crate::tp::build_tp;
}
