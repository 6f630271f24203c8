//! # echelon-agent — the EchelonFlow scheduling system (paper §5, Fig. 7)
//!
//! The paper sketches a three-part system; this crate realizes each part
//! against the simulation substrate. The framework's report — "the
//! arrangement function and per-flow information (the size, source, and
//! destination)" per EchelonFlow — is the
//! [`echelon_core::echelon::EchelonFlow`] itself, which a
//! [`echelon_paradigms::dag::JobDag`] declares for its job.
//!
//! - [`agent`] — the per-job **EchelonFlow Agent**: the shim between the
//!   framework and the coordinator. It moves the job's EchelonFlows into
//!   the coordinator.
//! - [`coordinator`] — the global **Coordinator**: runs the heuristic
//!   adapted from Coflow scheduling (MADD with the tardiness metric,
//!   §3.3/P4) per EchelonFlow arrival/departure or per scheduling
//!   interval, and implements the paper's scalability optimization of
//!   reusing decisions across the iterations of a DDLT job.
//! - [`enforce`] — schedule enforcement through a small number of
//!   discrete priority queues served with weighted bandwidth sharing (the
//!   common practice the paper cites [13, 23, 34]), including the
//!   fidelity loss that quantization causes.

pub mod agent;
pub mod coordinator;
pub mod enforce;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::agent::EchelonAgent;
    pub use crate::coordinator::{CoordinatedPolicy, Coordinator, CoordinatorConfig, Trigger};
    pub use crate::enforce::{quantize_to_queues, QueueConfig, QueueEnforcedPolicy};
}
