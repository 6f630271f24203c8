//! # echelon-cluster — multi-tenant GPU cluster simulation
//!
//! The paper targets "DDLT in GPU clusters, where training jobs share the
//! network bandwidth and GPUs can be fragmented" (§5). This crate builds
//! that setting on top of the paradigm models:
//!
//! - [`workload`] — seeded random workloads: Poisson job arrivals, a
//!   configurable paradigm mix (DP/PS/PP/1F1B/TP/FSDP), and job arrival
//!   gating (a job's workers and flows only activate at its arrival
//!   time).
//! - [`placement`] — GPU assignment as a first-class subsystem: a
//!   topology-aware [`placement::HostPool`] and five policies behind
//!   [`placement::PlacementPolicy`] — packed, scattered (fragmented
//!   clusters — the multi-tenant reality the paper cites [25, 56]),
//!   pod-packed ring affinity, CASSINI-style phase interleaving, and
//!   contention-aware least-loaded selection.
//! - [`metrics`] — post-hoc measurement: per-job completion times,
//!   per-EchelonFlow tardiness reconstructed from the run trace (Eq. 2),
//!   the global objective (Eq. 4), and worker idleness.
//! - [`scenario`] — end-to-end scenario runner comparing schedulers on
//!   the same workload, and [`scenario::SchedulerKind::policy`], which
//!   builds every run's scheduler.
//! - [`churn`] — seeded fault-plan generation (link flaps, degradations,
//!   coordinator outages, stragglers) for the capacity-churn experiments.
//! - [`service`] — the open-loop service runner: streaming job arrivals
//!   through a bounded admission queue, placement and compilation at
//!   admission, scheduler-book eviction of completed jobs, and the
//!   open≡closed differential that shows eviction changes nothing.

pub mod churn;
pub mod metrics;
pub mod placement;
pub mod scenario;
pub mod service;
pub mod workload;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::churn::{continuous_fault_plan, random_fault_plan, ChurnConfig};
    pub use crate::metrics::{
        echelon_tardiness_from_run, percentile, steady_state_metrics, JobMetrics, ScenarioMetrics,
        SteadyStateMetrics,
    };
    pub use crate::metrics::{placement_spread, PlacementSpread};
    pub use crate::placement::{
        place_jobs, place_jobs_on, placer_for, pods_spanned, HostPool, PlacementError,
        PlacementPolicy, PlacementRequest, Placer,
    };
    pub use crate::scenario::{Scenario, SchedulerKind};
    pub use crate::service::{run_service, ServiceConfig, ServiceMode, ServiceOutcome};
    pub use crate::workload::{
        apply_compute_jitter, delay_start, generate_workload, generate_workload_on, OpenLoopConfig,
        ParadigmKind, ServicePlacement, TenantSpec, WorkloadConfig,
    };
}
