//! Timed fault injection: capacity churn and component outages.
//!
//! The paper's §5 system sketch assumes a live cluster where links and the
//! coordinator can degrade or vanish; CASSINI (NSDI '24) shows network
//! perturbation is exactly where DDLT schedulers win or lose. This module
//! supplies the missing workload class: a [`FaultPlan`] of timed
//! [`FaultEvent`]s that [`crate::driver::drive_faulted`] treats as a
//! first-class event source alongside flow releases and completions.
//!
//! Fault kinds and who handles them:
//!
//! - [`FaultKind::LinkDown`] / [`FaultKind::LinkRestore`] /
//!   [`FaultKind::LinkDegrade`] mutate the capacity of one resource inside
//!   the driver's [`crate::fluid::FluidNetwork`] (the authoritative
//!   topology copy) and force a rate recompute at the fault instant.
//!   Flows traversing a downed link stall at rate 0 — the waterfill
//!   freezes them on the saturated resource and the MADD schedulers
//!   starve the stage (`gamma = ∞`) — and the network accounts the
//!   stalled flow-seconds.
//! - [`FaultKind::CoordinatorDown`] / [`FaultKind::CoordinatorUp`] are
//!   forwarded to the rate policy via
//!   [`crate::runner::RatePolicy::on_fault`]; the coordinated scheduler
//!   degrades to fair-share backfill for the outage window instead of
//!   enforcing a stale decision forever.
//! - [`FaultKind::WorkerSlowdown`] is forwarded to the workload source via
//!   [`crate::driver::WorkloadSource::on_fault`]; the DAG runtime
//!   stretches the remaining time of computation units on the straggler.
//!
//! A fault instant is an event like a release or a completion: the driver
//! recomputes rates there even when the flow set is unchanged, so
//! incremental caches are exercised against capacity changes — the
//! differential suite (`tests/fault_differential.rs`) asserts that
//! incremental and full recomputes stay bit-identical through churn.

use crate::ids::{NodeId, ResourceId};
use crate::time::SimTime;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The resource's capacity drops to zero; flows crossing it stall.
    LinkDown(ResourceId),
    /// The resource returns to its base (construction-time) capacity.
    LinkRestore(ResourceId),
    /// The resource's capacity becomes `factor` × its base capacity.
    /// `factor` must be finite and non-negative; `0.0` is equivalent to
    /// [`FaultKind::LinkDown`], `1.0` to [`FaultKind::LinkRestore`].
    LinkDegrade(ResourceId, f64),
    /// The coordinator becomes unreachable: coordinated policies degrade
    /// to fair-share backfill until [`FaultKind::CoordinatorUp`].
    CoordinatorDown,
    /// The coordinator recovers and recomputes a fresh decision.
    CoordinatorUp,
    /// Computation on `worker` runs `factor`× slower from this instant
    /// (`factor > 1` is a straggler; `factor < 1` recovers). Applies to
    /// the remaining time of running and future computation units.
    WorkerSlowdown {
        /// The straggling host.
        worker: NodeId,
        /// Slowdown multiplier on compute time; must be finite and > 0.
        factor: f64,
    },
}

/// A fault scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-sorted schedule of faults, drained by the driver as simulated
/// time passes. Events at equal times keep their insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultPlan {
    /// Builds a plan from events in any order (stable-sorted by time).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite fault time, a degrade factor that is
    /// negative or non-finite, or a slowdown factor that is not positive
    /// and finite.
    pub fn new(mut events: Vec<FaultEvent>) -> FaultPlan {
        for e in &events {
            assert!(e.at.secs().is_finite(), "fault time must be finite");
            match e.kind {
                FaultKind::LinkDegrade(_, f) => {
                    assert!(f >= 0.0 && f.is_finite(), "bad degrade factor {f}");
                }
                FaultKind::WorkerSlowdown { factor, .. } => {
                    assert!(
                        factor > 0.0 && factor.is_finite(),
                        "bad slowdown factor {factor}"
                    );
                }
                _ => {}
            }
        }
        events.sort_by_key(|a| a.at);
        FaultPlan { events, cursor: 0 }
    }

    /// A plan with no faults (what plain [`crate::driver::drive`] uses).
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Chainable builder: adds a fault and re-sorts.
    pub fn with(mut self, at: SimTime, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { at, kind });
        FaultPlan::new(self.events)
    }

    /// True when the plan contains no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total number of scheduled events (applied or not).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// All scheduled events in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Rewinds the drain cursor so the plan can be replayed.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// Seconds until the next unapplied fault, if any (relative to `now`,
    /// clamped at zero — mirrors
    /// [`crate::driver::WorkloadSource::next_event_in`]).
    pub fn next_in(&self, now: SimTime) -> Option<f64> {
        self.events.get(self.cursor).map(|e| (e.at - now).max(0.0))
    }

    /// Pops the next fault if it is due at `now` (within epsilon).
    pub fn pop_due(&mut self, now: SimTime) -> Option<FaultEvent> {
        let e = self.events.get(self.cursor)?;
        if e.at.at_or_before(now) {
            self.cursor += 1;
            Some(*e)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_and_drains_in_time_order() {
        let mut plan = FaultPlan::new(vec![
            FaultEvent {
                at: SimTime::new(5.0),
                kind: FaultKind::LinkRestore(ResourceId(0)),
            },
            FaultEvent {
                at: SimTime::new(1.0),
                kind: FaultKind::LinkDown(ResourceId(0)),
            },
        ]);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.next_in(SimTime::ZERO), Some(1.0));
        assert!(plan.pop_due(SimTime::ZERO).is_none());
        let first = plan.pop_due(SimTime::new(1.0)).unwrap();
        assert_eq!(first.kind, FaultKind::LinkDown(ResourceId(0)));
        assert_eq!(plan.next_in(SimTime::new(1.0)), Some(4.0));
        let second = plan.pop_due(SimTime::new(7.0)).unwrap();
        assert_eq!(second.kind, FaultKind::LinkRestore(ResourceId(0)));
        assert!(plan.next_in(SimTime::new(7.0)).is_none());
        plan.reset();
        assert_eq!(plan.next_in(SimTime::new(1.0)), Some(0.0));
    }

    #[test]
    fn equal_time_events_keep_insertion_order() {
        let t = SimTime::new(2.0);
        let mut plan = FaultPlan::empty()
            .with(t, FaultKind::LinkDown(ResourceId(3)))
            .with(t, FaultKind::CoordinatorDown);
        assert_eq!(
            plan.pop_due(t).unwrap().kind,
            FaultKind::LinkDown(ResourceId(3))
        );
        assert_eq!(plan.pop_due(t).unwrap().kind, FaultKind::CoordinatorDown);
    }

    #[test]
    #[should_panic(expected = "bad degrade factor")]
    fn negative_degrade_rejected() {
        let _ = FaultPlan::empty().with(SimTime::ZERO, FaultKind::LinkDegrade(ResourceId(0), -0.5));
    }

    #[test]
    #[should_panic(expected = "bad slowdown factor")]
    fn zero_slowdown_rejected() {
        let _ = FaultPlan::empty().with(
            SimTime::ZERO,
            FaultKind::WorkerSlowdown {
                worker: NodeId(0),
                factor: 0.0,
            },
        );
    }
}
