//! Time-series recording for figure regeneration.
//!
//! The paper's Fig. 2 shows, for each scheduling policy, the piecewise
//! constant rate each flow receives over time. [`FlowTrace`] records
//! exactly that: release, every rate change, and completion per flow, so
//! the experiment harness can print the same series the figure plots.

use crate::flow::ActiveFlowView;
use crate::ids::FlowId;
use crate::time::{SimTime, EPS};
use std::collections::BTreeMap;

/// What happened to a flow at an instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// The flow entered the network.
    Released,
    /// The flow's allocated rate changed to the given value.
    RateSet(f64),
    /// The flow delivered its last byte.
    Finished,
}

/// One timestamped event in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// When it happened.
    pub time: SimTime,
    /// Which flow it happened to.
    pub flow: FlowId,
    /// What happened.
    pub kind: TraceEventKind,
}

/// An append-only log of flow events, in chronological order.
#[derive(Debug, Default, Clone)]
pub struct FlowTrace {
    events: Vec<TraceEvent>,
    // Last rate recorded per arena slot, tagged with the flow holding the
    // slot: the no-op dedup in `record_rate` runs for every flow at every
    // allocation, so it is one indexed read, not a search.
    last_rate: Vec<Option<(FlowId, f64)>>,
}

impl FlowTrace {
    /// Creates an empty trace.
    pub fn new() -> FlowTrace {
        FlowTrace::default()
    }

    /// Appends an event. Events must be recorded in non-decreasing time
    /// order (the simulator guarantees this).
    pub fn record(&mut self, time: SimTime, flow: FlowId, kind: TraceEventKind) {
        if let Some(last) = self.events.last() {
            debug_assert!(last.time.at_or_before(time), "trace time went backwards");
        }
        self.events.push(TraceEvent { time, flow, kind });
    }

    /// Records a rate change for the active flow `flow`, skipping no-op
    /// updates (same rate as the flow's previous rate event) to keep
    /// traces readable.
    ///
    /// The previous rate is kept per arena slot. A slot holds one flow for
    /// that flow's whole lifetime, and flow ids are unique within a run, so
    /// a slot whose tag names another flow means this flow has no rate
    /// event yet.
    pub fn record_rate(&mut self, time: SimTime, flow: &ActiveFlowView, rate: f64) {
        let slot = flow.slot as usize;
        if slot >= self.last_rate.len() {
            self.last_rate.resize(slot + 1, None);
        }
        let unchanged = match self.last_rate[slot] {
            Some((id, prev)) if id == flow.id => (prev - rate).abs() < EPS,
            _ => rate.abs() < EPS, // initial zero rate is implicit
        };
        if unchanged {
            return;
        }
        self.last_rate[slot] = Some((flow.id, rate));
        self.record(time, flow.id, TraceEventKind::RateSet(rate));
    }

    /// All events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events touching one flow, in order.
    pub fn for_flow(&self, flow: FlowId) -> Vec<TraceEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.flow == flow)
            .collect()
    }

    /// Reconstructs the piecewise-constant rate function of a flow as
    /// `(start_time, rate)` breakpoints, ending at its finish event.
    pub fn rate_series(&self, flow: FlowId) -> Vec<(SimTime, f64)> {
        let mut series = Vec::new();
        for e in self.for_flow(flow) {
            match e.kind {
                TraceEventKind::Released => series.push((e.time, 0.0)),
                TraceEventKind::RateSet(r) => series.push((e.time, r)),
                TraceEventKind::Finished => series.push((e.time, 0.0)),
            }
        }
        series
    }

    /// Integral of a flow's recorded rate over time: the bytes the trace
    /// claims were delivered. Used by conservation tests.
    pub fn delivered_bytes(&self, flow: FlowId) -> f64 {
        let series = self.rate_series(flow);
        let mut total = 0.0;
        for pair in series.windows(2) {
            let (t0, r0) = pair[0];
            let (t1, _) = pair[1];
            total += r0 * (t1 - t0);
        }
        total
    }

    /// The set of flows that appear in the trace.
    pub fn flows(&self) -> Vec<FlowId> {
        let mut set: BTreeMap<FlowId, ()> = BTreeMap::new();
        for e in &self.events {
            set.insert(e.flow, ());
        }
        set.into_keys().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn records_in_order() {
        let mut tr = FlowTrace::new();
        tr.record(SimTime::new(0.0), FlowId(0), TraceEventKind::Released);
        tr.record(SimTime::new(1.0), FlowId(0), TraceEventKind::Finished);
        assert_eq!(tr.events().len(), 2);
    }

    fn view(id: u64, slot: u32) -> ActiveFlowView {
        ActiveFlowView {
            id: FlowId(id),
            slot,
            src: NodeId(0),
            dst: NodeId(1),
            size: 1.0,
            remaining: 1.0,
            release: SimTime::ZERO,
            route: Vec::new(),
        }
    }

    fn rate_events(tr: &FlowTrace, flow: FlowId) -> Vec<f64> {
        tr.for_flow(flow)
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::RateSet(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn rate_dedup_skips_noop() {
        let mut tr = FlowTrace::new();
        let f = view(0, 0);
        tr.record(SimTime::new(0.0), f.id, TraceEventKind::Released);
        tr.record_rate(SimTime::new(0.0), &f, 0.5);
        tr.record_rate(SimTime::new(1.0), &f, 0.5); // no-op
        tr.record_rate(SimTime::new(2.0), &f, 1.0);
        assert_eq!(rate_events(&tr, f.id), [0.5, 1.0]);
    }

    #[test]
    fn initial_zero_rate_implicit() {
        let mut tr = FlowTrace::new();
        let f = view(0, 0);
        tr.record(SimTime::new(0.0), f.id, TraceEventKind::Released);
        tr.record_rate(SimTime::new(0.0), &f, 0.0);
        assert_eq!(tr.for_flow(f.id).len(), 1);
    }

    /// A recycled slot starts the new flow's dedup afresh: its first rate
    /// is recorded even when it equals the slot's previous flow's last
    /// rate, and a zero first rate stays implicit.
    #[test]
    fn recycled_slot_does_not_inherit_the_previous_flows_rate() {
        let mut tr = FlowTrace::new();
        let (a, b, c) = (view(0, 3), view(1, 3), view(2, 3));
        tr.record_rate(SimTime::new(0.0), &a, 0.5);
        tr.record_rate(SimTime::new(1.0), &b, 0.5);
        tr.record_rate(SimTime::new(2.0), &c, 0.0);
        tr.record_rate(SimTime::new(3.0), &c, 0.25);
        assert_eq!(rate_events(&tr, a.id), [0.5]);
        assert_eq!(rate_events(&tr, b.id), [0.5]);
        assert_eq!(rate_events(&tr, c.id), [0.25]);
    }

    #[test]
    fn delivered_bytes_integrates_rate() {
        let mut tr = FlowTrace::new();
        let f = view(0, 0);
        tr.record(SimTime::new(0.0), FlowId(0), TraceEventKind::Released);
        tr.record_rate(SimTime::new(0.0), &f, 0.5);
        tr.record_rate(SimTime::new(2.0), &f, 1.0);
        tr.record(SimTime::new(3.0), FlowId(0), TraceEventKind::Finished);
        // 0.5 * 2 + 1.0 * 1 = 2.0
        assert!((tr.delivered_bytes(FlowId(0)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn flows_lists_unique_ids() {
        let mut tr = FlowTrace::new();
        tr.record(SimTime::new(0.0), FlowId(3), TraceEventKind::Released);
        tr.record(SimTime::new(0.0), FlowId(1), TraceEventKind::Released);
        tr.record(SimTime::new(1.0), FlowId(3), TraceEventKind::Finished);
        assert_eq!(tr.flows(), vec![FlowId(1), FlowId(3)]);
    }
}
