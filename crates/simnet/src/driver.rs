//! The shared simulation driver: one event loop for every workload shape.
//!
//! Every simulation in this repository — static demand lists, chunk-
//! quantized transport, dynamic DAG runtimes, cluster arrival streams —
//! alternates the same four steps: release whatever is due, ask the
//! policy to (re)allocate rates, advance to the next event, and hand
//! completions back to the workload. [`drive`] owns that skeleton once:
//! delta draining, same-instant event batching, relative-delta time
//! stepping, deadlock detection with actionable diagnostics, and trace
//! recording. It has one recompute rule, the fluid model's: rates are
//! reallocated at every event batch that has active flows, and held
//! constant in between. The parts that differ per workload live behind
//! [`WorkloadSource`]:
//!
//! - the static demand runner ([`crate::runner::run_flows`]) releases
//!   flows at fixed times;
//! - the chunk-quantized validator ([`crate::quantized`]) chains chunk
//!   releases off completions and presents chunks to the policy under
//!   their parents' identities;
//! - the DAG runtime (`echelon-paradigms`) completes computation units
//!   and cascades newly ready communication stages;
//! - the cluster scenario layer adds per-job admission times on top of
//!   the DAG runtime.
//!
//! Each shape has one run call, and each takes a [`RunConfig`]: the
//! [`crate::fault::FaultPlan`] injected while the run plays out and the
//! [`DriveConfig`] engine knobs. Its default is a fault-free run at the
//! default knobs.
//!
//! All of them share one [`RatePolicy`] seam: every allocation is one
//! call of the policy's delta entry,
//! [`RatePolicy::allocate_dense_incremental_sparse`]. A run whose policy
//! is wrapped in [`crate::runner::FullRecompute`] re-derives everything
//! at every allocation instead, and the differential suites (see
//! `tests/differential.rs` at the workspace root) hold the two to the
//! same bits across layers.

use crate::alloc::AllocScratch;
use crate::fault::FaultKind;
use crate::flow::{ActiveFlowView, FlowCompletion};
use crate::fluid::{FlowDelta, FluidNetwork, NextCompletionMode};
use crate::runner::{RatePolicy, RunConfig};
use crate::time::{SimTime, EPS};
use crate::topology::Topology;
use crate::trace::{FlowTrace, TraceEventKind};

/// Engine knobs for a drive: which next-completion backend the network
/// uses and whether per-allocation feasibility checks run. All paths are
/// bit-identical across every combination — the differential suites pin
/// this — so the config only trades debuggability against throughput.
/// Defaults: calendar queue, checks on, trace on, profiling off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveConfig {
    /// Next-completion backend (linear scan vs calendar queue) for the
    /// driver's [`FluidNetwork`].
    pub next_completion: NextCompletionMode,
    /// Per-allocation feasibility verification
    /// ([`FluidNetwork::set_feasibility_checks`]): an O(flows · route)
    /// pass over the links in use, with no arithmetic effect. `false`
    /// for scale benchmarks, which pin the allocator by digest instead.
    pub feasibility_checks: bool,
    /// Whether the run keeps a trace at all (AND-ed with
    /// [`WorkloadSource::wants_trace`]). Off, every event kind is
    /// skipped: the driver records no rate or finish events, and the
    /// trace it passes to the source records nothing, so releases are
    /// dropped too. The DAG runtime also keeps no per-unit history
    /// (worker timeline, computation and communication spans) when it is
    /// off. Rate recording is O(active flows) per allocation and the
    /// trace grows with every flow, so scale benchmarks and open-loop
    /// runs turn it off.
    pub trace: bool,
    /// Collect the [`PhaseTimings`] wall-clock breakdown. Off by default:
    /// the clock reads cost a few hundred nanoseconds per event, which is
    /// real money at millions of events per second. Timing has no effect
    /// on the simulation arithmetic either way.
    pub profile: bool,
    /// Has no effect. Kept only because existing struct literals (the
    /// benchmark's flow config among them) name it.
    pub link_stats: bool,
}

impl Default for DriveConfig {
    fn default() -> DriveConfig {
        DriveConfig {
            next_completion: NextCompletionMode::default(),
            feasibility_checks: true,
            trace: true,
            profile: false,
            link_stats: true,
        }
    }
}

/// Wall-clock nanoseconds per driver phase, accumulated over a run when
/// [`DriveConfig::profile`] is on (all zero otherwise). The four phases
/// partition the event loop:
///
/// - **queue**: deciding the next event — the source's next-event query,
///   the network's next-completion query (calendar/scan backend), and the
///   fault plan's next-due query;
/// - **allocate**: the policy allocation itself
///   ([`WorkloadSource::allocate`]);
/// - **write-back**: applying the dense rates to the network
///   ([`FluidNetwork::set_rates_dense`] — bitwise change detection, due
///   re-derivation, calendar upserts), plus rate-trace recording;
/// - **bookkeeping**: everything else — fault application, releases,
///   byte transfer + completion collection ([`FluidNetwork::advance`]),
///   and completion hand-back to the source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Next-event queries (source, network, fault plan).
    pub queue_ns: u64,
    /// Policy allocations.
    pub allocate_ns: u64,
    /// Dense rate application (change detection + due/calendar upkeep).
    pub write_back_ns: u64,
    /// Fault application, releases, advance, completion hand-back.
    pub bookkeeping_ns: u64,
}

/// How [`WorkloadSource::allocate`]'s output buffer must be applied to
/// the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateApply {
    /// Every entry of the buffer is authoritative: apply densely.
    Dense,
    /// Only the indices reported by [`RatePolicy::changed_indices`] were
    /// rewritten; remaining entries are unspecified and the network's
    /// current rates for them stay in force.
    ///
    /// [`RatePolicy::changed_indices`]: crate::runner::RatePolicy::changed_indices
    Sparse,
}

/// A workload plugged into [`drive`]: where flows come from, what happens
/// when they finish, and when the workload is over. The driver allocates
/// at every event batch that has active flows, so a source controls
/// recomputes only through the events it schedules.
pub trait WorkloadSource {
    /// Processes everything scheduled at the current instant: releases
    /// due flows into `net` (recording a `Released` event into `trace`
    /// for each; the driver hands out a trace that drops them when
    /// [`DriveConfig::trace`] is off),
    /// completes internal non-flow work (e.g. computation units), and
    /// cascades any releases that become ready as a result. Called at the
    /// top of every driver iteration, before the allocation.
    fn release_due(&mut self, now: SimTime, net: &mut FluidNetwork, trace: &mut FlowTrace);

    /// True once the workload has fully completed. Checked right after
    /// [`Self::release_due`]; the driver exits without advancing further.
    fn finished(&self) -> bool;

    /// Seconds until the source's next internally scheduled event (a
    /// pending release or an internal completion), if any. Relative to
    /// `now` — the driver steps by relative deltas so a sub-ulp event gap
    /// cannot round to a zero step and stall the loop.
    fn next_event_in(&self, now: SimTime) -> Option<f64>;

    /// Called after the network advanced, with the flows that finished
    /// (ascending id order). `Finished` trace events, if wanted, have
    /// already been recorded by the driver.
    fn on_flow_completions(
        &mut self,
        now: SimTime,
        done: &[FlowCompletion],
        net: &mut FluidNetwork,
        trace: &mut FlowTrace,
    );

    /// Whether the run keeps a trace (AND-ed with
    /// [`DriveConfig::trace`]). When either says no, the driver records
    /// no rate or finish events and the trace passed to the source
    /// records nothing. Sources whose flow ids are internal artifacts
    /// (e.g. chunk ids in the quantized validator) opt out.
    fn wants_trace(&self) -> bool {
        true
    }

    /// How many flows the source will release over the whole run, if it
    /// knows up front. The driver passes the hint to
    /// [`FluidNetwork::reserve`] so the flow table, completion queues,
    /// and route arena grow once instead of doubling mid-run. `None`
    /// (the default) means unknown — purely a capacity hint, never a
    /// limit.
    fn expected_flows(&self) -> Option<usize> {
        None
    }

    /// Runs one allocation into the dense `out` buffer (`out[i]` rates
    /// `flows[i]`) and reports how the driver must apply it. The default
    /// is the policy's delta entry,
    /// [`RatePolicy::allocate_dense_incremental_sparse`], and passes
    /// through its sparse-change report; sources that
    /// present flows to the policy under a different identity
    /// (chunk → parent) override this to translate views, delta, and
    /// resulting rates — such translations invalidate the policy's index
    /// tracking, so overrides return [`RateApply::Dense`] unless they
    /// re-derive a changed set themselves. `ws` is the driver's reusable
    /// allocation workspace — thread it through so steady-state
    /// allocations stay heap-free.
    #[allow(clippy::too_many_arguments)]
    fn allocate(
        &mut self,
        policy: &mut dyn RatePolicy,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) -> RateApply {
        if policy.allocate_dense_incremental_sparse(now, flows, delta, topo, ws, out) {
            RateApply::Sparse
        } else {
            RateApply::Dense
        }
    }

    /// Extra context appended to the deadlock panic: pending work the
    /// network cannot see (unreleased communication stages, queued
    /// chunks, …). Empty by default.
    fn deadlock_context(&self) -> String {
        String::new()
    }

    /// Notifies the source of an injected fault (see [`crate::fault`]).
    /// Link capacity changes have already been applied to the network by
    /// the driver; sources only need to react to faults that touch their
    /// *internal* state — the DAG runtime stretches running computation
    /// units on a [`FaultKind::WorkerSlowdown`]. Default: ignore.
    fn on_fault(&mut self, now: SimTime, fault: &FaultKind) {
        let _ = (now, fault);
    }
}

/// Driver counters: allocations, event batching, faults, and the
/// policies' own reports. Lets tests assert that batching and fault
/// handling fired (not vacuously enabled) and account for every event.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriveStats {
    /// Rate allocations performed: one per event batch with active flows.
    pub allocations: usize,
    /// Always zero: the driver allocates at every event batch and skips
    /// none. Kept because readers of `DriveStats` (the benchmark) still
    /// report it.
    pub horizon_skips: usize,
    /// Fault events applied from the [`crate::fault::FaultPlan`].
    pub fault_events: usize,
    /// Allocations at a fault instant: batches that drained at least one
    /// fault, whether or not the flow set also changed.
    pub fault_recomputes: usize,
    /// Flow-seconds spent stalled on a downed link (each active flow
    /// whose route crosses a zero-capacity resource contributes one
    /// flow-second per second; see
    /// [`FluidNetwork::stall_flow_seconds`]).
    pub stall_flow_seconds: f64,
    /// Pods actually recomputed by a pod-decomposed policy, summed over
    /// allocations (see [`RatePolicy::pod_stats`]). Zero for policies
    /// without pod decomposition.
    pub pods_recomputed: usize,
    /// Pods in scope at each allocation by a pod-decomposed policy,
    /// summed likewise. Zero for policies without pod decomposition.
    pub pods_total: usize,
    /// High-water mark of concurrently active flows over the run.
    pub peak_active: usize,
    /// Flow-arena capacity at exit: the high-water mark of concurrently
    /// live slots in the driver's [`FluidNetwork`].
    pub arena_capacity: usize,
    /// High-water mark of the policy's group registry (see
    /// [`RatePolicy::book_stats`]). Zero for policies without a group
    /// registry. Open-loop drives assert this stays sublinear in the
    /// total jobs processed — the bounded-memory guarantee.
    pub peak_book_occupancy: usize,
    /// Coalesced event batches: groups of raw events (faults, releases,
    /// completions) sharing one instant that were drained into a single
    /// allocation decision. Equal to [`Self::allocations`]: the driver
    /// allocates once per batch. ([`Self::pod_recompute_fraction`] has
    /// its own denominator, the pods in scope.)
    pub alloc_batches: usize,
    /// Raw events absorbed into an allocation batch *beyond* the first:
    /// a batch of N same-instant events contributes N-1. Zero means every
    /// batch was a single event (no simultaneous cohorts in the run).
    pub batched_events: usize,
    /// Fill-cache patch hits reported through
    /// [`RatePolicy::delta_fill_stats`]. Always zero: no policy in the
    /// workspace keeps a fill cache. Kept because readers of
    /// `DriveStats` (the benchmark) still report it.
    pub delta_fill_hits: u64,
    /// Fill-cache refill fallbacks, reported and kept likewise; always
    /// zero.
    pub delta_fill_fallbacks: u64,
    /// Wall-clock phase breakdown (all zero unless
    /// [`DriveConfig::profile`] was on).
    pub phase: PhaseTimings,
}

impl DriveStats {
    /// `pods_recomputed / pods_total` (0.0 when the policy never reported
    /// pod work — e.g. a non-pod policy, or a run with no allocations).
    pub fn pod_recompute_fraction(&self) -> f64 {
        if self.pods_total == 0 {
            0.0
        } else {
            self.pods_recomputed as f64 / self.pods_total as f64
        }
    }
}

/// What [`drive`] hands back: the recorded trace and the clock at exit.
#[derive(Debug, Clone)]
pub struct DriveOutcome {
    /// The recorded release/rate/finish trace (empty if
    /// [`DriveConfig::trace`] was off or the source opted out of
    /// tracing).
    pub trace: FlowTrace,
    /// Simulated time when the source reported completion — the time of
    /// the last processed event.
    pub end: SimTime,
    /// Allocation and batching counters for this run.
    pub stats: DriveStats,
}

/// Formats the stuck active flows for the deadlock panic: ids and
/// remaining bytes, truncated so a thousand-flow stall stays readable.
fn stuck_flows(net: &FluidNetwork) -> String {
    const SHOWN: usize = 8;
    let mut parts: Vec<String> = net
        .views()
        .iter()
        .take(SHOWN)
        .map(|v| format!("{} ({:.4}B left)", v.id, v.remaining))
        .collect();
    if net.active_count() > SHOWN {
        parts.push(format!("and {} more", net.active_count() - SHOWN));
    }
    parts.join(", ")
}

/// Drives `source` to completion under `policy` on `topo`, with
/// `config`'s fault plan and engine knobs.
///
/// The loop skeleton, shared by all four workload shapes:
///
/// 1. [`WorkloadSource::release_due`] — everything scheduled now;
/// 2. stop if [`WorkloadSource::finished`];
/// 3. if flows are active, recompute rates, draining the pending
///    [`FlowDelta`] so incremental policies see each arrival/departure
///    exactly once;
/// 4. advance to the earliest of the source's next event and the next
///    flow completion (relative deltas — absolute-time subtraction can
///    round a sub-ulp gap to zero and stall);
/// 5. report completions back to the source.
///
/// Faults are a third event source. At a fault instant the driver applies
/// the due events in plan order (capacity changes mutate the network's
/// topology copy; every fault is forwarded to [`RatePolicy::on_fault`]
/// and [`WorkloadSource::on_fault`]) and recomputes rates, so flows
/// crossing a downed link stall at rate 0 until its restore event.
///
/// # Panics
///
/// Panics if the policy returns an infeasible allocation or rates a flow
/// outside the active set, if the next step would be negative (time must
/// never rewind — checked in release builds too), or if the simulation
/// deadlocks: flows are active but none makes progress and the source
/// has nothing pending. The deadlock message lists the stuck flow ids
/// with remaining bytes, the current time, the policy name, and the
/// source's own pending-work context. A plan that downs a link forever
/// while flows depend on it ends in the deadlock panic.
pub fn drive(
    topo: &Topology,
    source: &mut dyn WorkloadSource,
    policy: &mut dyn RatePolicy,
    config: &RunConfig,
) -> DriveOutcome {
    let (plan, config) = (&config.faults, config.drive);
    let mut net = FluidNetwork::with_next_completion(topo.clone(), config.next_completion);
    net.set_feasibility_checks(config.feasibility_checks);
    if let Some(expected) = source.expected_flows() {
        net.reserve(expected);
    }
    let tracing = config.trace && source.wants_trace();
    let mut trace = FlowTrace::recording(tracing);
    // Driver-owned allocation workspace and dense rate buffer, reused for
    // the whole run: the steady-state loop performs no heap allocation.
    let mut ws = AllocScratch::new();
    let mut rates_buf: Vec<f64> = Vec::new();
    let mut stats = DriveStats::default();
    let mut plan = plan.clone();
    plan.reset();
    let profile = config.profile;
    // Faults applied since the last allocation batch drained — part of
    // the batch's raw-event count.
    let mut fault_backlog: usize = 0;

    loop {
        let t_book = profile.then(std::time::Instant::now);
        let now = net.now();
        // Apply due faults before releases, so a release coinciding with
        // a fault already sees post-fault capacities and the single
        // recompute below covers both.
        let mut faulted = false;
        while let Some(ev) = plan.pop_due(now) {
            match ev.kind {
                FaultKind::LinkDown(r) => net.apply_capacity_factor(r, 0.0),
                FaultKind::LinkRestore(r) => net.apply_capacity_factor(r, 1.0),
                FaultKind::LinkDegrade(r, f) => net.apply_capacity_factor(r, f),
                FaultKind::CoordinatorDown
                | FaultKind::CoordinatorUp
                | FaultKind::WorkerSlowdown { .. } => {}
            }
            policy.on_fault(now, &ev.kind);
            source.on_fault(now, &ev.kind);
            stats.fault_events += 1;
            fault_backlog += 1;
            faulted = true;
        }
        source.release_due(now, &mut net, &mut trace);
        stats.peak_active = stats.peak_active.max(net.active_count());
        if let Some(t) = t_book {
            stats.phase.bookkeeping_ns += t.elapsed().as_nanos() as u64;
        }
        if source.finished() {
            break;
        }

        if net.active_count() > 0 {
            let delta = net.take_delta();
            // One coalesced batch: every raw event since the last applied
            // allocation — same-instant completions drained by one
            // advance, releases coinciding with them, and any due faults —
            // funnels into this single decision. A batch triggered by a
            // source-internal event carries an empty delta and still
            // counts as one event.
            let raw_events = delta.arrived.len() + delta.departed.len() + fault_backlog;
            fault_backlog = 0;
            stats.alloc_batches += 1;
            stats.batched_events += raw_events.saturating_sub(1);
            let t_alloc = profile.then(std::time::Instant::now);
            let apply = source.allocate(
                policy,
                now,
                net.views(),
                &delta,
                net.topology(),
                &mut ws,
                &mut rates_buf,
            );
            if let Some(t) = t_alloc {
                stats.phase.allocate_ns += t.elapsed().as_nanos() as u64;
            }
            let t_write = profile.then(std::time::Instant::now);
            match apply {
                RateApply::Dense => net.set_rates_dense(&rates_buf),
                RateApply::Sparse => {
                    let changed = policy
                        .changed_indices()
                        .expect("sparse apply without a changed-index report");
                    net.set_rates_sparse(&rates_buf, changed);
                }
            }
            stats.allocations += 1;
            if faulted {
                stats.fault_recomputes += 1;
            }
            if tracing {
                for (v, rate) in net.flows_with_rates() {
                    trace.record_rate(now, v, rate);
                }
            }
            if let Some(t) = t_write {
                stats.phase.write_back_ns += t.elapsed().as_nanos() as u64;
            }
        }

        let t_queue = profile.then(std::time::Instant::now);
        let dt_source = source.next_event_in(now);
        let dt_flow = net.next_completion_in();
        let dt_fault = plan.next_in(now);
        let dt = [dt_source, dt_flow, dt_fault]
            .into_iter()
            .flatten()
            .min_by(f64::total_cmp);
        if let Some(t) = t_queue {
            stats.phase.queue_ns += t.elapsed().as_nanos() as u64;
        }
        let dt = match dt {
            Some(dt) => dt,
            None => {
                let context = source.deadlock_context();
                let sep = if context.is_empty() { "" } else { "; " };
                panic!(
                    "deadlock at t={:.6}: {} flows active with zero rate and nothing pending \
                     (policy {}); stuck flows: [{}]{sep}{context}",
                    now.secs(),
                    net.active_count(),
                    policy.name(),
                    stuck_flows(&net),
                );
            }
        };
        // A negative step would silently rewind time: check in release
        // builds too, with both candidate deltas in the message.
        assert!(
            dt >= -EPS,
            "negative time step {dt} at t={:.6} (source event in {dt_source:?}, \
             flow completion in {dt_flow:?}, fault in {dt_fault:?})",
            now.secs(),
        );

        let t_adv = profile.then(std::time::Instant::now);
        let done = net.advance(dt);
        let now = net.now();
        // Zero-progress guard: an iteration must move time, finish a
        // flow, or be an internal source event due within epsilon.
        debug_assert!(
            dt > 0.0
                || !done.is_empty()
                || dt_source.is_some_and(|d| d <= 0.0)
                || dt_fault.is_some_and(|d| d <= 0.0),
            "event loop made no progress at {now:?}"
        );
        if tracing {
            for c in &done {
                trace.record(now, c.id, TraceEventKind::Finished);
            }
        }
        source.on_flow_completions(now, &done, &mut net, &mut trace);
        if let Some(t) = t_adv {
            stats.phase.bookkeeping_ns += t.elapsed().as_nanos() as u64;
        }
    }

    stats.stall_flow_seconds = net.stall_flow_seconds();
    stats.arena_capacity = net.arena_capacity();
    if let Some((recomputed, total)) = policy.pod_stats() {
        stats.pods_recomputed = recomputed;
        stats.pods_total = total;
    }
    if let Some((hits, fallbacks)) = policy.delta_fill_stats() {
        stats.delta_fill_hits = hits;
        stats.delta_fill_fallbacks = fallbacks;
    }
    if let Some((_, peak)) = policy.book_stats() {
        stats.peak_book_occupancy = peak;
    }
    DriveOutcome {
        end: net.now(),
        trace,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowDemand;
    use crate::ids::{FlowId, NodeId};
    use crate::runner::MaxMinPolicy;

    /// A minimal source: one flow released at t = 1, nothing else.
    struct OneShot {
        released: bool,
        done: bool,
    }

    impl WorkloadSource for OneShot {
        fn release_due(&mut self, now: SimTime, net: &mut FluidNetwork, trace: &mut FlowTrace) {
            if !self.released && SimTime::new(1.0).at_or_before(now) {
                let d = FlowDemand::new(FlowId(0), NodeId(0), NodeId(1), 2.0, SimTime::new(1.0));
                trace.record(now, d.id, TraceEventKind::Released);
                net.release(&d);
                self.released = true;
            }
        }

        fn finished(&self) -> bool {
            self.done
        }

        fn next_event_in(&self, now: SimTime) -> Option<f64> {
            (!self.released).then(|| (SimTime::new(1.0) - now).max(0.0))
        }

        fn on_flow_completions(
            &mut self,
            _now: SimTime,
            done: &[FlowCompletion],
            _net: &mut FluidNetwork,
            _trace: &mut FlowTrace,
        ) {
            if !done.is_empty() {
                self.done = true;
            }
        }
    }

    #[test]
    fn drives_a_minimal_source_to_completion() {
        let topo = Topology::big_switch_uniform(2, 1.0);
        let mut source = OneShot {
            released: false,
            done: false,
        };
        let out = drive(&topo, &mut source, &mut MaxMinPolicy, &RunConfig::default());
        // Released at 1, 2 bytes at unit rate: ends at 3.
        assert!(out.end.approx_eq(SimTime::new(3.0)));
        assert_eq!(out.trace.events().len(), 3); // release, rate, finish
    }

    /// A source whose flow can never progress: the deadlock panic must
    /// name the stuck flow and its remaining bytes.
    struct Starved {
        released: bool,
    }

    impl WorkloadSource for Starved {
        fn release_due(&mut self, now: SimTime, net: &mut FluidNetwork, _trace: &mut FlowTrace) {
            if !self.released {
                net.release(&FlowDemand::new(FlowId(7), NodeId(0), NodeId(1), 3.0, now));
                self.released = true;
            }
        }

        fn finished(&self) -> bool {
            false
        }

        fn next_event_in(&self, _now: SimTime) -> Option<f64> {
            None
        }

        fn on_flow_completions(
            &mut self,
            _now: SimTime,
            _done: &[FlowCompletion],
            _net: &mut FluidNetwork,
            _trace: &mut FlowTrace,
        ) {
        }

        fn deadlock_context(&self) -> String {
            "workload-specific context".to_string()
        }
    }

    /// Allocates nothing, starving every flow.
    struct ZeroPolicy;

    impl RatePolicy for ZeroPolicy {
        fn allocate_dense(
            &mut self,
            _now: SimTime,
            flows: &[ActiveFlowView],
            _topo: &Topology,
            _ws: &mut AllocScratch,
            out: &mut Vec<f64>,
        ) {
            out.clear();
            out.resize(flows.len(), 0.0);
        }
    }

    #[test]
    fn recompute_fractions_are_zero_when_nothing_ran() {
        // 0/0 must report 0.0, not NaN: an empty run (or a non-pod
        // policy) has no pod work.
        let stats = DriveStats::default();
        assert_eq!(stats.pods_total, 0);
        assert_eq!(stats.pod_recompute_fraction(), 0.0);
    }

    #[test]
    fn stats_track_peak_active_and_arena_capacity() {
        let topo = Topology::big_switch_uniform(2, 1.0);
        let mut source = OneShot {
            released: false,
            done: false,
        };
        let out = drive(&topo, &mut source, &mut MaxMinPolicy, &RunConfig::default());
        assert_eq!(out.stats.peak_active, 1);
        assert_eq!(out.stats.arena_capacity, 1);
        // MaxMin is not pod-decomposed: no pod work reported.
        assert_eq!(out.stats.pods_total, 0);
        assert_eq!(out.stats.pod_recompute_fraction(), 0.0);
    }

    #[test]
    fn scan_and_calendar_configs_drive_identically() {
        let topo = Topology::big_switch_uniform(2, 1.0);
        let mut ends = Vec::new();
        for mode in [NextCompletionMode::Scan, NextCompletionMode::Calendar] {
            let mut source = OneShot {
                released: false,
                done: false,
            };
            let mut cfg = RunConfig::default();
            cfg.drive.next_completion = mode;
            let out = drive(&topo, &mut source, &mut MaxMinPolicy, &cfg);
            ends.push(out.end.secs().to_bits());
        }
        assert_eq!(ends[0], ends[1]);
    }

    #[test]
    fn deadlock_panic_names_stuck_flows() {
        let topo = Topology::big_switch_uniform(2, 1.0);
        let mut source = Starved { released: false };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive(&topo, &mut source, &mut ZeroPolicy, &RunConfig::default())
        }))
        .expect_err("starved flow must deadlock");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("deadlock at t=0.000000"), "{msg}");
        assert!(msg.contains("f7 (3.0000B left)"), "{msg}");
        assert!(msg.contains("workload-specific context"), "{msg}");
    }
}
