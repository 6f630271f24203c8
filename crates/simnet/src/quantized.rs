//! Chunk-quantized transmission: a validation mode for the fluid model.
//!
//! The fluid model lets a flow's rate change continuously; real transports
//! move discrete segments. [`run_flows_quantized`] re-runs a demand set
//! with every flow split into fixed-size chunks released back-to-back
//! (at least one per flow), under a chosen [`ChunkVisibility`]:
//! the policy is consulted at every chunk completion, so rate decisions
//! apply at chunk granularity — a coarse stand-in for
//! packetized/windowed behaviour.
//!
//! The run is a [`WorkloadSource`] plugged into the shared
//! [`crate::driver`]: the source chains chunk releases off completions and
//! overrides [`WorkloadSource::allocate`] to present chunks to the policy
//! under their *parents'* identities. Under [`ChunkVisibility::FlowState`]
//! the source reports arrivals/departures at parent granularity (a parent
//! "arrives" with its first chunk and "departs" with its last; chunk
//! rollovers are invisible to the policy's cached group state), so
//! stateful schedulers run their delta paths unchanged. Chunk-local views
//! change size and release at every rollover, so no parent delta can
//! patch them: that visibility calls the policy's from-scratch
//! [`RatePolicy::allocate_dense`] at every allocation.
//!
//! The bundled validation experiment shows fluid and quantized finish
//! times converge as the chunk size shrinks, which is the standard
//! justification for evaluating coflow-style schedulers on fluid
//! simulators.

use crate::alloc::AllocScratch;
use crate::driver::{drive, DriveStats, RateApply, WorkloadSource};
use crate::flow::{ActiveFlowView, FlowCompletion, FlowDemand};
use crate::fluid::{FlowDelta, FluidNetwork};
use crate::ids::FlowId;
use crate::runner::{RatePolicy, RunConfig};
use crate::time::SimTime;
use crate::topology::Topology;
use crate::trace::FlowTrace;
use std::collections::BTreeMap;

/// What the inner policy sees about a chunked flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkVisibility {
    /// The policy sees the parent flow's total backlog, original size and
    /// release time (a scheduler with flow-level state, the normal case).
    /// With this visibility the fluid model is *exact* for any chunk
    /// size: rates recompute at every event, so chunking changes nothing
    /// observable.
    FlowState,
    /// The policy sees only the in-flight chunk (a per-packet scheduler
    /// without flow state). Size-based disciplines like SRPT degrade
    /// toward fair sharing as chunks shrink — quantifying how much of
    /// their benefit comes from flow-level visibility.
    ChunkLocal,
}

/// Result of a quantized run: per original flow, its last chunk's finish.
#[derive(Debug, Clone)]
pub struct QuantizedOutcome {
    /// Finish time per original flow.
    pub finishes: BTreeMap<FlowId, SimTime>,
    /// Driver counters of the chunked run.
    pub stats: DriveStats,
}

/// The chunk-quantized [`WorkloadSource`]: chunks of one flow are strictly
/// sequential (chunk `i+1` enters the network the instant chunk `i`
/// completes), and the policy sees parents, not chunks.
struct ChunkSource<'a> {
    demands: &'a [FlowDemand],
    by_id: BTreeMap<FlowId, &'a FlowDemand>,
    /// Per parent: the queue of chunk sizes still to send (back = next).
    queues: BTreeMap<FlowId, Vec<f64>>,
    next_id: u64,
    /// Chunk id → parent id, for every chunk ever released.
    chunk_to_parent: BTreeMap<FlowId, FlowId>,
    /// Currently in-flight chunk → parent (at most one chunk per parent).
    active_parents: BTreeMap<FlowId, FlowId>,
    /// Initial releases, ascending (release, id); `cursor` = next.
    pending: Vec<&'a FlowDemand>,
    cursor: usize,
    finishes: BTreeMap<FlowId, SimTime>,
    total_parents: usize,
    visibility: ChunkVisibility,
    /// Parent-granularity delta buffers for the delta path. A
    /// parent arrives when its first chunk is released and departs when
    /// its last chunk completes; rollovers appear in neither list — the
    /// parent stays active, and rates recompute every event regardless.
    parent_arrived: Vec<FlowId>,
    parent_departed: Vec<FlowId>,
}

impl ChunkSource<'_> {
    /// Releases the next chunk of `parent` (if any) at `now`; returns
    /// whether a chunk was released.
    fn release_next(&mut self, parent: FlowId, now: SimTime, net: &mut FluidNetwork) -> bool {
        let Some(size) = self.queues.get_mut(&parent).and_then(|q| q.pop()) else {
            return false;
        };
        let d = self.by_id[&parent];
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.chunk_to_parent.insert(id, parent);
        self.active_parents.insert(id, parent);
        net.release(&FlowDemand::new(id, d.src, d.dst, size, now));
        true
    }
}

impl WorkloadSource for ChunkSource<'_> {
    fn release_due(&mut self, now: SimTime, net: &mut FluidNetwork, _trace: &mut FlowTrace) {
        while self.cursor < self.pending.len() {
            if !self.pending[self.cursor].release.at_or_before(now) {
                break;
            }
            let parent = self.pending[self.cursor].id;
            self.cursor += 1;
            if self.release_next(parent, now, net) {
                self.parent_arrived.push(parent);
            }
        }
    }

    fn finished(&self) -> bool {
        self.finishes.len() == self.total_parents
    }

    fn next_event_in(&self, now: SimTime) -> Option<f64> {
        self.pending
            .get(self.cursor)
            .map(|d| (d.release - now).max(0.0))
    }

    fn on_flow_completions(
        &mut self,
        now: SimTime,
        done: &[FlowCompletion],
        net: &mut FluidNetwork,
        _trace: &mut FlowTrace,
    ) {
        for c in done {
            // Unreachable from the public API: `ChunkSource` is private,
            // the driver's network holds only the chunks it released, each
            // recorded here on release, and a chunk completes once.
            let parent = self.active_parents.remove(&c.id).expect("known chunk");
            if !self.release_next(parent, now, net) {
                self.finishes.insert(parent, now);
                self.parent_departed.push(parent);
            }
        }
    }

    /// Chunk ids are internal artifacts; callers only get parent finishes.
    fn wants_trace(&self) -> bool {
        false
    }

    fn allocate(
        &mut self,
        policy: &mut dyn RatePolicy,
        now: SimTime,
        flows: &[ActiveFlowView],
        _delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) -> RateApply {
        // Present each chunk under its parent's identity. At most one
        // chunk per parent is active at a time (chunks chain release
        // times), so ids never collide. Chunk workloads recompute at
        // every event and rebuild the disguised view set each time, so
        // they are exempt from the zero-allocation steady-state claim.
        let (backlog, parent_size): (BTreeMap<FlowId, f64>, BTreeMap<FlowId, f64>) =
            match self.visibility {
                ChunkVisibility::FlowState => (
                    self.queues
                        .iter()
                        .map(|(parent, q)| (*parent, q.iter().sum()))
                        .collect(),
                    self.demands.iter().map(|d| (d.id, d.size)).collect(),
                ),
                ChunkVisibility::ChunkLocal => (BTreeMap::new(), BTreeMap::new()),
            };
        // Pair each disguised view with its index in `flows` so rates can
        // be written back after the parent-id sort reorders them.
        let mut pairs: Vec<(ActiveFlowView, usize)> = Vec::with_capacity(flows.len());
        for (i, v) in flows.iter().enumerate() {
            let parent = self.chunk_to_parent.get(&v.id).copied().unwrap_or(v.id);
            let mut pv = v.clone();
            pv.id = parent;
            pv.remaining += backlog.get(&parent).copied().unwrap_or(0.0);
            if let Some(&size) = parent_size.get(&parent) {
                pv.size = size;
            }
            if self.visibility == ChunkVisibility::FlowState {
                // Flow-state visibility includes the parent's release
                // time: deadline- and arrival-sensitive schedulers see a
                // stable flow, not a chunk born at the last rollover.
                pv.release = self.by_id[&parent].release;
            }
            pairs.push((pv, i));
        }
        pairs.sort_by_key(|(v, _)| v.id);
        let disguised: Vec<ActiveFlowView> = pairs.iter().map(|(v, _)| v.clone()).collect();

        let mut dense: Vec<f64> = Vec::with_capacity(disguised.len());
        let pdelta = FlowDelta {
            arrived: std::mem::take(&mut self.parent_arrived),
            departed: std::mem::take(&mut self.parent_departed),
        };
        match self.visibility {
            ChunkVisibility::FlowState => {
                policy.allocate_dense_incremental(now, &disguised, &pdelta, topo, ws, &mut dense);
            }
            ChunkVisibility::ChunkLocal => {
                policy.allocate_dense(now, &disguised, topo, ws, &mut dense);
            }
        }
        out.clear();
        out.resize(flows.len(), 0.0);
        for (j, (_, i)) in pairs.iter().enumerate() {
            out[*i] = dense[j];
        }
        // The parent→chunk translation reorders indices, so any sparse
        // change report from the policy does not describe `out`.
        RateApply::Dense
    }

    fn deadlock_context(&self) -> String {
        let queued: usize = self.queues.values().map(Vec::len).sum();
        format!(
            "{} of {} parent flows finished, {} chunks still queued",
            self.finishes.len(),
            self.total_parents,
            queued
        )
    }
}

/// Runs `demands` with each flow quantized into `chunk` byte pieces,
/// under the given policy `visibility`. Under
/// [`ChunkVisibility::ChunkLocal`] every allocation is the policy's
/// from-scratch one (chunk views are too short-lived for cached group
/// state to track).
///
/// Chunks of one flow are strictly sequential: chunk `i+1` enters the
/// network the instant chunk `i` completes (completion-triggered
/// releases, like a windowed transport draining a send queue). Every
/// flow sends at least one chunk, however small.
///
/// # Panics
///
/// Panics on a non-positive chunk size.
pub fn run_flows_quantized(
    topology: &Topology,
    demands: Vec<FlowDemand>,
    policy: &mut dyn RatePolicy,
    chunk: f64,
    visibility: ChunkVisibility,
) -> QuantizedOutcome {
    assert!(chunk > 0.0 && chunk.is_finite(), "bad chunk size {chunk}");

    // Per flow: the queue of chunk sizes still to send.
    let mut queues: BTreeMap<FlowId, Vec<f64>> = BTreeMap::new();
    for d in &demands {
        // At least one chunk, so a demand of at most 1e-12 bytes is
        // still sent.
        let mut sizes = Vec::new();
        let mut remaining = d.size;
        loop {
            let size = remaining.min(chunk);
            sizes.push(size);
            remaining -= size;
            if remaining <= 1e-12 {
                break;
            }
        }
        sizes.reverse(); // pop() yields the next chunk
        queues.insert(d.id, sizes);
    }
    let next_id = demands.iter().map(|d| d.id.0).max().unwrap_or(0) + 1;
    let by_id: BTreeMap<FlowId, &FlowDemand> = demands.iter().map(|d| (d.id, d)).collect();
    let mut pending: Vec<&FlowDemand> = demands.iter().collect();
    pending.sort_by(|a, b| a.release.cmp(&b.release).then(a.id.cmp(&b.id)));

    let mut source = ChunkSource {
        demands: &demands,
        by_id,
        queues,
        next_id,
        chunk_to_parent: BTreeMap::new(),
        active_parents: BTreeMap::new(),
        pending,
        cursor: 0,
        finishes: BTreeMap::new(),
        total_parents: demands.len(),
        visibility,
        parent_arrived: Vec::new(),
        parent_departed: Vec::new(),
    };
    let stats = drive(topology, &mut source, policy, &RunConfig::default()).stats;
    QuantizedOutcome {
        finishes: source.finishes,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::runner::{run_flows, FullRecompute, MaxMinPolicy};
    use ChunkVisibility::{ChunkLocal, FlowState};

    fn demand(id: u64, size: f64, release: f64) -> FlowDemand {
        FlowDemand::new(
            FlowId(id),
            NodeId(0),
            NodeId(1),
            size,
            SimTime::new(release),
        )
    }

    #[test]
    fn single_flow_matches_fluid_exactly() {
        let topo = Topology::chain(2, 1.0);
        let config = RunConfig::default();
        let fluid = run_flows(&topo, vec![demand(0, 2.0, 0.0)], &mut MaxMinPolicy, &config);
        let quant = run_flows_quantized(
            &topo,
            vec![demand(0, 2.0, 0.0)],
            &mut MaxMinPolicy,
            0.5,
            FlowState,
        );
        assert!(quant.finishes[&FlowId(0)].approx_eq(fluid.finish(FlowId(0)).unwrap()));
    }

    #[test]
    fn chunking_converges_to_fluid() {
        // The fair-sharing Fig. 2 instance: finishes 4.5, 6.5, 7.0.
        let topo = Topology::chain(2, 1.0);
        let config = RunConfig::default();
        let demands = vec![
            demand(0, 2.0, 1.0),
            demand(1, 2.0, 2.0),
            demand(2, 2.0, 3.0),
        ];
        let fluid = run_flows(&topo, demands.clone(), &mut MaxMinPolicy, &config);
        let mut prev_err = f64::INFINITY;
        for chunk in [1.0, 0.25, 0.05] {
            let quant =
                run_flows_quantized(&topo, demands.clone(), &mut MaxMinPolicy, chunk, FlowState);
            let err: f64 = demands
                .iter()
                .map(|d| (quant.finishes[&d.id] - fluid.finish(d.id).unwrap()).abs())
                .fold(0.0, f64::max);
            assert!(
                err <= prev_err + 1e-9,
                "error grew from {prev_err} to {err} at chunk {chunk}"
            );
            prev_err = err;
        }
        assert!(prev_err < 0.15, "residual error {prev_err} too large");
    }

    #[test]
    fn chunk_larger_than_flow_degenerates() {
        let topo = Topology::chain(2, 1.0);
        let config = RunConfig::default();
        let fluid = run_flows(&topo, vec![demand(0, 2.0, 0.0)], &mut MaxMinPolicy, &config);
        let quant = run_flows_quantized(
            &topo,
            vec![demand(0, 2.0, 0.0)],
            &mut MaxMinPolicy,
            100.0,
            FlowState,
        );
        assert!(quant.finishes[&FlowId(0)].approx_eq(fluid.finish(FlowId(0)).unwrap()));
    }

    #[test]
    fn chunk_local_srpt_differs_from_fluid() {
        use crate::topology::Topology;
        // A crude SRPT stand-in over the visible remaining bytes.
        struct Srpt;
        impl RatePolicy for Srpt {
            fn allocate_dense(
                &mut self,
                _now: SimTime,
                flows: &[ActiveFlowView],
                topo: &Topology,
                ws: &mut AllocScratch,
                out: &mut Vec<f64>,
            ) {
                let mut order: Vec<&ActiveFlowView> = flows.iter().collect();
                order.sort_by(|a, b| a.remaining.total_cmp(&b.remaining).then(a.id.cmp(&b.id)));
                let ids: Vec<FlowId> = order.into_iter().map(|f| f.id).collect();
                out.clear();
                out.resize(flows.len(), 0.0);
                crate::alloc::priority_fill_dense(topo, flows, &ids, out, ws);
            }
        }
        let topo = Topology::chain(2, 1.0);
        let demands = vec![demand(0, 2.0, 0.0), demand(1, 1.2, 0.2)];
        let fluid = run_flows(&topo, demands.clone(), &mut Srpt, &RunConfig::default());
        let aware = run_flows_quantized(&topo, demands.clone(), &mut Srpt, 0.25, FlowState);
        let local = run_flows_quantized(&topo, demands.clone(), &mut Srpt, 0.25, ChunkLocal);
        // Flow-state visibility reproduces fluid exactly.
        assert!(aware.finishes[&FlowId(1)].approx_eq(fluid.finish(FlowId(1)).unwrap()));
        // Chunk-local state loses SRPT's preemption: the short flow
        // finishes later than under fluid SRPT.
        assert!(local.finishes[&FlowId(1)].secs() > fluid.finish(FlowId(1)).unwrap().secs() + 0.05);
    }

    #[test]
    fn incremental_mode_matches_full_for_both_visibilities() {
        let topo = Topology::chain(2, 1.0);
        let demands = || {
            vec![
                demand(0, 2.0, 1.0),
                demand(1, 2.0, 2.0),
                demand(2, 1.0, 3.0),
            ]
        };
        for visibility in [FlowState, ChunkLocal] {
            let mut full = FullRecompute(&mut MaxMinPolicy);
            let full = run_flows_quantized(&topo, demands(), &mut full, 0.25, visibility);
            let inc = run_flows_quantized(&topo, demands(), &mut MaxMinPolicy, 0.25, visibility);
            assert_eq!(full.finishes, inc.finishes, "diverged for {visibility:?}");
        }
    }

    /// A demand of at most 1e-12 bytes still gets its one chunk: without
    /// it the run deadlocks with the parent unfinished.
    #[test]
    fn tiny_demand_finishes_under_both_visibilities() {
        let topo = Topology::chain(2, 1.0);
        let demands = || vec![demand(0, 1e-13, 0.0), demand(1, 1.0, 0.0)];
        let fluid = run_flows(&topo, demands(), &mut MaxMinPolicy, &RunConfig::default());
        for visibility in [FlowState, ChunkLocal] {
            let quant = run_flows_quantized(&topo, demands(), &mut MaxMinPolicy, 0.5, visibility);
            assert_eq!(quant.finishes.len(), 2, "{visibility:?}");
            for id in [FlowId(0), FlowId(1)] {
                assert!(quant.finishes[&id].approx_eq(fluid.finish(id).unwrap()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad chunk size")]
    fn zero_chunk_rejected() {
        let topo = Topology::chain(2, 1.0);
        let _ = run_flows_quantized(
            &topo,
            vec![demand(0, 1.0, 0.0)],
            &mut MaxMinPolicy,
            0.0,
            FlowState,
        );
    }
}
