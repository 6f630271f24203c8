//! Schedule enforcement through discrete priority queues (paper §5).
//!
//! "We follow the common practice to enforce the schedules through flow
//! priorities. The agent stores flow data into priority queues based on
//! their allocated bandwidth, and calls message-passing backends through
//! weighted sharing of network bandwidth among the queues."
//!
//! Real switches expose a small number of queues (typically 8), so the
//! coordinator's continuous rate allocation must be *quantized*:
//! [`quantize_to_queues`] ranks flows by allocated rate and buckets them,
//! and [`QueueEnforcedPolicy`] replays any inner policy through that
//! quantization — flows in the same queue share bandwidth by the queue's
//! weight instead of their exact rates. The fidelity loss of 2-, 4- and
//! 8-queue enforcement versus exact rates is one of the bundled
//! ablations.

use echelon_simnet::alloc::{alloc_via_dense, waterfill_dense, AllocScratch, RateAlloc};
use echelon_simnet::fault::FaultKind;
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::fluid::FlowDelta;
use echelon_simnet::ids::FlowId;
use echelon_simnet::runner::RatePolicy;
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;

/// Priority-queue enforcement configuration.
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// Number of queues (1..=16). Queue 0 is the highest priority.
    pub queues: u8,
    /// Weight ratio between adjacent queues (queue q has weight
    /// `ratio^(queues-1-q)`); 2.0 mimics common weighted-fair switch
    /// configs.
    pub ratio: f64,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig {
            queues: 8,
            ratio: 2.0,
        }
    }
}

impl QueueConfig {
    /// The weight of queue `q` (0 = highest priority = largest weight).
    pub fn weight(&self, q: u8) -> f64 {
        self.ratio.powi((self.queues - 1 - q) as i32)
    }
}

/// Buckets flows into priority queues by their allocated rate: the
/// highest-rate flows land in queue 0. Flows with zero allocated rate go
/// to the lowest queue.
///
/// `rates[i]` is the rate of the `i`-th flow of an id-sorted active slice
/// (the dense rate currency); equal rates rank by position, i.e. by flow
/// id. Writes flow `i`'s queue into `queues[i]`; `ranked` is scratch for
/// the rate ranking (its contents on entry are ignored).
pub fn quantize_to_queues(
    rates: &[f64],
    config: &QueueConfig,
    ranked: &mut Vec<usize>,
    queues: &mut Vec<u8>,
) {
    assert!(
        (1..=16).contains(&config.queues),
        "queue count {} out of range",
        config.queues
    );
    let len = rates.len();
    ranked.clear();
    ranked.extend(0..len);
    ranked.sort_by(|&a, &b| rates[b].total_cmp(&rates[a]).then(a.cmp(&b)));
    queues.clear();
    queues.resize(len, 0);
    // Spread ranks evenly across all queues: flow at rank `i` of `len`
    // lands in queue `i * queues / len`. Unlike the ceiling-sized buckets
    // this replaced (`per_queue = len.div_ceil(queues)`), every queue in
    // `0..min(len, queues)` receives at least one flow — with e.g. 9 flows
    // and 8 queues the old scheme put 2 flows in each of queues 0..=3 and
    // left queues 5..=7 empty, collapsing the intended weight spread.
    for (i, &p) in ranked.iter().enumerate() {
        queues[p] = if rates[p] <= 0.0 {
            config.queues - 1
        } else {
            (i * config.queues as usize / len) as u8
        };
    }
}

/// Replays an inner policy's allocation through priority-queue
/// quantization: the inner policy's exact rates pick each flow's queue,
/// and the actual bandwidth division is weighted max-min by queue weight.
/// The queues are re-derived from the inner policy's fresh answer at
/// every event: the inner policy is told to release any answer it holds
/// ([`RatePolicy::release_held`]) before each allocation.
pub struct QueueEnforcedPolicy<P> {
    inner: P,
    config: QueueConfig,
    /// Latest queue assignment as `(flow, queue)`, in ascending flow id
    /// (inspectable by agents/experiments).
    last_assignment: Vec<(FlowId, u8)>,
    /// Reused per-flow buffers: the inner policy's exact rates, their
    /// rate ranking, their queues, and the queues' weights.
    exact: Vec<f64>,
    ranked: Vec<usize>,
    queues: Vec<u8>,
    weights: Vec<f64>,
}

impl<P: RatePolicy> QueueEnforcedPolicy<P> {
    /// Wraps `inner` with `config` queues.
    pub fn new(inner: P, config: QueueConfig) -> QueueEnforcedPolicy<P> {
        QueueEnforcedPolicy {
            inner,
            config,
            last_assignment: Vec::new(),
            exact: Vec::new(),
            ranked: Vec::new(),
            queues: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// The most recent queue assignment, `(flow, queue)` in ascending
    /// flow id.
    pub fn last_assignment(&self) -> &[(FlowId, u8)] {
        &self.last_assignment
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Quantizes the inner policy's exact rates into queues and
    /// re-divides bandwidth by queue weight into `out` (shared by both
    /// dense entry points).
    fn enforce(
        &mut self,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        quantize_to_queues(
            &self.exact,
            &self.config,
            &mut self.ranked,
            &mut self.queues,
        );
        self.weights.clear();
        self.weights
            .extend(self.queues.iter().map(|&q| self.config.weight(q)));
        self.last_assignment.clear();
        self.last_assignment
            .extend(flows.iter().map(|v| v.id).zip(self.queues.iter().copied()));
        out.clear();
        out.resize(flows.len(), 0.0);
        waterfill_dense(topo, flows, Some(&self.weights), None, out, ws);
    }
}

impl<P: RatePolicy> RatePolicy for QueueEnforcedPolicy<P> {
    fn allocate(&mut self, now: SimTime, flows: &[ActiveFlowView], topo: &Topology) -> RateAlloc {
        alloc_via_dense(flows, |ws, out| {
            self.allocate_dense(now, flows, topo, ws, out)
        })
    }

    fn allocate_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
    ) -> RateAlloc {
        alloc_via_dense(flows, |ws, out| {
            self.allocate_dense_incremental(now, flows, delta, topo, ws, out)
        })
    }

    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.inner.release_held();
        self.inner
            .allocate_dense(now, flows, topo, ws, &mut self.exact);
        self.enforce(flows, topo, ws, out);
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
        self.inner.release_held();
        self.inner
            .allocate_dense_incremental(now, flows, delta, topo, ws, &mut self.exact);
        self.enforce(flows, topo, ws, out);
    }

    fn on_fault(&mut self, now: SimTime, fault: &FaultKind) {
        // The wrapper holds no capacity-derived state itself (the queue
        // assignment is recomputed from scratch every allocation), but the
        // wrapped policy may — forward so its caches get invalidated too.
        self.inner.on_fault(now, fault);
    }

    fn name(&self) -> &'static str {
        "queue-enforced"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echelon_sched::baselines::SrptPolicy;
    use echelon_simnet::flow::FlowDemand;
    use echelon_simnet::ids::NodeId;
    use echelon_simnet::runner::{run_flows, MaxMinPolicy};

    fn demand(id: u64, size: f64) -> FlowDemand {
        FlowDemand::new(FlowId(id), NodeId(0), NodeId(1), size, SimTime::ZERO)
    }

    #[test]
    fn quantization_ranks_by_rate() {
        let cfg = QueueConfig {
            queues: 2,
            ratio: 4.0,
        };
        let mut q = Vec::new();
        quantize_to_queues(&[0.5, 0.3, 0.2, 0.0], &cfg, &mut Vec::new(), &mut q);
        // The zero-rate flow goes to the lowest queue.
        assert_eq!(q, [0, 0, 1, 1]);
    }

    /// Equal rates rank by position in the id-sorted slice, i.e. by id.
    #[test]
    fn quantization_breaks_rate_ties_by_id() {
        let cfg = QueueConfig {
            queues: 4,
            ratio: 2.0,
        };
        let mut q = Vec::new();
        quantize_to_queues(&[0.3, 0.5, 0.3, 0.3], &cfg, &mut Vec::new(), &mut q);
        assert_eq!(q, [1, 0, 2, 3]);
    }

    #[test]
    fn every_queue_is_populated_for_positive_rates() {
        // Property: for n positive-rate flows and q queues, every queue in
        // 0..min(n, q) receives at least one flow. The pre-fix ceiling
        // bucketing violated this whenever q did not divide n (e.g. 9
        // flows / 8 queues left queues 5..=7 empty).
        // One rank buffer across every call: stale contents from a longer
        // previous slice must not leak into a shorter one.
        let mut ranked = Vec::new();
        let mut assignment = Vec::new();
        for queues in 1u8..=16 {
            for n in 1usize..=24 {
                // Distinct positive rates, descending in id.
                let rates: Vec<f64> = (0..n).map(|i| (n - i) as f64).collect();
                let cfg = QueueConfig { queues, ratio: 2.0 };
                quantize_to_queues(&rates, &cfg, &mut ranked, &mut assignment);
                let mut hit = vec![false; queues as usize];
                for &q in &assignment {
                    hit[q as usize] = true;
                }
                let expect = n.min(queues as usize);
                let occupied = hit.iter().filter(|&&h| h).count();
                assert_eq!(
                    occupied, expect,
                    "{n} flows over {queues} queues occupied {occupied} (want {expect})"
                );
                // Ranking is monotone: a higher-rate flow never lands in a
                // strictly lower-priority queue.
                assert!(assignment.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn queue_weights_are_geometric() {
        let cfg = QueueConfig {
            queues: 3,
            ratio: 2.0,
        };
        assert_eq!(cfg.weight(0), 4.0);
        assert_eq!(cfg.weight(1), 2.0);
        assert_eq!(cfg.weight(2), 1.0);
    }

    /// Enforcement through many queues approximates SRPT's order:
    /// the short flow still finishes first, though not as fast as exact.
    #[test]
    fn enforced_srpt_preserves_ordering() {
        let topo = Topology::chain(2, 1.0);
        let demands = vec![demand(0, 4.0), demand(1, 1.0)];
        let exact = run_flows(&topo, demands.clone(), &mut SrptPolicy);
        let mut enforced = QueueEnforcedPolicy::new(SrptPolicy, QueueConfig::default());
        let quantized = run_flows(&topo, demands, &mut enforced);
        // Ordering preserved.
        assert!(quantized.finish(FlowId(1)).unwrap() < quantized.finish(FlowId(0)).unwrap());
        // Makespan identical (work conservation).
        assert!(quantized.makespan().approx_eq(exact.makespan()));
        // But the short flow is somewhat slower than exact SRPT.
        assert!(
            quantized.finish(FlowId(1)).unwrap().secs()
                >= exact.finish(FlowId(1)).unwrap().secs() - 1e-9
        );
    }

    #[test]
    fn single_queue_degenerates_to_fair_sharing() {
        let topo = Topology::chain(2, 1.0);
        let demands = vec![demand(0, 2.0), demand(1, 2.0)];
        let fair = run_flows(&topo, demands.clone(), &mut MaxMinPolicy);
        let mut one_queue = QueueEnforcedPolicy::new(
            SrptPolicy,
            QueueConfig {
                queues: 1,
                ratio: 2.0,
            },
        );
        let out = run_flows(&topo, demands, &mut one_queue);
        for id in [FlowId(0), FlowId(1)] {
            assert!(out.finish(id).unwrap().approx_eq(fair.finish(id).unwrap()));
        }
    }

    #[test]
    fn assignment_is_inspectable() {
        let topo = Topology::chain(2, 1.0);
        let demands = vec![demand(0, 4.0), demand(1, 1.0)];
        let mut enforced = QueueEnforcedPolicy::new(SrptPolicy, QueueConfig::default());
        let _ = run_flows(&topo, demands, &mut enforced);
        assert!(!enforced.last_assignment().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_queues_rejected() {
        let cfg = QueueConfig {
            queues: 0,
            ratio: 2.0,
        };
        quantize_to_queues(&[1.0], &cfg, &mut Vec::new(), &mut Vec::new());
    }
}
