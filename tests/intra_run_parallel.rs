//! Differential suite for same-instant event batching.
//!
//! The driver coalesces every raw event sharing an instant (same-timestamp
//! releases, simultaneous completions, due faults) into one allocation
//! decision. Draining the same workload one event at a time — an
//! allocation per raw event — must produce bit-identical completions
//! across scheduler families, and the batch counters must account for
//! exactly the raw events the run processed.

use echelon_detrand::DetRng;
use echelonflow::sched::baselines::{FifoPolicy, SrptPolicy};
use echelonflow::simnet::driver::{drive, DriveOutcome, WorkloadSource};
use echelonflow::simnet::fattree::FatTree;
use echelonflow::simnet::fault::{FaultKind, FaultPlan};
use echelonflow::simnet::flow::{FlowCompletion, FlowDemand};
use echelonflow::simnet::fluid::FluidNetwork;
use echelonflow::simnet::ids::{FlowId, NodeId, ResourceId};
use echelonflow::simnet::runner::{
    run_flows, MaxMinPolicy, PodMaxMinPolicy, RatePolicy, RunConfig,
};
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;
use echelonflow::simnet::trace::{FlowTrace, TraceEventKind};

// Only `plain_or_full` is used here; the rest serves the differential
// suites.
#[allow(dead_code)]
mod support;
use support::plain_or_full;

/// A static demand set that can drain same-instant cohorts either the
/// normal way (everything due releases in one call — one coalesced
/// allocation batch) or one flow per driver iteration (`batch: false`:
/// after each single release the source schedules another event 0
/// seconds out, so the driver loops at the same instant and allocates
/// once per raw release — the un-batched reference).
struct CohortSource {
    /// Ascending (release, id).
    pending: Vec<FlowDemand>,
    cursor: usize,
    completed: Vec<FlowCompletion>,
    total: usize,
    batch: bool,
}

impl CohortSource {
    fn new(mut demands: Vec<FlowDemand>, batch: bool) -> CohortSource {
        demands.sort_by(|a, b| a.release.cmp(&b.release).then(a.id.cmp(&b.id)));
        let total = demands.len();
        CohortSource {
            pending: demands,
            cursor: 0,
            completed: Vec::new(),
            total,
            batch,
        }
    }
}

impl WorkloadSource for CohortSource {
    fn release_due(&mut self, now: SimTime, net: &mut FluidNetwork, trace: &mut FlowTrace) {
        while self.cursor < self.pending.len() {
            let d = &self.pending[self.cursor];
            if !d.release.at_or_before(now) {
                break;
            }
            trace.record(now, d.id, TraceEventKind::Released);
            net.release(d);
            self.cursor += 1;
            if !self.batch {
                break;
            }
        }
    }

    fn finished(&self) -> bool {
        self.completed.len() == self.total
    }

    fn next_event_in(&self, now: SimTime) -> Option<f64> {
        self.pending
            .get(self.cursor)
            .map(|d| (d.release - now).max(0.0))
    }

    fn on_flow_completions(
        &mut self,
        _now: SimTime,
        done: &[FlowCompletion],
        _net: &mut FluidNetwork,
        _trace: &mut FlowTrace,
    ) {
        self.completed.extend_from_slice(done);
    }
}

/// Seeded workload with genuine same-instant cohorts: `cohorts` release
/// instants, `width` flows sharing each instant exactly.
fn cohort_demands(seed: u64, hosts: usize, cohorts: usize, width: usize) -> Vec<FlowDemand> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut demands = Vec::new();
    for c in 0..cohorts {
        let release = SimTime::new(c as f64 * 0.7);
        for w in 0..width {
            let src = rng.usize_range_inclusive(0, hosts - 1);
            let mut dst = rng.usize_range_inclusive(0, hosts - 2);
            if dst >= src {
                dst += 1;
            }
            demands.push(FlowDemand {
                id: FlowId((c * width + w) as u64),
                src: NodeId(src as u32),
                dst: NodeId(dst as u32),
                size: rng.f64_range(0.5, 4.0),
                release,
            });
        }
    }
    demands
}

fn run_cohorts(
    topo: &Topology,
    demands: Vec<FlowDemand>,
    policy: &mut dyn RatePolicy,
    batch: bool,
) -> (DriveOutcome, Vec<FlowCompletion>) {
    let mut source = CohortSource::new(demands, batch);
    let outcome = drive(topo, &mut source, policy, &RunConfig::default());
    (outcome, source.completed)
}

/// Batched draining must be invisible in every outcome: completions
/// (order included — both runs complete flows through the identical
/// fluid evolution), final clock, and it must actually have batched.
fn assert_batching_transparent<F>(seed: u64, label: &str, topo: &Topology, hosts: usize, mut mk: F)
where
    F: FnMut() -> Box<dyn RatePolicy>,
{
    let demands = cohort_demands(seed, hosts, 4, 6);
    for full in [true, false] {
        let mut run = |batch| {
            plain_or_full(full, mk().as_mut(), |p| {
                run_cohorts(topo, demands.clone(), p, batch)
            })
        };
        let (batched, batched_done) = run(true);
        let (single, single_done) = run(false);
        assert_eq!(
            batched_done, single_done,
            "completions diverged for {label}, seed {seed}, full {full}"
        );
        assert_eq!(
            batched.end, single.end,
            "end time diverged for {label}, seed {seed}, full {full}"
        );
        // Non-vacuity: the cohorts really coalesced (width-6 release
        // instants absorb at least 5 events each), and the one-at-a-time
        // reference really paid more allocation batches.
        assert!(
            batched.stats.batched_events >= 4 * 5,
            "no same-instant coalescing for {label}, seed {seed}: {} batched events",
            batched.stats.batched_events
        );
        assert!(
            batched.stats.alloc_batches < single.stats.alloc_batches,
            "one-at-a-time draining did not widen the batch count for {label}, seed {seed} \
             ({} vs {})",
            batched.stats.alloc_batches,
            single.stats.alloc_batches
        );
    }
}

#[test]
fn batched_draining_matches_single_event_draining_across_families() {
    let switch = Topology::big_switch_uniform(6, 1.5);
    for seed in 0..4u64 {
        assert_batching_transparent(seed, "MaxMinPolicy", &switch, 6, || Box::new(MaxMinPolicy));
        assert_batching_transparent(seed, "FifoPolicy", &switch, 6, || Box::new(FifoPolicy));
        assert_batching_transparent(seed, "SrptPolicy", &switch, 6, || Box::new(SrptPolicy));
    }
}

#[test]
fn batched_draining_matches_single_event_draining_pod_policy() {
    // Pod-decomposed policy on its home fabric, cross-pod traffic
    // included (the whole-fabric fallback and the pod path both sit
    // under the batching layer).
    let fabric = FatTree::new(4).build_fabric();
    for seed in 0..4u64 {
        assert_batching_transparent(seed, "PodMaxMinPolicy", &fabric, 16, || {
            Box::new(PodMaxMinPolicy::new())
        });
    }
}

/// Exact batch-denominator accounting on a single shared link: one
/// cohort of `m` same-instant releases with pairwise distinct sizes
/// produces one m-event batch plus m−1 single-departure batches (the
/// final completion ends the run before its departure is allocated), so
/// `alloc_batches = m` and `batched_events = m − 1`.
#[test]
fn alloc_batches_exact_accounting_single_cohort() {
    let topo = Topology::chain(2, 1.0);
    let m = 7usize;
    let demands: Vec<FlowDemand> = (0..m)
        .map(|i| FlowDemand {
            id: FlowId(i as u64),
            src: NodeId(0),
            dst: NodeId(1),
            size: 1.0 + 0.37 * i as f64,
            release: SimTime::new(0.0),
        })
        .collect();
    let (out, done) = run_cohorts(&topo, demands, &mut MaxMinPolicy, true);
    assert_eq!(done.len(), m);
    assert_eq!(
        out.stats.alloc_batches, m,
        "one release batch + m-1 departure batches"
    );
    assert_eq!(
        out.stats.batched_events,
        m - 1,
        "the release cohort absorbs m-1 events"
    );
    assert_eq!(
        out.stats.alloc_batches, out.stats.allocations,
        "every batch is exactly one allocation decision"
    );
}

/// Collision-robust accounting identity: `alloc_batches +
/// batched_events` equals every raw event the driver drained into an
/// allocation — all n arrivals, all departures except those of the flows
/// finishing at the very last instant (the run ends before their batch
/// is allocated), and every applied fault. Holds however releases,
/// completions and faults happen to coincide. The driver allocates at
/// every event batch that has active flows, so an allocation on an
/// iteration that drained no raw event would break the count: the
/// faulted static-demand arm pins that no such iteration exists, with
/// faults both coinciding with release cohorts and landing between flow
/// events.
#[test]
fn alloc_batches_account_for_every_drained_event() {
    fn drained(n: usize, done: &[FlowCompletion], faults: usize) -> usize {
        let last = done
            .iter()
            .map(|c| c.finish)
            .max_by(|a, b| a.secs().total_cmp(&b.secs()))
            .expect("workload completed no flows");
        let final_batch = done.iter().filter(|c| c.finish == last).count();
        2 * n - final_batch + faults
    }
    let topo = Topology::big_switch_uniform(6, 1.5);
    // Cohorts release at 0, 0.7 and 1.4: the faults at 0.7 and 1.4
    // coincide with a release, the others land between flow events. All
    // of them precede the last completion (the 1.4 cohort is still
    // draining), so every fault is drained into some batch.
    let plan = FaultPlan::empty()
        .with(
            SimTime::new(0.35),
            FaultKind::LinkDegrade(ResourceId(0), 0.5),
        )
        .with(SimTime::new(0.7), FaultKind::LinkRestore(ResourceId(0)))
        .with(SimTime::new(0.7), FaultKind::CoordinatorDown)
        .with(SimTime::new(1.05), FaultKind::LinkDown(ResourceId(7)))
        .with(SimTime::new(1.2), FaultKind::CoordinatorUp)
        .with(SimTime::new(1.4), FaultKind::LinkRestore(ResourceId(7)));
    let config = RunConfig::from(plan);
    for seed in 0..6u64 {
        let demands = cohort_demands(seed, 6, 3, 5);
        let n = demands.len();
        let (out, done) = run_cohorts(&topo, demands.clone(), &mut MaxMinPolicy, true);
        assert_eq!(
            out.stats.alloc_batches + out.stats.batched_events,
            drained(n, &done, 0),
            "batch denominator accounting broke for seed {seed}"
        );

        let faulted = run_flows(&topo, demands, &mut MaxMinPolicy, &config);
        let stats = faulted.drive_stats();
        assert_eq!(
            stats.fault_events, 6,
            "seed {seed}: a fault was not applied"
        );
        let done: Vec<FlowCompletion> = faulted.completions().values().copied().collect();
        assert_eq!(
            stats.alloc_batches + stats.batched_events,
            drained(n, &done, stats.fault_events),
            "faulted batch accounting broke for seed {seed}"
        );
    }
}

/// Derived-metric denominators on a same-instant-heavy workload: every
/// release instant and every completion instant is shared by a whole
/// wave (12 equal-size flows per pod on one host pair split a route
/// max-min, so they finish together), yet `pods_total` — the
/// denominator of `pod_recompute_fraction` — must grow by the pod count
/// once per *batch*, never once per raw event. DESIGN §12.1's raw-event
/// identity is re-checked under the same load so both counters are
/// pinned against the same run.
#[test]
fn same_instant_heavy_denominators_count_batches_not_events() {
    let fabric = FatTree::new(4).build_fabric();
    let pods = 4usize;
    let hosts_per_pod = 4usize;
    let waves = 4usize;
    let width = 12usize;
    let mut demands = Vec::new();
    for c in 0..waves {
        let release = SimTime::new(c as f64 * 0.9);
        for p in 0..pods {
            // One host pair per pod per wave: the wave's flows share the
            // route, get equal max-min shares, and complete at one instant.
            let src = (p * hosts_per_pod) as u32;
            let dst = src + 1 + (c % (hosts_per_pod - 1)) as u32;
            for w in 0..width {
                demands.push(FlowDemand {
                    id: FlowId(((c * pods + p) * width + w) as u64),
                    src: NodeId(src),
                    dst: NodeId(dst),
                    size: 2.5,
                    release,
                });
            }
        }
    }
    let n = demands.len();
    for full in [false, true] {
        let out = plain_or_full(full, &mut PodMaxMinPolicy::new(), |p| {
            run_flows(&fabric, demands.clone(), p, &RunConfig::default())
        });
        let stats = out.drive_stats();
        assert_eq!(out.completions().len(), n);
        // The fraction's denominator is pods × batches: each allocation
        // decision scopes all pods exactly once, however many raw events
        // the instant coalesced.
        assert_eq!(
            stats.pods_total,
            pods * stats.alloc_batches,
            "pods_total must be pod-count × batch-count (full {full})"
        );
        assert_eq!(
            stats.alloc_batches, stats.allocations,
            "every batch is one allocation decision (full {full})"
        );
        // Non-vacuity: each release wave really coalesced its 48 − 1
        // same-instant arrivals.
        assert!(
            stats.batched_events >= waves * (pods * width - 1),
            "same-instant waves did not coalesce (full {full}): {} batched events",
            stats.batched_events
        );
        // Raw-event identity (DESIGN §12.1): batches + absorbed events
        // cover all 2n arrivals/departures except the final instant's
        // completions, whose batch never runs.
        let last = out
            .completions()
            .values()
            .map(|c| c.finish)
            .max_by(|a, b| a.secs().total_cmp(&b.secs()))
            .expect("no completions");
        let final_batch = out
            .completions()
            .values()
            .filter(|c| c.finish == last)
            .count();
        assert_eq!(
            stats.alloc_batches + stats.batched_events,
            2 * n - final_batch,
            "raw-event accounting identity broke (full {full})"
        );
    }
}
