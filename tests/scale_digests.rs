//! Pinned completion digests for flows on fat trees under
//! [`PodMaxMinPolicy`], with tracing, feasibility checks and link counters
//! off. Most rows are pod-local; one mixes in core crossers under link
//! churn, so it runs the whole-fabric fallback. Each scenario asserts that
//! every flow completes, that peak concurrency reaches its floor, that
//! turning the phase timers on records phase time without changing the
//! digest, and that the digest equals the committed value. The full-size
//! scenarios are `#[ignore]`d; run them with
//! `cargo test --release --test scale_digests -- --ignored`.

use echelon_detrand::DetRng;
use echelonflow::simnet::driver::{DriveConfig, PhaseTimings};
use echelonflow::simnet::fattree::FatTree;
use echelonflow::simnet::fault::{FaultKind, FaultPlan};
use echelonflow::simnet::flow::FlowDemand;
use echelonflow::simnet::fluid::NextCompletionMode;
use echelonflow::simnet::ids::{FlowId, NodeId, ResourceId};
use echelonflow::simnet::runner::{run_flows, FlowOutcomes, PodMaxMinPolicy, RunConfig};
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;

/// How a scale scenario's releases are spread over time: uniformly in
/// `[0, window)`, or as a Poisson process with the given mean gap.
enum Arrival {
    Uniform { window: f64 },
    Poisson { mean_gap: f64 },
}

struct ScaleSpec {
    k: usize,
    /// Fat-tree oversubscription: the links above the edge carry the
    /// host link capacity divided by this factor.
    oversub: f64,
    /// Flows in all; a uniform row spreads them evenly over the pods.
    flows: usize,
    arrival: Arrival,
    size_lo: f64,
    size_hi: f64,
    /// Lower bound asserted on the peak concurrent flow count.
    min_peak_active: usize,
    /// Share of Poisson flows sent to another pod, across the core.
    cross: f64,
    /// Link degrade/restore pairs spread over the release span.
    churn_pairs: usize,
}

/// Demands on a fat-tree. With `cross` zero every flow stays inside its
/// pod, so the allocator's per-pod dirty sets are non-trivial and the
/// whole-fabric fallback never triggers; otherwise each Poisson flow
/// crosses the core with probability `cross`.
fn scale_demands(spec: &ScaleSpec) -> Vec<FlowDemand> {
    let half = spec.k / 2;
    let hosts_per_pod = half * half;
    let total = spec.flows;
    let mut demands = Vec::with_capacity(total);
    let mut next_id = 0u64;
    match spec.arrival {
        Arrival::Uniform { window } => {
            let mut rng = DetRng::seed_from_u64(0x5CA1E + spec.k as u64);
            assert_eq!(total % spec.k, 0, "uniform rows fill every pod alike");
            for pod in 0..spec.k {
                let base = pod * hosts_per_pod;
                for _ in 0..total / spec.k {
                    let src = rng.usize_range_inclusive(0, hosts_per_pod - 1);
                    let dst_raw = rng.usize_range_inclusive(0, hosts_per_pod - 2);
                    let dst = if dst_raw >= src { dst_raw + 1 } else { dst_raw };
                    demands.push(FlowDemand {
                        id: FlowId(next_id),
                        src: NodeId((base + src) as u32),
                        dst: NodeId((base + dst) as u32),
                        size: rng.f64_range(spec.size_lo, spec.size_hi),
                        release: SimTime::new(rng.f64_range(0.0, window)),
                    });
                    next_id += 1;
                }
            }
        }
        Arrival::Poisson { mean_gap } => {
            // Different seed constant than the uniform arm so the two
            // k=16 rows exercise independent draws.
            let mut rng = DetRng::seed_from_u64(0x57A66 + spec.k as u64);
            let mut t = 0.0f64;
            for _ in 0..total {
                let u = rng.f64_range(0.0, 1.0);
                t += -mean_gap * (1.0 - u).ln();
                let pod = rng.usize_range_inclusive(0, spec.k - 1);
                // No draw at `cross` zero, so the pod-local rows keep
                // their streams.
                let dst_pod = if spec.cross > 0.0 && rng.next_f64() < spec.cross {
                    (pod + rng.usize_range_inclusive(1, spec.k - 1)) % spec.k
                } else {
                    pod
                };
                let base = pod * hosts_per_pod;
                let src = rng.usize_range_inclusive(0, hosts_per_pod - 1);
                let dst_raw = rng.usize_range_inclusive(0, hosts_per_pod - 2);
                let dst = if dst_raw >= src { dst_raw + 1 } else { dst_raw };
                demands.push(FlowDemand {
                    id: FlowId(next_id),
                    src: NodeId((base + src) as u32),
                    dst: NodeId((dst_pod * hosts_per_pod + dst) as u32),
                    size: rng.f64_range(spec.size_lo, spec.size_hi),
                    release: SimTime::new(t),
                });
                next_id += 1;
            }
        }
    }
    demands
}

/// `pairs` degrade/restore pairs on seeded random links, one per equal
/// slice of `[0, span)`: each link drops to half its capacity a quarter
/// into its slice and is restored at three quarters.
fn churn_plan(topo: &Topology, k: usize, span: f64, pairs: usize) -> FaultPlan {
    let mut rng = DetRng::seed_from_u64(0xC4_0257 + k as u64);
    let slice = span / pairs as f64;
    let mut plan = FaultPlan::empty();
    for i in 0..pairs {
        let link = ResourceId(rng.usize_range_inclusive(0, topo.num_resources() - 1) as u32);
        let start = slice * i as f64;
        plan = plan
            .with(
                SimTime::new(start + 0.25 * slice),
                FaultKind::LinkDegrade(link, 0.5),
            )
            .with(
                SimTime::new(start + 0.75 * slice),
                FaultKind::LinkRestore(link),
            );
    }
    plan
}

/// FNV-style digest over the completion map (deterministic iteration
/// order): the byte-identity witness for scale runs, where full rate
/// traces are too large to keep.
fn completion_digest(out: &FlowOutcomes) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for (id, c) in out.completions() {
        for word in [id.0, c.finish.secs().to_bits(), c.size.to_bits()] {
            h ^= word;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Runs `spec` with the phase timers off and on, checks the floor and
/// the timing identity, and asserts the digest equals `pinned` (hex).
fn assert_pinned(spec: ScaleSpec, pinned: &str) {
    let topo = FatTree::new(spec.k)
        .with_oversubscription(spec.oversub)
        .build_fabric();
    let demands = scale_demands(&spec);
    let span = demands.iter().map(|d| d.release.secs()).fold(0.0, f64::max);
    let plan = churn_plan(&topo, spec.k, span, spec.churn_pairs);
    let run = |profile: bool| {
        let mut policy = PodMaxMinPolicy::new();
        let config = RunConfig {
            faults: plan.clone(),
            drive: DriveConfig {
                next_completion: NextCompletionMode::Calendar,
                feasibility_checks: false,
                trace: false,
                profile,
                link_stats: false,
            },
        };
        run_flows(&topo, demands.clone(), &mut policy, &config)
    };
    let timed = run(false);
    assert_eq!(timed.completions().len(), demands.len(), "flows lost");
    assert_eq!(timed.drive_stats().fault_events, 2 * spec.churn_pairs);
    let peak = timed.drive_stats().peak_active;
    assert!(peak >= spec.min_peak_active, "peak_active {peak}");
    let profiled = run(true);
    assert_ne!(profiled.drive_stats().phase, PhaseTimings::default());
    let digest = completion_digest(&timed);
    assert_eq!(completion_digest(&profiled), digest, "profiled run");
    assert_eq!(format!("{digest:016x}"), pinned);
}

#[test]
fn k8_smoke_burst_digest_is_pinned() {
    let spec = ScaleSpec {
        k: 8,
        oversub: 1.0,
        flows: 480,
        arrival: Arrival::Uniform { window: 1.0 },
        size_lo: 0.5,
        size_hi: 1.5,
        min_peak_active: 64,
        cross: 0.0,
        churn_pairs: 0,
    };
    assert_pinned(spec, "1cfdc92157f75eda");
}

#[test]
fn k8_smoke_spread_digest_is_pinned() {
    let spec = ScaleSpec {
        k: 8,
        oversub: 1.0,
        flows: 960,
        arrival: Arrival::Uniform { window: 4.0 },
        size_lo: 0.3,
        size_hi: 0.9,
        min_peak_active: 32,
        cross: 0.0,
        churn_pairs: 0,
    };
    assert_pinned(spec, "fc73076793ae00d5");
}

/// Saturation: ≥10k flows in flight at once.
#[test]
#[ignore = "full-size scale row; run in release with --ignored"]
fn k16_burst_digest_is_pinned() {
    let spec = ScaleSpec {
        k: 16,
        oversub: 1.0,
        flows: 12_800,
        arrival: Arrival::Uniform { window: 1.0 },
        size_lo: 0.5,
        size_hi: 1.5,
        min_peak_active: 10_000,
        cross: 0.0,
        churn_pairs: 0,
    };
    assert_pinned(spec, "73c77269a7769748");
}

/// 10⁵ flows streamed across 8,192 hosts.
#[test]
#[ignore = "full-size scale row; run in release with --ignored"]
fn k32_trickle_digest_is_pinned() {
    let spec = ScaleSpec {
        k: 32,
        oversub: 1.0,
        flows: 102_400,
        arrival: Arrival::Uniform { window: 300.0 },
        size_lo: 0.2,
        size_hi: 0.6,
        min_peak_active: 64,
        cross: 0.0,
        churn_pairs: 0,
    };
    assert_pinned(spec, "bba2343c68164add");
}

/// Between the two uniform extremes: Poisson arrivals hold a few hundred
/// flows in flight, so completions interleave with releases.
#[test]
#[ignore = "full-size scale row; run in release with --ignored"]
fn k16_staggered_digest_is_pinned() {
    let spec = ScaleSpec {
        k: 16,
        oversub: 1.0,
        flows: 12_800,
        arrival: Arrival::Poisson { mean_gap: 0.002 },
        size_lo: 0.5,
        size_hi: 1.5,
        min_peak_active: 128,
        cross: 0.0,
        churn_pairs: 0,
    };
    assert_pinned(spec, "91de76748782197e");
}

/// The whole-fabric fallback: Poisson flows, about a fifth of them core
/// crossers, under link degrade/restore churn. While a crosser is live
/// every allocation, and every fault-forced one, fills the whole fabric.
#[test]
fn k8_crosser_churn_digest_is_pinned() {
    let spec = ScaleSpec {
        k: 8,
        oversub: 1.0,
        flows: 480,
        arrival: Arrival::Poisson { mean_gap: 0.004 },
        size_lo: 0.5,
        size_hi: 1.5,
        min_peak_active: 64,
        cross: 0.2,
        churn_pairs: 8,
    };
    // Non-vacuity: at least one flow in ten crosses the core.
    let topo = FatTree::new(spec.k).build_fabric();
    let demands = scale_demands(&spec);
    let crossers = demands
        .iter()
        .filter(|d| topo.host_pod(d.src) != topo.host_pod(d.dst))
        .count();
    assert!(crossers * 10 >= demands.len(), "only {crossers} crossers");
    assert_pinned(spec, "7cfc8eb4f8e82ba1");
}

/// The whole-fabric fallback on a 4:1 oversubscribed fabric: host links
/// and the links above the edge differ in capacity, so the fill's link
/// classes split by capacity as well as by crosser count.
#[test]
fn k8_oversubscribed_crosser_churn_digest_is_pinned() {
    let spec = ScaleSpec {
        k: 8,
        oversub: 4.0,
        flows: 480,
        arrival: Arrival::Poisson { mean_gap: 0.004 },
        size_lo: 0.5,
        size_hi: 1.5,
        min_peak_active: 400,
        cross: 0.2,
        churn_pairs: 8,
    };
    assert_pinned(spec, "28b4090a5270a053");
}

/// Shaped like the benchmark's `crosspod-churn`: 3,000 Poisson flows at a
/// 4 ms mean gap on k = 16, one in ten across the core, under eight
/// degrade/restore pairs.
#[test]
#[ignore = "full-size scale row; run in release with --ignored"]
fn k16_crosspod_churn_digest_is_pinned() {
    let spec = ScaleSpec {
        k: 16,
        oversub: 1.0,
        flows: 3_000,
        arrival: Arrival::Poisson { mean_gap: 0.004 },
        size_lo: 0.5,
        size_hi: 1.5,
        min_peak_active: 400,
        cross: 0.1,
        churn_pairs: 8,
    };
    assert_pinned(spec, "42494ead8d9933f9");
}
