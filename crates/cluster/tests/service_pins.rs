//! Absolute pins for the open-loop service: `run_service`'s completion
//! digest and scheduler book peak for both grouped schedulers, on a big
//! switch and on a fat tree, and both service modes, each plain and
//! through `FullRecompute`, at three seeds. The open≡closed differential
//! in `service.rs` is relative and would pass if both sides moved
//! together; these pins would not.

use echelon_cluster::prelude::*;
use echelon_cluster::service::service_parts;
use echelon_simnet::fattree::FatTree;
use echelon_simnet::fault::FaultPlan;
use echelon_simnet::runner::FullRecompute;
use echelon_simnet::topology::Topology;

/// `(stream, digest, streaming book peak, materialized book peak)`. Every
/// stream row covers four runs: `run_service` on the streamed and the
/// materialized parts, and on the same parts with the policy wrapped in
/// `FullRecompute`. All four
/// share the digest.
const PINS: &[(&str, u64, usize, usize)] = &[
    ("echelon/big-switch/3", 0x2d33_0665_15cb_6d63, 14, 51),
    ("echelon/big-switch/7", 0x5c07_7dfa_9829_d34e, 16, 58),
    ("echelon/big-switch/11", 0x6e9e_6a62_0afb_76fe, 14, 59),
    ("echelon/pod-packed/3", 0x8637_5643_641f_9bfb, 24, 61),
    ("echelon/pod-packed/7", 0x977e_1b2d_7f39_97a1, 24, 62),
    ("echelon/pod-packed/11", 0x2e01_cff2_2ba9_7b6b, 27, 66),
    ("coflow/big-switch/3", 0xd5f8_cf63_82b6_d83d, 19, 56),
    ("coflow/big-switch/7", 0x7301_56d4_71f8_a53b, 21, 68),
    ("coflow/big-switch/11", 0x2970_4ffe_e415_e0f4, 20, 64),
    ("coflow/pod-packed/3", 0x4c84_f632_7d7b_15e7, 28, 71),
    ("coflow/pod-packed/7", 0xc968_e8da_73f4_98fc, 29, 72),
    ("coflow/pod-packed/11", 0x2254_7f03_8e1a_788e, 30, 71),
];

/// One stream of the grid: its name, topology, config and scheduler.
struct Stream {
    name: String,
    topo: Topology,
    cfg: OpenLoopConfig,
    kind: SchedulerKind,
}

/// The twelve streams, in [`PINS`] order: {echelon, coflow} × {an
/// 8-host big switch with 16 jobs, a k = 4 fat tree with 18 jobs} ×
/// seeds {3, 7, 11}, every one placed pod-packed at admission (on the
/// big switch, one pod, that degrades to packed).
fn streams() -> Vec<Stream> {
    let tree = FatTree::new(4);
    let mut out = Vec::new();
    for kind in [SchedulerKind::Echelon, SchedulerKind::Coflow] {
        for on_tree in [false, true] {
            for seed in [3, 7, 11] {
                let (topo, mut cfg, label) = if on_tree {
                    let cfg = OpenLoopConfig::default_tiers(seed, 18, tree.hosts(), 0.5);
                    (tree.build_fabric(), cfg, "pod-packed")
                } else {
                    let cfg = OpenLoopConfig::default_tiers(seed, 16, 8, 0.6);
                    (Topology::big_switch_uniform(8, 1.0), cfg, "big-switch")
                };
                cfg.placement = ServicePlacement::AtAdmission(PlacementPolicy::PodPacked);
                out.push(Stream {
                    name: format!("{}/{label}/{seed}", kind.name()),
                    topo,
                    cfg,
                    kind,
                });
            }
        }
    }
    out
}

#[test]
fn service_runs_match_pinned_digests() {
    let streams = streams();
    assert_eq!(streams.len(), PINS.len());
    for (s, &(name, digest, streaming_peak, materialized_peak)) in streams.iter().zip(PINS) {
        assert_eq!(s.name, name, "grid order changed");
        for (service_mode, peak) in [
            (ServiceMode::Streaming, streaming_peak),
            (ServiceMode::Materialized, materialized_peak),
        ] {
            let svc = ServiceConfig::default();
            let plan = FaultPlan::empty();
            let parts = || service_parts(&s.topo, &s.cfg, &svc, s.kind, service_mode);
            let (feed, mut policy) = parts();
            let plain = run_service(&s.topo, feed, &mut policy, &plan);
            let (feed, mut policy) = parts();
            let full = run_service(&s.topo, feed, &mut FullRecompute(&mut policy), &plan);
            for (out, path) in [(plain, "plain"), (full, "FullRecompute")] {
                let case = format!("{name} {path} {service_mode:?}");
                assert_eq!(out.digest, digest, "{case}: digest {:#x}", out.digest);
                assert_eq!(out.peak_book_occupancy, peak, "{case}: book peak");
            }
        }
    }
}
