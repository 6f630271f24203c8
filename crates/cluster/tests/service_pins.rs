//! Absolute pins for the open-loop service: `run_service`'s completion
//! digest and scheduler book peak for both grouped schedulers, both
//! placement modes and both service modes, each plain and through
//! `FullRecompute`, at three seeds. The open≡closed differential in
//! `service.rs` is relative and would pass if both sides moved together;
//! these pins would not.

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
    ("echelon/fixed/3", 0x0154_1ba3_b787_3c86, 12, 63),
    ("echelon/fixed/7", 0x4999_fcf1_11fa_61c8, 14, 61),
    ("echelon/fixed/11", 0xdcfb_a574_f231_213a, 15, 61),
    ("echelon/pod-packed/3", 0x8637_5643_641f_9bfb, 24, 61),
    ("echelon/pod-packed/7", 0x977e_1b2d_7f39_97a1, 24, 62),
    ("echelon/pod-packed/11", 0x2e01_cff2_2ba9_7b6b, 27, 66),
    ("coflow/fixed/3", 0x3521_8802_c8e1_122a, 17, 78),
    ("coflow/fixed/7", 0x9568_7e21_3aaa_853a, 18, 71),
    ("coflow/fixed/11", 0xb786_99ae_8045_3ff4, 17, 71),
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

/// The twelve streams, in [`PINS`] order: {echelon, coflow} × {fixed
/// placement on an 8-host big switch with 16 jobs, pod-packed admission
/// placement on a k = 4 fat tree with 18 jobs} × seeds {3, 7, 11}.
fn streams() -> Vec<Stream> {
    let tree = FatTree::new(4);
    let mut out = Vec::new();
    for kind in [SchedulerKind::Echelon, SchedulerKind::Coflow] {
        for placed in [false, true] {
            for seed in [3, 7, 11] {
                let (topo, cfg, label) = if placed {
                    let mut cfg = OpenLoopConfig::default_tiers(seed, 18, tree.hosts(), 0.5);
                    cfg.placement = ServicePlacement::AtAdmission(PlacementPolicy::PodPacked);
                    (tree.build_fabric(), cfg, "pod-packed")
                } else {
                    let cfg = OpenLoopConfig::default_tiers(seed, 16, 8, 0.6);
                    (Topology::big_switch_uniform(8, 1.0), cfg, "fixed")
                };
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
