//! The coordinator's decision triggers on the `echelon-dag` benchmark
//! workload's inputs: a 200-job default mix (one iteration, mean
//! inter-arrival 0.5 s, pod-packed) on a k = 16, 4:1 oversubscribed
//! fat-tree, run closed-loop through `Scenario::run_with`.
//!
//! `hold_grid_is_pinned` runs seeds 1–8 under both the earliest-deadline
//! and the least-work ranking with each trigger (`PerEvent`,
//! `PerGroupChange`, `Interval(0.1)`), and pins every row's decision
//! count and total tardiness (Eq. 4) bits. It also asserts that deciding
//! per EchelonFlow arrival/departure takes at most half the per-event
//! decisions on every seed, at no more than 1 % more tardiness. The grid
//! runs 48 full-size scenarios, so it is `#[ignore]`d; run it with
//! `cargo test --release --test coordinator_hold -- --ignored`.

use echelonflow::agent::agent::EchelonAgent;
use echelonflow::agent::coordinator::{Coordinator, CoordinatorConfig, Trigger};
use echelonflow::cluster::placement::PlacementPolicy;
use echelonflow::cluster::scenario::Scenario;
use echelonflow::cluster::workload::WorkloadConfig;
use echelonflow::sched::echelon::InterOrder;
use echelonflow::simnet::fattree::FatTree;
use echelonflow::simnet::fault::FaultPlan;

const RANKINGS: [(&str, InterOrder); 2] = [
    ("edf", InterOrder::EarliestDeadline),
    ("least-work", InterOrder::LeastWork),
];

const TRIGGERS: [(&str, Trigger); 3] = [
    ("per-event", Trigger::PerEvent),
    ("per-group", Trigger::PerGroupChange),
    ("interval-0.1", Trigger::Interval(0.1)),
];

/// `(seed, ranking, trigger, decisions, total tardiness bits)`.
type Row = (u64, &'static str, &'static str, usize, u64);

const PINNED: [Row; 48] = [
    (1, "edf", "per-event", 3814, 0x40b08ba30277daaa), // 4235.637
    (1, "edf", "per-group", 1607, 0x40b08bbd903eaed1), // 4235.740
    (1, "edf", "interval-0.1", 941, 0x40b08d777c57c38b), // 4237.467
    (1, "least-work", "per-event", 3800, 0x40af9783f1282b25), // 4043.758
    (1, "least-work", "per-group", 1616, 0x40af9777edfd511b), // 4043.734
    (1, "least-work", "interval-0.1", 950, 0x40af9f10da19693d), // 4047.533
    (2, "edf", "per-event", 4028, 0x40b438ac3a7e5397), // 5176.673
    (2, "edf", "per-group", 1744, 0x40b438f587e6e412), // 5176.959
    (2, "edf", "interval-0.1", 929, 0x40b43c4b667f4c71), // 5180.295
    (2, "least-work", "per-event", 4009, 0x40b33020d27d544f), // 4912.128
    (2, "least-work", "per-group", 1733, 0x40b33020d27d544f), // 4912.128
    (2, "least-work", "interval-0.1", 927, 0x40b32ff7789f0987), // 4911.967
    (3, "edf", "per-event", 3914, 0x40b238236cfbc1c9), // 4664.138
    (3, "edf", "per-group", 1729, 0x40b23851ed3b5ec1), // 4664.320
    (3, "edf", "interval-0.1", 878, 0x40b23432a7db1b01), // 4660.198
    (3, "least-work", "per-event", 3895, 0x40b1523f37b8638d), // 4434.247
    (3, "least-work", "per-group", 1729, 0x40b152587074a9d3), // 4434.345
    (3, "least-work", "interval-0.1", 876, 0x40b1546ab4d799d5), // 4436.417
    (4, "edf", "per-event", 3881, 0x40b3d28b11e2e4da), // 5074.543
    (4, "edf", "per-group", 1604, 0x40b3d2d3a7fa1e43), // 5074.827
    (4, "edf", "interval-0.1", 881, 0x40b3d023118afc61), // 5072.137
    (4, "least-work", "per-event", 3862, 0x40b2e5fd47b1363a), // 4837.989
    (4, "least-work", "per-group", 1608, 0x40b2e5fd47b1363a), // 4837.989
    (4, "least-work", "interval-0.1", 876, 0x40b2e894608240c2), // 4840.580
    (5, "edf", "per-event", 3963, 0x40b2cb2a2766850f), // 4811.165
    (5, "edf", "per-group", 1710, 0x40b2cbb007ef2e3d), // 4811.688
    (5, "edf", "interval-0.1", 965, 0x40b2cca9b4c5d8a3), // 4812.663
    (5, "least-work", "per-event", 3945, 0x40b1e013a2aafdf9), // 4576.077
    (5, "least-work", "per-group", 1694, 0x40b1e01a2cf2873d), // 4576.102
    (5, "least-work", "interval-0.1", 965, 0x40b1e2f4931c02df), // 4578.955
    (6, "edf", "per-event", 3684, 0x40b1368482d0e8b0), // 4406.518
    (6, "edf", "per-group", 1656, 0x40b136b2f084ec1c), // 4406.699
    (6, "edf", "interval-0.1", 885, 0x40b139b40d62b9b1), // 4409.703
    (6, "least-work", "per-event", 3664, 0x40b0979e1b5cec52), // 4247.618
    (6, "least-work", "per-group", 1642, 0x40b09784617e507d), // 4247.517
    (6, "least-work", "interval-0.1", 882, 0x40b09b788ab0d53d), // 4251.471
    (7, "edf", "per-event", 3837, 0x40b2399f4b28732a), // 4665.622
    (7, "edf", "per-group", 1784, 0x40b23abc423d5d1f), // 4666.735
    (7, "edf", "interval-0.1", 876, 0x40b23cb1bfa15c22), // 4668.694
    (7, "least-work", "per-event", 3816, 0x40b1a5a8d4de7185), // 4517.659
    (7, "least-work", "per-group", 1780, 0x40b1a56ea4517166), // 4517.432
    (7, "least-work", "interval-0.1", 874, 0x40b1a8066098dba1), // 4520.025
    (8, "edf", "per-event", 3824, 0x40b4793350705de4), // 5241.200
    (8, "edf", "per-group", 1717, 0x40b4795bcdf8f216), // 5241.359
    (8, "edf", "interval-0.1", 987, 0x40b47c1475a7f3fd), // 5244.080
    (8, "least-work", "per-event", 3806, 0x40b3a60c47c90f33), // 5030.048
    (8, "least-work", "per-group", 1719, 0x40b3a604abed1dfd), // 5030.018
    (8, "least-work", "interval-0.1", 999, 0x40b3a843c9a4f692), // 5032.265
];

fn scenario(seed: u64) -> Scenario {
    let tree = FatTree::new(16).with_oversubscription(4.0);
    let mut cfg = WorkloadConfig::default_mix(seed, 200, tree.hosts());
    cfg.iterations = 1;
    cfg.mean_interarrival = 0.5;
    cfg.placement = PlacementPolicy::PodPacked;
    Scenario::generate_on(&cfg, tree.build_fabric())
}

#[test]
#[ignore = "48 full-size runs; run in release"]
fn hold_grid_is_pinned() {
    let mut got: Vec<Row> = Vec::new();
    let mut table = String::new();
    for seed in 1..=8 {
        let scenario = scenario(seed);
        for (ranking, inter) in RANKINGS {
            for (trigger_name, trigger) in TRIGGERS {
                let mut coordinator = Coordinator::new(CoordinatorConfig {
                    trigger,
                    inter,
                    ..CoordinatorConfig::default()
                });
                for job in &scenario.jobs {
                    EchelonAgent::from_dag(&job.dag).report_to(&mut coordinator);
                }
                let mut policy = coordinator.into_policy();
                let (_, m) = scenario.run_with(&mut policy, &FaultPlan::empty());
                let decisions = policy.decisions_computed();
                let bits = m.total_tardiness.to_bits();
                table += &format!(
                    "    ({seed}, \"{ranking}\", \"{trigger_name}\", {decisions}, {bits:#018x}), // {:.3}\n",
                    m.total_tardiness
                );
                got.push((seed, ranking, trigger_name, decisions, bits));
            }
        }
    }
    for rows in got.chunks(TRIGGERS.len()) {
        let (per_event, per_group) = (rows[0], rows[1]);
        let at = format!("seed {} {}", per_event.0, per_event.1);
        assert!(
            2 * per_group.3 <= per_event.3,
            "{at}: {} per-group decisions against {} per event",
            per_group.3,
            per_event.3
        );
        let tardiness = |row: Row| f64::from_bits(row.4);
        assert!(
            tardiness(per_group) <= 1.01 * tardiness(per_event),
            "{at}: per-group tardiness {} against {} per event",
            tardiness(per_group),
            tardiness(per_event)
        );
    }
    assert_eq!(got, PINNED, "hold grid moved; now:\n{table}");
}
