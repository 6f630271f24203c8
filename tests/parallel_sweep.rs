//! Differential gate for the deterministic parallel sweep engine
//! (`simnet::sweep`): fanning a grid of cluster scenarios out across
//! worker threads must produce **byte-identical** rendered output to the
//! serial sweep, for every thread count. Results are merged in task
//! order, so the only way this can fail is a task observing shared
//! state — which the engine forbids by construction.

use echelonflow::cluster::scenario::{Scenario, SchedulerKind};
use echelonflow::cluster::workload::WorkloadConfig;
use echelonflow::simnet::fault::FaultPlan;
use echelonflow::simnet::sweep::{configured_threads, sweep, sweep_with};

/// One rendered row per (seed, scheduler) combo: a hand-rolled JSON
/// object with the float metrics serialized via their bit patterns, so
/// byte equality of the merged string is bit equality of every result.
fn render_grid(threads: usize) -> String {
    let combos: Vec<(u64, SchedulerKind)> = [3u64, 7, 11]
        .iter()
        .flat_map(|&seed| SchedulerKind::ALL.map(|k| (seed, k)))
        .collect();
    let rows = sweep_with(threads, &combos, |_, &(seed, kind)| {
        let cfg = WorkloadConfig::default_mix(seed, 3, 16);
        let scenario = Scenario::generate(&cfg);
        let (run, metrics) = scenario.run(kind, &FaultPlan::empty());
        format!(
            "{{\"seed\": {seed}, \"scheduler\": \"{}\", \"events\": {}, \
             \"mean_jct_bits\": {}, \"tardiness_bits\": {}}}",
            kind.name(),
            run.trace.events().len(),
            metrics.mean_jct.to_bits(),
            metrics.total_tardiness.to_bits()
        )
    });
    format!("[\n  {}\n]\n", rows.join(",\n  "))
}

/// One test (not several) because the `RAYON_NUM_THREADS` leg mutates
/// process-global state: integration-test functions in the same binary
/// run concurrently and would race on the environment.
#[test]
fn sweep_output_is_byte_identical_across_thread_counts() {
    let serial = render_grid(1);
    for threads in [2, 8] {
        let parallel = render_grid(threads);
        assert_eq!(
            serial, parallel,
            "sweep output diverged between 1 and {threads} threads"
        );
    }

    // The env knob: `sweep` (no explicit count) honors RAYON_NUM_THREADS.
    let prev = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", "2");
    assert_eq!(configured_threads(), 2);
    let items: Vec<u64> = (0..6).collect();
    let via_env: Vec<u64> = sweep(&items, |i, &x| x * 10 + i as u64);
    match prev {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    assert_eq!(via_env, vec![0, 11, 22, 33, 44, 55]);
}
