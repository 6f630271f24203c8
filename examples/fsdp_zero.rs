//! FSDP/ZeRO under EchelonFlow versus Coflow (paper §4 Case III, Fig. 3).
//!
//! An FSDP job gathers each layer's parameter shards with an all-gather
//! before computing on it; the 2n all-gathers form one EchelonFlow with
//! the Eq. 7 `Phased` arrangement. This example runs one FSDP job and
//! prints, per all-gather stage, its ideal finish offset, its realized
//! finish under both schedulers, and the resulting iteration times.
//!
//! Run with: `cargo run --example fsdp_zero`

use echelonflow::cluster::metrics::echelon_tardiness_from_run;
use echelonflow::cluster::scenario::SchedulerKind;
use echelonflow::core::JobId;
use echelonflow::paradigms::config::FsdpConfig;
use echelonflow::paradigms::fsdp::build_fsdp;
use echelonflow::paradigms::ids::IdAlloc;
use echelonflow::paradigms::runtime::{run_jobs, RunResult};
use echelonflow::simnet::ids::NodeId;
use echelonflow::simnet::runner::RunConfig;
use echelonflow::simnet::time::SimTime;
use echelonflow::simnet::topology::Topology;

fn cfg() -> FsdpConfig {
    FsdpConfig {
        placement: vec![NodeId(0), NodeId(1), NodeId(2)],
        layers: 4,
        shard_bytes: 0.6,
        layer_shard_bytes: None,
        fwd_time_per_layer: 1.0,
        bwd_time_per_layer: 2.0,
        iterations: 1,
    }
}

fn run(kind: SchedulerKind) -> (echelonflow::paradigms::dag::JobDag, RunResult) {
    let mut alloc = IdAlloc::new();
    let dag = build_fsdp(JobId(0), &cfg(), &mut alloc);
    let topo = Topology::big_switch_uniform(3, 1.0);
    let config = RunConfig::default();
    let out = run_jobs(&topo, &[&dag], kind.policy(&[&dag]).as_mut(), &config);
    (dag, out)
}

fn main() {
    println!("FSDP/ZeRO: 4 layers x 3 workers, T_fwd=1, T_bwd=2 (Eq. 7)\n");

    let (dag_e, out_e) = run(SchedulerKind::Echelon);
    let (_, out_c) = run(SchedulerKind::Coflow);

    // The phased EchelonFlow over the 2n all-gathers.
    let phased = dag_e
        .echelons
        .iter()
        .find(|h| !h.is_coflow_compliant())
        .expect("AG EchelonFlow");
    let offsets = phased.arrangement().offsets(phased.num_stages());

    println!(
        "{:<10} {:>12} {:>16} {:>16}",
        "AG stage", "ideal offset", "finish (echelon)", "finish (coflow)"
    );
    println!("{}", "-".repeat(58));
    #[allow(clippy::needless_range_loop)]
    for j in 0..phased.num_stages() {
        let finish = |out: &RunResult| -> SimTime {
            phased
                .stage(j)
                .iter()
                .map(|f| out.flow_finishes[&f.id])
                .fold(SimTime::ZERO, SimTime::max)
        };
        let phase = if j < cfg().layers { "fwd" } else { "bwd" };
        println!(
            "{:<10} {:>12.1} {:>16} {:>16}",
            format!("AG{} ({phase})", j + 1),
            offsets[j],
            finish(&out_e),
            finish(&out_c),
        );
    }

    let t_e = echelon_tardiness_from_run(phased, &out_e).unwrap();
    let t_c = echelon_tardiness_from_run(phased, &out_c).unwrap();
    println!("\nEchelonFlow tardiness (Eq. 2): echelon = {t_e:.3}, coflow = {t_c:.3}");
    println!(
        "iteration time:               echelon = {}, coflow = {}",
        out_e.makespan, out_c.makespan
    );
}
