//! The profiling loop of the paper's system (Fig. 7's "Profiling" box).
//!
//! "The 'distance' is the duration of each computation unit, which can be
//! profiled by running a few training iterations." This example closes
//! that loop end to end:
//!
//! 1. run a GPipe job once on an uncontended network and *measure* the
//!    per-micro-batch computation gap T;
//! 2. declare the EchelonFlows with the measured distance (instead of
//!    the configured ground truth);
//! 3. schedule the real, contended run with the profiled arrangement and
//!    compare against the ground-truth arrangement.
//!
//! Run with: `cargo run --example profiling_loop`

use echelonflow::core::arrangement::ArrangementFn;
use echelonflow::core::echelon::EchelonFlow;
use echelonflow::core::JobId;
use echelonflow::paradigms::config::PpConfig;
use echelonflow::paradigms::ids::IdAlloc;
use echelonflow::paradigms::pp::build_pp_gpipe;
use echelonflow::paradigms::profiler::profile_gaps;
use echelonflow::paradigms::runtime::run_jobs;
use echelonflow::sched::echelon::EchelonMadd;
use echelonflow::simnet::runner::RunConfig;
use echelonflow::simnet::topology::Topology;

fn main() {
    let cfg = PpConfig::fig2();

    // 1. Profile: run uncontended, measure the computation distances.
    let mut alloc = IdAlloc::new();
    let dag = build_pp_gpipe(JobId(0), &cfg, &mut alloc);
    let report = profile_gaps(&dag, cfg.placement.len());
    let measured_t = report.mean_fwd_gap().expect("forward gaps measured");
    println!("profiled computation distance T = {measured_t:.6} (ground truth 1.0)");
    println!(
        "uncontended iteration time        = {:.6}\n",
        report.uncontended_makespan
    );

    // 2. Re-declare the EchelonFlows with the *measured* distance.
    let profiled_echelons: Vec<EchelonFlow> = dag
        .echelons
        .iter()
        .map(|h| {
            let stages = (0..h.num_stages()).map(|j| h.stage(j).to_vec()).collect();
            EchelonFlow::new(
                h.id(),
                h.job(),
                stages,
                ArrangementFn::Staggered { gap: measured_t },
            )
        })
        .collect();

    // 3. Schedule the contended run with the profiled arrangement.
    let topo = Topology::chain(2, 1.0);
    let mut profiled_policy = EchelonMadd::new(profiled_echelons);
    let profiled = run_jobs(&topo, &[&dag], &mut profiled_policy, &RunConfig::default());

    let mut truth_policy = EchelonMadd::new(dag.echelons.clone());
    let truth = run_jobs(&topo, &[&dag], &mut truth_policy, &RunConfig::default());

    let forward_finish = |out: &echelonflow::paradigms::runtime::RunResult| {
        use echelonflow::paradigms::dag::CompKind;
        use echelonflow::simnet::ids::NodeId;
        out.timeline_of(NodeId(1))
            .iter()
            .filter(|e| e.kind == CompKind::Forward)
            .map(|e| e.end)
            .max()
            .unwrap()
    };
    println!(
        "{:<24} {:>16} {:>16}",
        "arrangement source", "forward finish", "full iteration"
    );
    println!("{}", "-".repeat(58));
    println!(
        "{:<24} {:>16} {:>16}",
        "profiled distances",
        forward_finish(&profiled).to_string(),
        profiled.comp_finish_time().to_string()
    );
    println!(
        "{:<24} {:>16} {:>16}",
        "ground-truth distances",
        forward_finish(&truth).to_string(),
        truth.comp_finish_time().to_string()
    );
    println!("\nprofiling recovers the arrangement exactly; the forward phase hits the");
    println!("paper's optimum (8) under both, and the schedules are identical.");
}
