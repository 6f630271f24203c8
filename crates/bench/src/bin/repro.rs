//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all            # everything below in order
//! repro fig2           # E1:  Fig. 2 motivating example
//! repro table1         # E2:  Table 1 compliance matrix
//! repro fig1           # E3:  Fig. 1a GPipe timelines + idleness
//! repro fig6           # E4:  Fig. 6b recalibration trace
//! repro workflows      # E5:  Figs. 3-5 workflow summaries
//! repro prop1          # E6:  Property 1 vs brute-force optimum
//! repro multijob       # E10: multi-tenant scheduler comparison
//! repro ablations      # E11: profiling error / interval / intra /
//!                      #      backfill / queue-count ablations
//! repro placement      # E12: packed vs scattered GPU placement
//! repro jitter         # E13: compute jitter robustness
//! repro quantization   # E14: fluid-model validation
//! repro hierarchy      # E15: flat vs hierarchical all-reduce
//! repro steady         # E16: multi-iteration steady state
//! repro churn          # E17: JCT/tardiness under capacity churn
//! repro codesign       # E18: placement x scheduler x fault cross-product
//! ```

use echelon_bench::experiments as exp;
use echelon_bench::table::{f, Table};
use echelon_cluster::scenario::SchedulerKind;
use echelon_paradigms::dag::CompKind;
use echelon_simnet::ids::NodeId;

/// An experiment's command-line name and the function printing it.
type Experiment = (&'static str, fn());

/// Every experiment, in `repro all` order.
const EXPERIMENTS: [Experiment; 15] = [
    ("fig2", fig2),
    ("table1", table1),
    ("fig1", fig1),
    ("fig6", fig6),
    ("workflows", workflows),
    ("prop1", prop1),
    ("multijob", multijob),
    ("ablations", ablations),
    ("placement", placement),
    ("jitter", jitter),
    ("quantization", quantization),
    ("hierarchy", hierarchy),
    ("steady", steady_state),
    ("churn", churn),
    ("codesign", codesign),
];

/// The experiments `name` selects: the whole table for `all`, one entry
/// for an experiment's name, `None` for anything else.
fn select(name: &str) -> Option<&'static [Experiment]> {
    if name == "all" {
        return Some(&EXPERIMENTS);
    }
    let i = EXPERIMENTS.iter().position(|(n, _)| *n == name)?;
    Some(&EXPERIMENTS[i..=i])
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let Some(experiments) = select(&arg) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "repro: unknown experiment `{arg}`; expected `all` or one of: {}",
            names.join(", ")
        );
        std::process::exit(2);
    };
    for (_, run) in experiments {
        run();
    }
}

fn codesign() {
    banner("E18 — placement x scheduler x fault-plan cross-product (4:1 fat-tree)");
    let cells = exp::codesign_experiment(42);
    let mut t = Table::new(&[
        "placement",
        "scheduler",
        "faulted",
        "mean JCT",
        "p99 tardiness",
        "pods spanned",
    ]);
    for c in &cells {
        t.row(vec![
            c.placement.to_string(),
            c.scheduler.to_string(),
            if c.faulted { "yes" } else { "no" }.to_string(),
            f(c.mean_jct),
            f(c.p99_tardiness),
            format!("{:.2}/{}", c.mean_pods_spanned, c.max_pods_spanned),
        ]);
    }
    print!("{}", t.render());
    println!("\nplacement sensitivity per scheduler (clean-run JCT spread, worst - best):");
    for (scheduler, spread) in exp::codesign_interaction(&cells) {
        println!("  {scheduler:>8}: {}", f(spread));
    }
}

fn churn() {
    banner("E17 — capacity churn (link flaps, degradation, outage, straggler)");
    let mut t = Table::new(&[
        "scheduler",
        "clean JCT",
        "churn JCT",
        "churn tardiness",
        "stall flow-s",
        "fault recomputes",
    ]);
    for r in exp::churn_experiment(42) {
        t.row(vec![
            r.scheduler.to_string(),
            f(r.clean_jct),
            f(r.churn_jct),
            f(r.churn_tardiness),
            f(r.stall_flow_seconds),
            r.fault_recomputes.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!("(same seeded fault plan injected into every scheduler's run)");
}

fn hierarchy() {
    banner("E15 — flat vs hierarchical all-reduce (4:1 fat-tree)");
    let mut t = Table::new(&["variant", "iteration makespan", "cross-core flows"]);
    for (name, makespan, cross) in exp::hierarchy_experiment() {
        t.row(vec![name.to_string(), f(makespan), cross.to_string()]);
    }
    print!("{}", t.render());
}

fn steady_state() {
    banner("E16 — multi-iteration steady state (3 iterations/job)");
    let mut t = Table::new(&["scheduler", "mean iteration time", "total tardiness"]);
    for (name, iter_time, tardiness) in exp::steady_state_experiment(42) {
        t.row(vec![name.to_string(), f(iter_time), f(tardiness)]);
    }
    print!("{}", t.render());
}

fn placement() {
    banner("E12 — GPU placement: packed vs scattered");
    let mut t = Table::new(&["placement", "scheduler", "total tardiness", "mean JCT"]);
    for (p, s, tardiness, jct) in exp::placement_experiment(42) {
        t.row(vec![p.to_string(), s.to_string(), f(tardiness), f(jct)]);
    }
    print!("{}", t.render());
}

fn jitter() {
    banner("E13 — compute jitter (imperfect GPU isolation)");
    let mut t = Table::new(&["jitter", "coflow tardiness", "echelon tardiness"]);
    for (frac, coflow, echelon) in exp::jitter_experiment(42) {
        t.row(vec![
            format!("±{:.0}%", frac * 100.0),
            f(coflow),
            f(echelon),
        ]);
    }
    print!("{}", t.render());
}

fn quantization() {
    banner("E14 — fluid-model validation (chunk-quantized transmission)");
    let mut t = Table::new(&[
        "chunk size",
        "fair err",
        "srpt err",
        "srpt err (chunk-local state)",
    ]);
    for (chunk, fair_err, srpt_err, srpt_local) in exp::quantization_experiment() {
        t.row(vec![
            format!("{chunk}"),
            format!("{fair_err:.4}"),
            format!("{srpt_err:.4}"),
            format!("{srpt_local:.4}"),
        ]);
    }
    print!("{}", t.render());
    println!("(flow-state visibility makes the fluid model exact at any chunk size;");
    println!(" chunk-local scheduling loses size-based preemption entirely)");
}

fn banner(s: &str) {
    println!("\n=== {s} {}", "=".repeat(68_usize.saturating_sub(s.len())));
}

fn fig2() {
    banner("E1 / Fig. 2 — motivating example (paper: 8.5 / 10 / 8)");
    let r = exp::fig2();
    let mut t = Table::new(&["scheduler", "comp finish", "f0", "f1", "f2"]);
    for (name, finish, flows) in &r.rows {
        t.row(vec![
            name.to_string(),
            f(*finish),
            f(flows[0]),
            f(flows[1]),
            f(flows[2]),
        ]);
    }
    print!("{}", t.render());
    println!("\nforward-flow rate series (the sub-figures' piecewise-constant rates):");
    for (name, series) in exp::fig2_rate_series() {
        println!("  [{name}]");
        for (flow, points) in series {
            let rendered: Vec<String> = points
                .iter()
                .map(|(t, r)| format!("{:.2}s→{:.3}B", t.secs(), r))
                .collect();
            println!("    {flow}: {}", rendered.join("  "));
        }
    }
    let (gap, makespan) = exp::profile_fig2();
    println!("\nprofiled T = {gap:.3}, uncontended iteration = {makespan:.3}");
}

fn table1() {
    banner("E2 / Table 1 — paradigm compliance matrix");
    let mut t = Table::new(&[
        "paradigm",
        "CoFlow compliance",
        "EchelonFlow arrangement",
        "coflow t",
        "echelon t",
    ]);
    for row in exp::table1() {
        t.row(vec![
            row.paradigm.to_string(),
            if row.coflow_compliant { "yes" } else { "NO" }.to_string(),
            row.arrangement.to_string(),
            f(row.coflow_time),
            f(row.echelon_time),
        ]);
    }
    print!("{}", t.render());
    println!("(paper rows: DP/PS/TP compliant; PP and FSDP not)");
}

fn fig1() {
    banner("E3 / Fig. 1a — GPipe timeline (4 stages x 4 micro-batches)");
    for (name, kind, bytes) in [
        (
            "fair-sharing, paper regime (transfers fit the gaps)",
            SchedulerKind::Fair,
            1.0,
        ),
        (
            "fair-sharing, contended (3B activations)",
            SchedulerKind::Fair,
            3.0,
        ),
        (
            "echelonflow, contended (3B activations)",
            SchedulerKind::Echelon,
            3.0,
        ),
    ] {
        let out = exp::fig1_timeline(kind, bytes);
        println!("\n[{name}] makespan = {}", out.makespan);
        for w in 0..4u32 {
            let worker = NodeId(w);
            let mut line = format!("  worker {w}: ");
            for e in out.timeline_of(worker) {
                let tag = match e.kind {
                    CompKind::Forward => "F",
                    CompKind::Backward => "B",
                    CompKind::Update => "U",
                    CompKind::Generic => "·",
                };
                line.push_str(&format!(
                    "{tag}{} [{:.1},{:.1}] ",
                    e.label.trim_start_matches(['F', 'B', 'U']),
                    e.start.secs(),
                    e.end.secs()
                ));
            }
            println!("{line}");
            println!(
                "            idle fraction = {:.1}%",
                out.idle_fraction(worker) * 100.0
            );
        }
    }
}

fn fig6() {
    banner("E4 / Fig. 6b — reference-time recalibration");
    let mut t = Table::new(&[
        "flow",
        "start",
        "ideal finish",
        "actual finish",
        "tardiness",
    ]);
    for (label, start, ideal, actual, tardiness) in exp::fig6_trace() {
        t.row(vec![label, f(start), f(ideal), f(actual), f(tardiness)]);
    }
    print!("{}", t.render());
    println!("(delayed flows get ideal finishes earlier than their starts: room to catch up)");
}

fn workflows() {
    banner("E5 / Figs. 3-5 — workflow summaries per paradigm");
    let mut t = Table::new(&["paradigm", "collectives", "fair", "coflow", "echelon"]);
    for row in exp::workflows() {
        t.row(vec![
            row.paradigm.to_string(),
            row.ops,
            f(row.fair),
            f(row.coflow),
            f(row.echelon),
        ]);
    }
    print!("{}", t.render());
}

fn prop1() {
    banner("E6 / Property 1 — EchelonFlow scheduling vs exhaustive optimum");
    let mut t = Table::new(&["instance", "echelon", "optimal"]);
    for (name, achieved, optimal) in exp::prop1() {
        t.row(vec![name.to_string(), f(achieved), f(optimal)]);
    }
    print!("{}", t.render());
}

fn multijob() {
    banner("E10 — multi-tenant cluster (6 jobs, 32 hosts, scattered)");
    let mut t = Table::new(&[
        "scheduler",
        "total tardiness",
        "mean JCT",
        "p95 JCT",
        "utilization",
    ]);
    for (name, m) in exp::multijob(42, 6, 32, true) {
        t.row(vec![
            name.to_string(),
            f(m.total_tardiness),
            f(m.mean_jct),
            f(m.p95_jct),
            format!("{:.1}%", m.mean_utilization * 100.0),
        ]);
    }
    print!("{}", t.render());

    banner("E10 sweep — 10 seeds, 5 jobs, 32 hosts");
    let seeds: Vec<u64> = (1..=10).collect();
    let mut t = Table::new(&["scheduler", "mean tardiness", "mean JCT", "best-on-seeds"]);
    for (name, tardiness, jct, wins) in exp::multijob_sweep(&seeds, 5, 32) {
        t.row(vec![
            name.to_string(),
            f(tardiness),
            f(jct),
            format!("{wins}/10"),
        ]);
    }
    print!("{}", t.render());
}

fn ablations() {
    banner("E11a — profiling-error sensitivity (Fig. 2 job)");
    let mut t = Table::new(&["gap error", "comp finish"]);
    for (err, finish) in exp::ablation_profile_error() {
        t.row(vec![format!("{:+.0}%", err * 100.0), f(finish)]);
    }
    print!("{}", t.render());

    banner("E11b — coordinator scheduling interval");
    let mut t = Table::new(&["interval", "decisions", "mean JCT"]);
    for (label, decisions, jct) in exp::ablation_interval(42) {
        t.row(vec![label, decisions.to_string(), f(jct)]);
    }
    print!("{}", t.render());

    banner("E11c — intra discipline: finish-early vs equalize");
    let mut t = Table::new(&["mode", "fig2 comp finish", "multijob tardiness"]);
    for (name, fig2, tardiness) in exp::ablation_intra(42) {
        t.row(vec![name.to_string(), f(fig2), f(tardiness)]);
    }
    print!("{}", t.render());

    banner("E11d — work-conserving backfill");
    let mut t = Table::new(&["setting", "mean JCT", "total tardiness"]);
    for (name, jct, tardiness) in exp::ablation_backfill(42) {
        t.row(vec![name.to_string(), f(jct), f(tardiness)]);
    }
    print!("{}", t.render());

    banner("E11f — inter-EchelonFlow ordering (total tardiness)");
    let (rows, sweep) = exp::ablation_inter_order(13, 1..=20);
    let mut t = Table::new(&["ordering", "total tardiness"]);
    for (name, tardiness) in rows {
        t.row(vec![name.to_string(), f(tardiness)]);
    }
    print!("{}", t.render());
    println!("\nseeds 1-20 of the same mix (ties within 1e-9 relative):");
    let mut t = Table::new(&["ordering", "best or tied", "strictly best"]);
    for (name, tied, best) in sweep {
        t.row(vec![
            name.to_string(),
            format!("{tied}/20"),
            format!("{best}/20"),
        ]);
    }
    print!("{}", t.render());

    banner("E11e — priority-queue enforcement fidelity");
    let mut t = Table::new(&["enforcement", "makespan"]);
    for (label, makespan) in exp::ablation_queues() {
        t.row(vec![label, f(makespan)]);
    }
    print!("{}", t.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_documented_name_resolves_and_no_other() {
        let documented: Vec<&str> = include_str!("repro.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! repro "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert_eq!(documented.len(), EXPERIMENTS.len() + 1, "{documented:?}");
        for name in &documented {
            assert!(select(name).is_some(), "`repro {name}` does not resolve");
        }
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        assert!(select("bogus").is_none());
    }
}
