//! Multi-tenant cluster comparison — the evaluation the paper implies.
//!
//! Part 1 (closed loop): generates a seeded mixed-paradigm workload
//! (DP, PS, GPipe, 1F1B, TP, FSDP) with Poisson arrivals on a shared
//! big-switch fabric and runs it under every scheduler, reporting the
//! paper's objective (total EchelonFlow tardiness, Eq. 4) alongside job
//! completion times and utilization.
//!
//! Part 2 (open loop): runs the same paradigm mix as a *service* — jobs
//! stream in through the admission gate and are placed on free hosts
//! when admitted, tiered tenants carry tardiness SLOs, completed jobs
//! are evicted from the scheduler book — and reports steady-state
//! throughput, tail JCT/tardiness, and per-tier SLO violation rates.
//! Every streamed run is replayed under a coordinator that never evicts
//! and the completion digests are asserted bit-identical.
//!
//! Run with: `cargo run --example multi_tenant_cluster`

use echelonflow::cluster::metrics::steady_state_metrics;
use echelonflow::cluster::placement::PlacementPolicy;
use echelonflow::cluster::scenario::{Scenario, SchedulerKind};
use echelonflow::cluster::service::{run_service, service_parts, ServiceConfig, ServiceMode};
use echelonflow::cluster::workload::{OpenLoopConfig, WorkloadConfig};
use echelonflow::simnet::fault::FaultPlan;
use echelonflow::simnet::topology::Topology;

fn main() {
    let mut cfg = WorkloadConfig::default_mix(42, 6, 32);
    cfg.placement = PlacementPolicy::Scattered { seed: 1 };

    println!("multi-tenant cluster: 6 mixed-paradigm jobs on 32 hosts (seed 42)\n");
    let scenario = Scenario::generate(&cfg);
    for j in &scenario.jobs {
        println!(
            "  {:?} {:<12} arrives {:>6.2}  workers {:?}",
            j.dag.job,
            format!("{:?}", j.kind),
            j.arrival,
            j.placement
        );
    }

    println!(
        "\n{:<10} {:>16} {:>10} {:>10} {:>12}",
        "scheduler", "total tardiness", "mean JCT", "p95 JCT", "utilization"
    );
    println!("{}", "-".repeat(64));
    for kind in SchedulerKind::ALL {
        let (_, m) = scenario.run(kind, &FaultPlan::empty());
        println!(
            "{:<10} {:>16.3} {:>10.3} {:>10.3} {:>11.1}%",
            kind.name(),
            m.total_tardiness,
            m.mean_jct,
            m.p95_jct,
            m.mean_utilization * 100.0
        );
    }
    println!("\nlower tardiness/JCT is better; echelon should lead on pipeline-heavy mixes");

    // ---------------------------------------------------------------
    // Open loop: the same mix offered as a streaming service.
    let cfg = OpenLoopConfig::default_tiers(42, 40, 16, 1.5);
    let topo = Topology::big_switch_uniform(cfg.hosts, 1.0);
    println!(
        "\nopen-loop service: {} jobs streaming onto {} hosts (Poisson, mean gap {:.1})",
        cfg.jobs, cfg.hosts, 1.5
    );
    println!(
        "{:<10} {:>10} {:>9} {:>9} {:>9}  SLO violations/tier",
        "scheduler", "throughput", "p50 JCT", "p99 JCT", "peak book"
    );
    println!("{}", "-".repeat(78));
    for kind in [
        SchedulerKind::Fair,
        SchedulerKind::Coflow,
        SchedulerKind::Echelon,
    ] {
        let run = |mode| {
            let (feed, mut policy) =
                service_parts(&topo, &cfg, &ServiceConfig::default(), kind, mode);
            run_service(&topo, feed, &mut policy, &FaultPlan::empty())
        };
        let open = run(ServiceMode::Streaming);
        let closed = run(ServiceMode::Materialized);
        assert_eq!(
            open.digest, closed.digest,
            "open-loop stream must replay bit-identically closed-loop"
        );
        let m = steady_state_metrics(&open.records, &open.result, &cfg.tenants, 6.0);
        let slo: Vec<String> = m
            .tenants
            .iter()
            .map(|t| format!("{} {:.0}%", t.name, t.violation_rate * 100.0))
            .collect();
        println!(
            "{:<10} {:>10.3} {:>9.3} {:>9.3} {:>9}  {}",
            kind.name(),
            m.throughput,
            m.p50_jct,
            m.p99_jct,
            open.peak_book_occupancy,
            slo.join(", ")
        );
    }
    println!("\nevery streamed row replayed closed-loop with a bit-identical digest");
}
