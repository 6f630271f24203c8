//! Pinned digests of the job compile path: what `compile_job` builds for
//! every paradigm and width, and what `generate_workload_on` builds with
//! the `echelon-dag` benchmark configuration. The digests fold public
//! fields and accessors only — comps, comms with their stages and flows,
//! programs, EchelonFlows (id, job, weight, stages, the flow→stage
//! index, arrangement) and coflows — so the builders' internal tables
//! can change shape, but any change to what they produce moves a digest.

use echelonflow::cluster::placement::PlacementPolicy;
use echelonflow::cluster::workload::{
    compile_job, generate_workload_on, hosts_needed, ParadigmKind, WorkloadConfig,
};
use echelonflow::core::arrangement::ArrangementFn;
use echelonflow::core::echelon::FlowRef;
use echelonflow::core::JobId;
use echelonflow::paradigms::dag::{CompKind, JobDag};
use echelonflow::paradigms::ids::IdAlloc;
use echelonflow::simnet::fattree::FatTree;
use echelonflow::simnet::ids::NodeId;

/// FNV-1a over 64-bit words.
struct Fold(u64);

impl Fold {
    fn new() -> Fold {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn f64(&mut self, x: f64) {
        self.eat(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.eat(s.len() as u64);
        for b in s.bytes() {
            self.eat(b as u64);
        }
    }

    fn flow(&mut self, f: &FlowRef) {
        self.eat(f.id.0);
        self.eat(f.src.0 as u64);
        self.eat(f.dst.0 as u64);
        self.f64(f.size);
    }

    fn arrangement(&mut self, a: &ArrangementFn) {
        match a {
            ArrangementFn::Coflow => self.eat(1),
            ArrangementFn::Staggered { gap } => {
                self.eat(2);
                self.f64(*gap);
            }
            ArrangementFn::Phased {
                fwd_gap,
                bwd_gap,
                fwd_count,
            } => {
                self.eat(3);
                self.f64(*fwd_gap);
                self.f64(*bwd_gap);
                self.eat(*fwd_count as u64);
            }
            ArrangementFn::Offsets(offsets) => {
                self.eat(4);
                self.eat(offsets.len() as u64);
                offsets.iter().for_each(|&o| self.f64(o));
            }
        }
    }

    fn dag(&mut self, dag: &JobDag) {
        self.eat(dag.job.0 as u64);
        self.eat(dag.comps.len() as u64);
        for (id, c) in &dag.comps {
            self.eat(id.0);
            self.eat(c.id.0);
            self.eat(c.worker.0 as u64);
            self.f64(c.duration);
            self.eat(match c.kind {
                CompKind::Forward => 1,
                CompKind::Backward => 2,
                CompKind::Update => 3,
                CompKind::Generic => 4,
            });
            self.str(&c.label.to_string());
            self.eat(c.deps_comp.len() as u64);
            c.deps_comp.iter().for_each(|d| self.eat(d.0));
            self.eat(c.deps_comm.len() as u64);
            c.deps_comm.iter().for_each(|d| self.eat(d.0));
        }
        self.eat(dag.comms.len() as u64);
        for (id, c) in &dag.comms {
            self.eat(id.0);
            self.eat(c.id.0);
            self.str(c.name);
            self.eat(c.stages.len() as u64);
            for s in &c.stages {
                self.eat(s.step as u64);
                self.eat(s.flows.len() as u64);
                s.flows.iter().for_each(|f| self.flow(f));
            }
            self.eat(c.deps_comp.len() as u64);
            c.deps_comp.iter().for_each(|d| self.eat(d.0));
            self.eat(c.deps_comm.len() as u64);
            c.deps_comm.iter().for_each(|d| self.eat(d.0));
        }
        self.eat(dag.programs.len() as u64);
        for (worker, prog) in &dag.programs {
            self.eat(worker.0 as u64);
            self.eat(prog.len() as u64);
            prog.iter().for_each(|c| self.eat(c.0));
        }
        self.eat(dag.echelons.len() as u64);
        for h in &dag.echelons {
            self.eat(h.id().0);
            self.eat(h.job().0 as u64);
            self.f64(h.weight());
            self.eat(h.num_stages() as u64);
            self.eat(h.num_flows() as u64);
            for j in 0..h.num_stages() {
                self.eat(h.stage(j).len() as u64);
                for f in h.stage(j) {
                    self.flow(f);
                    self.eat(h.stage_of(f.id).map_or(u64::MAX, |s| s as u64));
                    self.eat(h.contains(f.id) as u64);
                }
            }
            self.arrangement(h.arrangement());
        }
        self.eat(dag.coflows.len() as u64);
        for c in &dag.coflows {
            self.eat(c.id().0);
            self.eat(c.job().0 as u64);
            self.f64(c.weight());
            self.eat(c.flows().len() as u64);
            c.flows().iter().for_each(|f| self.flow(f));
        }
    }
}

const KINDS: [ParadigmKind; 7] = [
    ParadigmKind::DpAllReduce,
    ParadigmKind::DpPs,
    ParadigmKind::PpGpipe,
    ParadigmKind::Pp1f1b,
    ParadigmKind::Tp,
    ParadigmKind::Fsdp,
    ParadigmKind::Hybrid,
];

/// `compile_job` over every kind × worker count 2–4 × iterations 1 and 2,
/// one allocator shared across all compiles (as a workload shares one),
/// folded per kind. Hybrid is always 2 replicas × 2 stages, so it
/// compiles once per iteration count.
#[test]
fn compile_job_matches_pinned_digests() {
    const PINS: [(ParadigmKind, u64); 7] = [
        (ParadigmKind::DpAllReduce, 0x32ad_b421_58e7_25f4),
        (ParadigmKind::DpPs, 0x7497_c68e_ebf8_0c04),
        (ParadigmKind::PpGpipe, 0x12bc_802b_1d03_7ca6),
        (ParadigmKind::Pp1f1b, 0x0f7b_58f6_6bd0_7d70),
        (ParadigmKind::Tp, 0xaffd_9398_6c43_f4e5),
        (ParadigmKind::Fsdp, 0x6edd_0841_6021_d255),
        (ParadigmKind::Hybrid, 0xdbad_36a6_61bf_f2b0),
    ];
    let mut alloc = IdAlloc::new();
    let mut moved = Vec::new();
    for (kind, pin) in PINS {
        let mut fold = Fold::new();
        let widths = if kind == ParadigmKind::Hybrid {
            4..=4
        } else {
            2..=4
        };
        for workers in widths {
            for iterations in 1..=2 {
                // Hosts spaced apart so endpoint ids are not just 0..n.
                let hosts: Vec<NodeId> = (0..hosts_needed(kind, workers) as u32)
                    .map(|h| NodeId(3 * h + 1))
                    .collect();
                let job = JobId(workers as u32 * 10 + iterations as u32);
                let dag = compile_job(job, kind, &hosts, 1.25, 0.75, iterations, &mut alloc);
                fold.dag(&dag);
            }
        }
        if fold.0 != pin {
            moved.push(format!("{kind:?}: {:#018x} (pinned {pin:#018x})", fold.0));
        }
    }
    assert!(
        moved.is_empty(),
        "compile digests moved:\n{}",
        moved.join("\n")
    );
}

/// `generate_workload_on` with the `echelon-dag` benchmark configuration
/// (200 jobs of the default mix, PodPacked on a 4:1 oversubscribed k=16
/// fat-tree) at seeds 1–3: kinds, arrivals, placements and the
/// arrival-gated DAGs.
#[test]
fn echelon_dag_workload_matches_pinned_digests() {
    const PINS: [(u64, u64); 3] = [
        (1, 0xcd8c_04fd_8b3e_d6bf),
        (2, 0xa788_28ee_857d_8ef5),
        (3, 0xf4b5_eb7e_097a_a524),
    ];
    let tree = FatTree::new(16).with_oversubscription(4.0);
    let topo = tree.build_fabric();
    let mut moved = Vec::new();
    for (seed, pin) in PINS {
        let mut cfg = WorkloadConfig::default_mix(seed, 200, tree.hosts());
        cfg.iterations = 1;
        cfg.mean_interarrival = 0.5;
        cfg.placement = PlacementPolicy::PodPacked;
        let jobs = generate_workload_on(&cfg, &topo, &mut IdAlloc::new());
        let mut fold = Fold::new();
        fold.eat(jobs.len() as u64);
        for j in &jobs {
            fold.eat(KINDS.iter().position(|&k| k == j.kind).unwrap() as u64);
            fold.f64(j.arrival);
            fold.eat(j.placement.len() as u64);
            j.placement.iter().for_each(|h| fold.eat(h.0 as u64));
            fold.dag(&j.dag);
        }
        if fold.0 != pin {
            moved.push(format!(
                "seed {seed}: {:#018x} (pinned {pin:#018x})",
                fold.0
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "workload digests moved:\n{}",
        moved.join("\n")
    );
}
