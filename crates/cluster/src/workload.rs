//! Seeded random multi-tenant workloads.
//!
//! Generates a stream of training jobs — Poisson arrivals, a configurable
//! paradigm mix, randomized model sizes in the comm-matters regime — and
//! compiles each into a [`JobDag`] with its arrival gated: every worker
//! idles and every flow waits until the job's arrival time.

use crate::placement::{place_jobs_on, placer_for, PlacementPolicy};
use echelon_core::JobId;
use echelon_detrand::DetRng;
use echelon_paradigms::config::{DpConfig, FsdpConfig, PpConfig, TpConfig};
use echelon_paradigms::dag::{CompKind, CompUnit, JobDag};
use echelon_paradigms::dp::{build_dp_allreduce, build_dp_ps};
use echelon_paradigms::fsdp::build_fsdp;
use echelon_paradigms::hybrid::{build_hybrid, HybridConfig};
use echelon_paradigms::ids::{CompId, IdAlloc};
use echelon_paradigms::pp::{build_pp_1f1b, build_pp_gpipe};
use echelon_paradigms::profiler::profile_gaps;
use echelon_paradigms::tp::build_tp;
use echelon_simnet::ids::NodeId;
use echelon_simnet::topology::Topology;

/// Label used for arrival-gate units so metrics can exclude them from
/// busy-time accounting.
pub const ARRIVAL_LABEL: &str = "ARRIVAL";

/// The training paradigms a workload can mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParadigmKind {
    /// Data parallelism with ring all-reduce.
    DpAllReduce,
    /// Data parallelism with a parameter server.
    DpPs,
    /// GPipe pipeline parallelism.
    PpGpipe,
    /// 1F1B pipeline parallelism.
    Pp1f1b,
    /// Megatron tensor parallelism.
    Tp,
    /// ZeRO/FSDP.
    Fsdp,
    /// Hybrid data + pipeline parallelism (2 replicas × 2 stages).
    Hybrid,
}

/// Workload generation parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Master seed: identical configs produce identical workloads.
    pub seed: u64,
    /// Number of jobs.
    pub jobs: usize,
    /// Cluster size (hosts on the big switch).
    pub hosts: usize,
    /// Mean of the exponential inter-arrival time (Poisson arrivals).
    pub mean_interarrival: f64,
    /// Paradigm mix with relative weights.
    pub mix: Vec<(ParadigmKind, f64)>,
    /// GPU placement policy.
    pub placement: PlacementPolicy,
    /// Training iterations per job.
    pub iterations: usize,
}

impl WorkloadConfig {
    /// A small default mix exercising every paradigm.
    pub fn default_mix(seed: u64, jobs: usize, hosts: usize) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            jobs,
            hosts,
            mean_interarrival: 2.0,
            mix: vec![
                (ParadigmKind::DpAllReduce, 1.0),
                (ParadigmKind::DpPs, 1.0),
                (ParadigmKind::PpGpipe, 1.0),
                (ParadigmKind::Pp1f1b, 1.0),
                (ParadigmKind::Tp, 1.0),
                (ParadigmKind::Fsdp, 1.0),
                (ParadigmKind::Hybrid, 1.0),
            ],
            placement: PlacementPolicy::Packed,
            iterations: 1,
        }
    }
}

/// One generated job: its DAG (arrival-gated) and metadata.
#[derive(Debug, Clone)]
pub struct GeneratedJob {
    /// The compiled, arrival-gated DAG.
    pub dag: JobDag,
    /// Paradigm used.
    pub kind: ParadigmKind,
    /// Arrival time.
    pub arrival: f64,
    /// Hosts assigned.
    pub placement: Vec<NodeId>,
}

fn pick_kind(rng: &mut DetRng, mix: &[(ParadigmKind, f64)]) -> ParadigmKind {
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    assert!(total > 0.0, "paradigm mix has zero total weight");
    let mut x = rng.f64_range(0.0, total);
    for &(kind, w) in mix {
        if x < w {
            return kind;
        }
        x -= w;
    }
    mix.last().unwrap().0
}

/// Hosts a paradigm instance needs given a sampled worker count.
pub fn hosts_needed(kind: ParadigmKind, workers: usize) -> usize {
    match kind {
        ParadigmKind::DpPs => workers + 1, // plus the PS node
        ParadigmKind::Hybrid => 4,         // 2 replicas × 2 stages
        _ => workers,
    }
}

/// Delays a job's start to `arrival`: inserts an arrival-gate unit at the
/// front of every worker's program and gates every dependency-free
/// communication unit on those gates.
pub fn delay_start(mut dag: JobDag, arrival: f64, alloc: &mut IdAlloc) -> JobDag {
    assert!(
        arrival >= 0.0 && arrival.is_finite(),
        "bad arrival {arrival}"
    );
    if arrival == 0.0 {
        return dag;
    }
    // Gate every participant: not just workers with computation programs,
    // but also hosts that appear only as flow endpoints (e.g. a sink that
    // receives a broadcast without computing). Those have no `programs`
    // entry yet — indexing with `get_mut(..).unwrap()` panicked on them —
    // so materialize one holding only the gate. Gates take ids in host
    // order, so every host gets its program entry first.
    let mut endpoint_only = Vec::new();
    for comm in dag.comms.values() {
        for f in comm.flows() {
            for host in [f.src, f.dst] {
                if !dag.programs.contains_key(&host) {
                    endpoint_only.push(host);
                }
            }
        }
    }
    for host in endpoint_only {
        dag.programs.entry(host).or_default();
    }
    // The allocator issues ids in sequence, so the gates hold one range.
    let mut gates = 0..0;
    for (&worker, program) in dag.programs.iter_mut() {
        let id = alloc.next_comp();
        if gates.is_empty() {
            gates.start = id.0;
        }
        gates.end = id.0 + 1;
        dag.comps.insert(
            id,
            CompUnit {
                id,
                worker,
                duration: arrival,
                kind: CompKind::Generic,
                label: ARRIVAL_LABEL.into(),
                deps_comp: vec![],
                deps_comm: vec![],
            },
        );
        program.insert(0, id);
    }
    for comm in dag.comms.values_mut() {
        if comm.deps_comp.is_empty() && comm.deps_comm.is_empty() {
            comm.deps_comp.extend(gates.clone().map(CompId));
        }
    }
    dag
}

/// Perturbs every computation unit's duration by a uniform factor in
/// `[1 − frac, 1 + frac]` while leaving the declared EchelonFlow
/// arrangements (the "profiled" distances) untouched.
///
/// This models the paper's §5 caveat about GPU sharing: without perfect
/// performance isolation, realized computation times drift from the
/// profile the arrangement functions were built from. The jitter
/// experiment measures how gracefully each scheduler degrades.
///
/// # Panics
///
/// Panics unless `0 ≤ frac < 1`.
pub fn apply_compute_jitter(dag: &mut JobDag, frac: f64, rng: &mut DetRng) {
    assert!(
        (0.0..1.0).contains(&frac),
        "jitter fraction out of range: {frac}"
    );
    for comp in dag.comps.values_mut() {
        if comp.duration > 0.0 {
            let factor = 1.0 + rng.f64_range_inclusive(-frac, frac);
            comp.duration *= factor;
        }
    }
}

/// Generates a deterministic workload from `cfg`, drawing ids from
/// `alloc` (share one allocator across everything in a simulation).
/// Placement runs against a flat big-switch pool; use
/// [`generate_workload_on`] when the fabric's pod structure should
/// steer it.
///
/// # Panics
///
/// Panics if the sampled jobs need more hosts than the cluster has.
pub fn generate_workload(cfg: &WorkloadConfig, alloc: &mut IdAlloc) -> Vec<GeneratedJob> {
    generate_workload_impl(cfg, None, alloc)
}

/// [`generate_workload`] with placement steered by `topo`: pod-aware
/// policies see the fabric's pod partition and contention-aware ones its
/// routes. The sampled jobs (kinds, sizes, arrivals) are identical to
/// the flat variant — only host assignment differs.
///
/// # Panics
///
/// Panics if the sampled jobs need more hosts than the cluster has.
pub fn generate_workload_on(
    cfg: &WorkloadConfig,
    topo: &Topology,
    alloc: &mut IdAlloc,
) -> Vec<GeneratedJob> {
    generate_workload_impl(cfg, Some(topo), alloc)
}

/// Compiles one sampled job into its [`JobDag`] — the single shared
/// frontend used by the batch generator and, at admission, by the
/// open-loop service feed. `hosts` must have exactly [`hosts_needed`]
/// entries for `kind`; the DAG is ungated (its arrival is enforced by
/// the service feed's admission, or by [`delay_start`] in the
/// closed-loop batch).
pub fn compile_job(
    job: JobId,
    kind: ParadigmKind,
    hosts: &[NodeId],
    comp_scale: f64,
    bytes_scale: f64,
    iterations: usize,
    alloc: &mut IdAlloc,
) -> JobDag {
    let c = comp_scale;
    let by = bytes_scale;
    match kind {
        ParadigmKind::DpAllReduce => build_dp_allreduce(
            job,
            &DpConfig {
                placement: hosts.to_vec(),
                ps: None,
                bucket_bytes: vec![2.0 * by; 2],
                fwd_time: c,
                bwd_time_per_bucket: 0.5 * c,
                iterations,
            },
            alloc,
        ),
        ParadigmKind::DpPs => {
            let (workers, ps) = hosts.split_at(hosts.len() - 1);
            build_dp_ps(
                job,
                &DpConfig {
                    placement: workers.to_vec(),
                    ps: Some(ps[0]),
                    bucket_bytes: vec![2.0 * by; 2],
                    fwd_time: c,
                    bwd_time_per_bucket: 0.5 * c,
                    iterations,
                },
                alloc,
            )
        }
        ParadigmKind::PpGpipe => build_pp_gpipe(
            job,
            &PpConfig {
                placement: hosts.to_vec(),
                micro_batches: 4,
                fwd_time: 0.5 * c,
                bwd_time: 0.5 * c,
                activation_bytes: by,
                iterations,
            },
            alloc,
        ),
        ParadigmKind::Pp1f1b => build_pp_1f1b(
            job,
            &PpConfig {
                placement: hosts.to_vec(),
                micro_batches: 4,
                fwd_time: 0.5 * c,
                bwd_time: 0.5 * c,
                activation_bytes: by,
                iterations,
            },
            alloc,
        ),
        ParadigmKind::Tp => build_tp(
            job,
            &TpConfig {
                placement: hosts.to_vec(),
                layers: 2,
                fwd_time_per_layer: 0.5 * c,
                bwd_time_per_layer: 0.5 * c,
                activation_bytes: by,
                iterations,
            },
            alloc,
        ),
        ParadigmKind::Hybrid => build_hybrid(
            job,
            &HybridConfig {
                replicas: vec![hosts[0..2].to_vec(), hosts[2..4].to_vec()],
                micro_batches: 3,
                fwd_time: 0.5 * c,
                bwd_time: 0.5 * c,
                activation_bytes: by,
                stage_grad_bytes: by,
                iterations,
            },
            alloc,
        ),
        ParadigmKind::Fsdp => build_fsdp(
            job,
            &FsdpConfig {
                placement: hosts.to_vec(),
                layers: 3,
                shard_bytes: 0.5 * by,
                layer_shard_bytes: None,
                fwd_time_per_layer: 0.5 * c,
                bwd_time_per_layer: 0.5 * c,
                iterations,
            },
            alloc,
        ),
    }
}

/// Profiles a job spec's communication period: compiles the job onto
/// canonical hosts `0..demand` with a private id allocator (so probes
/// never perturb the caller's id sequence) and runs it uncontended
/// ([`profile_gaps`]). The backward-phase gap is the CASSINI-style
/// period; forward gap and uncontended makespan are the fallbacks for
/// jobs without one.
pub fn probe_phase_gap(
    kind: ParadigmKind,
    demand: usize,
    comp_scale: f64,
    bytes_scale: f64,
    iterations: usize,
) -> f64 {
    let hosts: Vec<NodeId> = (0..demand as u32).map(NodeId).collect();
    let mut probe_alloc = IdAlloc::new();
    let dag = compile_job(
        JobId(0),
        kind,
        &hosts,
        comp_scale,
        bytes_scale,
        iterations,
        &mut probe_alloc,
    );
    let report = profile_gaps(&dag, demand);
    report
        .mean_bwd_gap()
        .or_else(|| report.mean_fwd_gap())
        .unwrap_or(report.uncontended_makespan)
}

fn generate_workload_impl(
    cfg: &WorkloadConfig,
    topo: Option<&Topology>,
    alloc: &mut IdAlloc,
) -> Vec<GeneratedJob> {
    assert!(cfg.jobs >= 1, "need at least one job");
    let mut rng = DetRng::seed_from_u64(cfg.seed);

    // Sample paradigm, size, and arrival per job first so placement can
    // see total demand.
    struct Draft {
        kind: ParadigmKind,
        workers: usize,
        arrival: f64,
        comp_scale: f64,
        bytes_scale: f64,
    }
    let mut drafts = Vec::with_capacity(cfg.jobs);
    let mut t = 0.0;
    for _ in 0..cfg.jobs {
        let kind = pick_kind(&mut rng, &cfg.mix);
        let workers = match kind {
            // Pipelines stay small so 1F1B's micro-batch bound holds.
            ParadigmKind::PpGpipe | ParadigmKind::Pp1f1b => rng.usize_range_inclusive(2, 3),
            _ => rng.usize_range_inclusive(2, 4),
        };
        // Poisson arrivals by inverse transform.
        let u: f64 = rng.f64_range(1e-12, 1.0);
        t += -u.ln() * cfg.mean_interarrival;
        drafts.push(Draft {
            kind,
            workers,
            arrival: t,
            comp_scale: rng.f64_range(0.5, 2.0),
            bytes_scale: rng.f64_range(0.5, 2.0),
        });
    }

    let demands: Vec<usize> = drafts
        .iter()
        .map(|d| hosts_needed(d.kind, d.workers))
        .collect();
    // Phase-aware placement profiles each spec uncontended first; other
    // policies skip the probe runs entirely.
    let phase_gaps: Vec<Option<f64>> = if placer_for(cfg.placement).wants_phase_gap() {
        drafts
            .iter()
            .zip(&demands)
            .map(|(d, &need)| {
                Some(probe_phase_gap(
                    d.kind,
                    need,
                    d.comp_scale,
                    d.bytes_scale,
                    cfg.iterations,
                ))
            })
            .collect()
    } else {
        Vec::new()
    };
    let flat;
    let topo = match topo {
        Some(t) => t,
        None => {
            flat = Topology::big_switch_uniform(cfg.hosts, 1.0);
            &flat
        }
    };
    let placements = place_jobs_on(cfg.placement, cfg.hosts, &demands, topo, &phase_gaps)
        .unwrap_or_else(|e| panic!("{e} (the closed-loop generator places all jobs up front)"));

    let mut jobs = Vec::with_capacity(cfg.jobs);
    for (i, (draft, hosts)) in drafts.into_iter().zip(placements).enumerate() {
        let job = JobId(i as u32);
        let dag = compile_job(
            job,
            draft.kind,
            &hosts,
            draft.comp_scale,
            draft.bytes_scale,
            cfg.iterations,
            alloc,
        );
        jobs.push(GeneratedJob {
            dag: delay_start(dag, draft.arrival, alloc),
            kind: draft.kind,
            arrival: draft.arrival,
            placement: hosts,
        });
    }
    jobs
}

/// One tenant tier of an open-loop workload: jobs drawn to the tier
/// inherit its admission priority (tiers scan in declaration order) and
/// its tardiness SLO.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name of the tier.
    pub name: String,
    /// Relative weight in the per-job tenant draw.
    pub weight: f64,
    /// Per-job tardiness budget: a finished job whose summed EchelonFlow
    /// tardiness exceeds this violates the tier's SLO. `None` means the
    /// tier carries no SLO at all (best-effort batch work) — such a
    /// tenant can never register a violation.
    pub slo_tardiness: Option<f64>,
}

/// How an open-loop service assigns hosts to jobs: at admission, by a
/// [`PlacementPolicy`] over whatever hosts are free then. The stream
/// emits job specs without hosts or DAGs, and the service feed places
/// and compiles each job once it admits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicePlacement {
    /// Hosts chosen by the policy at admission time.
    AtAdmission(PlacementPolicy),
}

/// Configuration of an open-loop job stream ([`JobStream`]).
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Master seed: identical configs produce identical streams.
    pub seed: u64,
    /// Jobs in the stream (the bounded-horizon termination condition:
    /// the service drains once this many have been offered).
    pub jobs: usize,
    /// Cluster size: the service places jobs on hosts `0..hosts`, and a
    /// job that needs more is rejected at arrival.
    pub hosts: usize,
    /// Mean gap between Poisson arrivals (exponential gaps by inverse
    /// transform).
    pub mean_interarrival: f64,
    /// Paradigm mix with relative weights.
    pub mix: Vec<(ParadigmKind, f64)>,
    /// Tenant tiers (admission scans them in declaration order). Must be
    /// non-empty.
    pub tenants: Vec<TenantSpec>,
    /// Training iterations per job.
    pub iterations: usize,
    /// The admission-time placement policy.
    pub placement: ServicePlacement,
}

impl OpenLoopConfig {
    /// A three-tier mix (prod with a tight SLO, standard with a loose
    /// one, SLO-less batch) over every paradigm, placed pod-packed at
    /// admission (packed on a fabric without pods).
    pub fn default_tiers(
        seed: u64,
        jobs: usize,
        hosts: usize,
        mean_interarrival: f64,
    ) -> OpenLoopConfig {
        OpenLoopConfig {
            seed,
            jobs,
            hosts,
            mean_interarrival,
            mix: WorkloadConfig::default_mix(seed, jobs, hosts).mix,
            tenants: vec![
                TenantSpec {
                    name: "prod".to_string(),
                    weight: 1.0,
                    slo_tardiness: Some(2.0),
                },
                TenantSpec {
                    name: "standard".to_string(),
                    weight: 2.0,
                    slo_tardiness: Some(8.0),
                },
                TenantSpec {
                    name: "batch".to_string(),
                    weight: 1.0,
                    slo_tardiness: None,
                },
            ],
            iterations: 1,
            placement: ServicePlacement::AtAdmission(PlacementPolicy::PodPacked),
        }
    }
}

/// One job spec emitted by a [`JobStream`]: what to run, not where. The
/// service feed places it and compiles its DAG at admission.
#[derive(Debug, Clone)]
pub struct StreamJob {
    /// Job id.
    pub job: JobId,
    /// Paradigm used.
    pub kind: ParadigmKind,
    /// Arrival time.
    pub arrival: f64,
    /// Index into [`OpenLoopConfig::tenants`].
    pub tenant: usize,
    /// Hosts the job needs ([`hosts_needed`]).
    pub demand: usize,
    /// Computation-time scale drawn for this job.
    pub comp_scale: f64,
    /// Flow-bytes scale drawn for this job.
    pub bytes_scale: f64,
}

fn pick_tenant(rng: &mut DetRng, tenants: &[TenantSpec]) -> usize {
    let total: f64 = tenants.iter().map(|t| t.weight).sum();
    assert!(total > 0.0, "tenant mix has zero total weight");
    let mut x = rng.f64_range(0.0, total);
    for (i, t) in tenants.iter().enumerate() {
        if x < t.weight {
            return i;
        }
        x -= t.weight;
    }
    tenants.len() - 1
}

/// A lazy, seeded job generator for open-loop service runs: each call to
/// [`Iterator::next`] samples exactly one job spec, and the stream keeps
/// none of them. It draws no hosts and issues no unit ids: the service
/// feed places each job from the free set and compiles it, with its own
/// id allocator, when it admits it. Generation therefore never depends
/// on simulation state.
#[derive(Debug)]
pub struct JobStream {
    cfg: OpenLoopConfig,
    rng: DetRng,
    t: f64,
    emitted: usize,
}

impl JobStream {
    /// Starts the stream described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.tenants` or the mix is empty.
    pub fn new(cfg: OpenLoopConfig) -> JobStream {
        assert!(!cfg.tenants.is_empty(), "open-loop config needs tenants");
        assert!(!cfg.mix.is_empty(), "open-loop config needs a paradigm mix");
        let rng = DetRng::seed_from_u64(cfg.seed);
        JobStream {
            cfg,
            rng,
            t: 0.0,
            emitted: 0,
        }
    }
}

impl Iterator for JobStream {
    type Item = StreamJob;

    fn next(&mut self) -> Option<StreamJob> {
        if self.emitted == self.cfg.jobs {
            return None;
        }
        let job = JobId(self.emitted as u32);
        self.emitted += 1;
        // Draw order is part of the determinism contract: kind, workers,
        // arrival gap, comp scale, bytes scale, tenant.
        let kind = pick_kind(&mut self.rng, &self.cfg.mix);
        let workers = match kind {
            ParadigmKind::PpGpipe | ParadigmKind::Pp1f1b => self.rng.usize_range_inclusive(2, 3),
            _ => self.rng.usize_range_inclusive(2, 4),
        };
        let u: f64 = self.rng.f64_range(1e-12, 1.0);
        self.t += -u.ln() * self.cfg.mean_interarrival;
        let comp_scale = self.rng.f64_range(0.5, 2.0);
        let bytes_scale = self.rng.f64_range(0.5, 2.0);
        let tenant = pick_tenant(&mut self.rng, &self.cfg.tenants);
        Some(StreamJob {
            job,
            kind,
            arrival: self.t,
            tenant,
            demand: hosts_needed(kind, workers),
            comp_scale,
            bytes_scale,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echelon_paradigms::runtime::run_jobs;
    use echelon_simnet::runner::{MaxMinPolicy, RunConfig};
    use echelon_simnet::time::SimTime;
    use echelon_simnet::topology::Topology;

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig::default_mix(42, 4, 24);
        let a = generate_workload(&cfg, &mut IdAlloc::new());
        let b = generate_workload(&cfg, &mut IdAlloc::new());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.placement, y.placement);
            assert_eq!(x.dag.all_flows().len(), y.dag.all_flows().len());
        }
    }

    #[test]
    fn arrivals_are_increasing() {
        let cfg = WorkloadConfig::default_mix(7, 5, 32);
        let jobs = generate_workload(&cfg, &mut IdAlloc::new());
        for w in jobs.windows(2) {
            assert!(w[0].arrival < w[1].arrival);
        }
    }

    #[test]
    fn delay_start_gates_computation_and_flows() {
        let cfg = WorkloadConfig::default_mix(3, 2, 16);
        let mut alloc = IdAlloc::new();
        let jobs = generate_workload(&cfg, &mut alloc);
        let topo = Topology::big_switch_uniform(16, 1.0);
        let dags: Vec<&_> = jobs.iter().map(|j| &j.dag).collect();
        let out = run_jobs(&topo, &dags, &mut MaxMinPolicy, &RunConfig::default());
        for j in &jobs {
            // No flow of the job releases before its arrival.
            for f in j.dag.all_flows() {
                let rel = out.flow_releases[&f.id];
                assert!(
                    SimTime::new(j.arrival).at_or_before(rel),
                    "flow released at {rel:?} before arrival {}",
                    j.arrival
                );
            }
        }
    }

    #[test]
    fn delay_start_handles_comm_only_endpoint() {
        use echelon_core::arrangement::ArrangementFn;
        use echelon_paradigms::dag::DagBuilder;

        // NodeId(1) receives a flow but runs no computation: it has no
        // `programs` entry until `delay_start` materializes its gate (the
        // old `get_mut(..).unwrap()` panicked here).
        let mut alloc = IdAlloc::new();
        let mut b = DagBuilder::new(JobId(0), &mut alloc);
        let f = b.comp(NodeId(0), 1.0, CompKind::Generic, "W", &[], &[]);
        let send = b.comm_op(
            &echelon_collectives::CollectiveOp::P2p {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1.0,
            },
            echelon_collectives::Style::Direct,
            &[f],
            &[],
        );
        let flows: Vec<_> = b.comms()[&send].flows().copied().collect();
        b.declare_echelon(vec![flows.clone()], ArrangementFn::Coflow);
        b.declare_coflow(flows);
        let dag = b.build();
        assert!(!dag.programs.contains_key(&NodeId(1)));

        let gated = delay_start(dag, 2.0, &mut alloc);
        // The sink got a program holding exactly its arrival gate.
        let program = &gated.programs[&NodeId(1)];
        assert_eq!(program.len(), 1);
        assert_eq!(gated.comps[&program[0]].label.to_string(), ARRIVAL_LABEL);

        // And the gated job still runs, with no flow before arrival.
        let topo = Topology::big_switch_uniform(2, 1.0);
        let out = run_jobs(&topo, &[&gated], &mut MaxMinPolicy, &RunConfig::default());
        for f in gated.all_flows() {
            assert!(SimTime::new(2.0).at_or_before(out.flow_releases[&f.id]));
        }
    }

    #[test]
    fn workload_runs_under_fair_sharing() {
        let cfg = WorkloadConfig::default_mix(11, 6, 32);
        let mut alloc = IdAlloc::new();
        let jobs = generate_workload(&cfg, &mut alloc);
        let topo = Topology::big_switch_uniform(32, 1.0);
        let dags: Vec<&_> = jobs.iter().map(|j| &j.dag).collect();
        let out = run_jobs(&topo, &dags, &mut MaxMinPolicy, &RunConfig::default());
        assert_eq!(out.job_makespans.len(), 6);
    }

    #[test]
    fn jitter_perturbs_durations_not_arrangements() {
        let cfg = WorkloadConfig::default_mix(3, 2, 16);
        let mut alloc = IdAlloc::new();
        let mut jobs = generate_workload(&cfg, &mut alloc);
        let before: Vec<f64> = jobs[0].dag.comps.values().map(|c| c.duration).collect();
        let arr_before: Vec<_> = jobs[0]
            .dag
            .echelons
            .iter()
            .map(|h| h.arrangement().clone())
            .collect();
        let mut rng = DetRng::seed_from_u64(9);
        apply_compute_jitter(&mut jobs[0].dag, 0.3, &mut rng);
        let after: Vec<f64> = jobs[0].dag.comps.values().map(|c| c.duration).collect();
        assert_ne!(before, after);
        for (b, a) in before.iter().zip(&after) {
            if *b > 0.0 {
                assert!((a / b - 1.0).abs() <= 0.3 + 1e-9);
            } else {
                assert_eq!(a, b);
            }
        }
        let arr_after: Vec<_> = jobs[0]
            .dag
            .echelons
            .iter()
            .map(|h| h.arrangement().clone())
            .collect();
        assert_eq!(arr_before, arr_after);
    }

    #[test]
    #[should_panic(expected = "placement needs")]
    fn too_small_cluster_rejected() {
        let cfg = WorkloadConfig::default_mix(1, 8, 4);
        let _ = generate_workload(&cfg, &mut IdAlloc::new());
    }
}
