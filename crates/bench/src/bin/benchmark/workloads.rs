//! The five benchmark workloads: how each builds its inputs from a seed
//! (the set-up) and drives them to completion (the run).
//!
//! Every run is single-threaded and closed-loop at the process level
//! (runs go back to back); inside the simulation, arrivals are open-loop
//! in simulated time. The program under test sees only the generated
//! inputs. Why each workload exists, and which layer it stresses, is in
//! this directory's `README.md`.

use crate::traced::{FeedTrace, Interval, TracedFeed, TracedPolicy};
use echelon_agent::agent::EchelonAgent;
use echelon_agent::coordinator::{CoordinatedPolicy, Coordinator, CoordinatorConfig};
use echelon_cluster::metrics::echelon_tardiness_from_run;
use echelon_cluster::placement::{place_jobs_on, pods_spanned, PlacementPolicy};
use echelon_cluster::scenario::SchedulerKind;
use echelon_cluster::service::{
    completion_digest, LifecycleBus, ServiceConfig, ServiceFeed, ServicePolicy,
};
use echelon_cluster::workload::{
    generate_workload_on, GeneratedJob, OpenLoopConfig, ServicePlacement, WorkloadConfig,
};
use echelon_detrand::DetRng;
use echelon_paradigms::ids::IdAlloc;
use echelon_paradigms::runtime::{run_jobs_streamed, run_jobs_with, RunResult};
use echelon_simnet::driver::{DriveConfig, DriveStats};
use echelon_simnet::fattree::FatTree;
use echelon_simnet::fault::{FaultKind, FaultPlan};
use echelon_simnet::flow::FlowDemand;
use echelon_simnet::fluid::NextCompletionMode;
use echelon_simnet::ids::{FlowId, NodeId, ResourceId};
use echelon_simnet::runner::{
    run_flows_faulted_configured, FlowOutcomes, PodMaxMinPolicy, RatePolicy, RecomputeMode,
};
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PodBurst,
    CrosspodChurn,
    EchelonDag,
    ServiceSteady,
    ServiceOverload,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PodBurst,
        Workload::CrosspodChurn,
        Workload::EchelonDag,
        Workload::ServiceSteady,
        Workload::ServiceOverload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PodBurst => "pod-burst",
            Workload::CrosspodChurn => "crosspod-churn",
            Workload::EchelonDag => "echelon-dag",
            Workload::ServiceSteady => "service-steady",
            Workload::ServiceOverload => "service-overload",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size is what a measurement runs unless `--smoke` asks for smoke,
/// about a tenth of it, for a fast end-to-end check of the same code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }

    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// Fat-tree radix of the flow workloads and the DAG workload (1024 hosts).
const K_LARGE: usize = 16;
/// Fat-tree radix of the service workloads (128 hosts).
const K_SERVICE: usize = 8;
/// Share of `crosspod-churn` flows whose endpoints sit in different pods.
const CROSSPOD_SHARE: f64 = 0.10;
/// Degrade/restore pairs injected over `crosspod-churn`'s release span.
const CHURN_PAIRS: usize = 8;

/// What a workload hands to its run, built by [`setup`]. Built once per
/// run and moved straight into it, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    Flows {
        topo: Topology,
        demands: Vec<FlowDemand>,
        plan: FaultPlan,
        policy: PodMaxMinPolicy,
    },
    Dag {
        topo: Topology,
        cfg: WorkloadConfig,
        jobs: Vec<GeneratedJob>,
        policy: CoordinatedPolicy,
    },
    Service {
        topo: Topology,
        feed: ServiceFeed,
        policy: ServicePolicy,
        offered: usize,
    },
}

/// A stretch of wall-clock time.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub start: Instant,
    pub end: Instant,
}

impl Timed {
    fn since(start: Instant) -> Timed {
        Timed {
            start,
            end: Instant::now(),
        }
    }

    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// The same stretch on a trace clock that started at `epoch`.
    pub fn on(&self, epoch: Instant) -> Interval {
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        Interval {
            start_ns: ns(self.start),
            end_ns: ns(self.end),
        }
    }
}

/// How long building the inputs took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Whole set-up: topology, workload generation, placement, agent
    /// registration and policy build.
    pub whole: Timed,
    /// Workload generation (including placement on `echelon-dag`).
    pub generate: Timed,
    /// Agents reporting to the coordinator (`echelon-dag` only).
    pub register: Option<Timed>,
}

/// The seed of instance `i` of a measurement seeded with `seed`: runs of
/// one measurement draw fresh inputs, reproducibly.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    DetRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Builds `workload`'s inputs for `seed`. The same seed gives the same
/// inputs.
pub fn setup(workload: Workload, size: Size, seed: u64) -> (Inputs, SetupTimes) {
    let t0 = Instant::now();
    let mut register = None;
    let (inputs, generate) = match workload {
        Workload::PodBurst | Workload::CrosspodChurn => {
            let topo = FatTree::new(K_LARGE).build_fabric();
            let t = Instant::now();
            let (demands, plan) = if workload == Workload::PodBurst {
                (
                    pod_burst_demands(seed, size.pick(300, 30)),
                    FaultPlan::empty(),
                )
            } else {
                crosspod_churn_inputs(&topo, seed, size.pick(3_000, 300))
            };
            let generate = Timed::since(t);
            let policy = PodMaxMinPolicy::new().with_threads(1);
            let inputs = Inputs::Flows {
                topo,
                demands,
                plan,
                policy,
            };
            (inputs, generate)
        }
        Workload::EchelonDag => {
            let tree = FatTree::new(K_LARGE).with_oversubscription(4.0);
            let topo = tree.build_fabric();
            let mut cfg = WorkloadConfig::default_mix(seed, size.pick(200, 20), tree.hosts());
            cfg.iterations = 1;
            cfg.mean_interarrival = 0.5;
            cfg.placement = PlacementPolicy::PodPacked;
            let t = Instant::now();
            let jobs = generate_workload_on(&cfg, &topo, &mut IdAlloc::new());
            let generate = Timed::since(t);
            let t = Instant::now();
            let mut coordinator = Coordinator::new(CoordinatorConfig::default());
            for job in &jobs {
                EchelonAgent::from_dag(&job.dag).report_to(&mut coordinator);
            }
            register = Some(Timed::since(t));
            let policy = coordinator.into_policy();
            let inputs = Inputs::Dag {
                topo,
                cfg,
                jobs,
                policy,
            };
            (inputs, generate)
        }
        Workload::ServiceSteady | Workload::ServiceOverload => {
            let tree = FatTree::new(K_SERVICE).with_oversubscription(2.0);
            let topo = tree.build_fabric();
            let (jobs, mean_ia) = if workload == Workload::ServiceSteady {
                (size.pick(2_000, 200), 1.5)
            } else {
                (size.pick(300, 30), 0.2)
            };
            let mut cfg = OpenLoopConfig::default_tiers(seed, jobs, tree.hosts(), mean_ia);
            cfg.placement = ServicePlacement::AtAdmission(PlacementPolicy::PodPacked);
            // The stream generates jobs lazily during admission; building
            // the feed generates the first one.
            let t = Instant::now();
            let bus: LifecycleBus = Rc::new(RefCell::new(VecDeque::new()));
            let feed =
                ServiceFeed::streaming_on(&topo, cfg, &ServiceConfig::default(), Some(bus.clone()));
            let generate = Timed::since(t);
            let policy = ServicePolicy::open(SchedulerKind::Echelon, bus);
            let inputs = Inputs::Service {
                topo,
                feed,
                policy,
                offered: jobs,
            };
            (inputs, generate)
        }
    };
    let times = SetupTimes {
        whole: Timed::since(t0),
        generate,
        register,
    };
    (inputs, times)
}

/// Uniform draw of a host index in `0..n`.
fn host_in(rng: &mut DetRng, n: usize) -> usize {
    rng.usize_range_inclusive(0, n - 1)
}

/// A host of `pod` other than `src` (both as global host indices).
fn pod_local_peer(rng: &mut DetRng, pod: usize, src: usize, per_pod: usize) -> usize {
    let base = pod * per_pod;
    let raw = rng.usize_range_inclusive(0, per_pod - 2);
    let local = if base + raw >= src { raw + 1 } else { raw };
    base + local
}

fn demand(id: usize, src: usize, dst: usize, size: f64, release: f64) -> FlowDemand {
    FlowDemand::new(
        FlowId(id as u64),
        NodeId(src as u32),
        NodeId(dst as u32),
        size,
        SimTime::new(release),
    )
}

/// `flows_per_pod` pod-local flows in every pod, released uniformly over
/// one second: the whole set is in flight at once.
fn pod_burst_demands(seed: u64, flows_per_pod: usize) -> Vec<FlowDemand> {
    let per_pod = K_LARGE * K_LARGE / 4;
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5CA1_E000);
    let mut out = Vec::with_capacity(K_LARGE * flows_per_pod);
    for pod in 0..K_LARGE {
        for _ in 0..flows_per_pod {
            let src = pod * per_pod + host_in(&mut rng, per_pod);
            let dst = pod_local_peer(&mut rng, pod, src, per_pod);
            let size = rng.f64_range(0.5, 1.5);
            let release = rng.f64_range(0.0, 1.0);
            out.push(demand(out.len(), src, dst, size, release));
        }
    }
    out
}

/// Poisson releases (mean gap 4 ms) with a share of core-crossing flows,
/// plus degrade/restore pairs on random links over the release span.
fn crosspod_churn_inputs(topo: &Topology, seed: u64, flows: usize) -> (Vec<FlowDemand>, FaultPlan) {
    let per_pod = K_LARGE * K_LARGE / 4;
    let mut rng = DetRng::seed_from_u64(seed ^ 0xC405_5000);
    let mut out = Vec::with_capacity(flows);
    let mut t = 0.0f64;
    for id in 0..flows {
        t += -0.004 * (1.0 - rng.f64_range(0.0, 1.0)).ln();
        let pod = host_in(&mut rng, K_LARGE);
        let src = pod * per_pod + host_in(&mut rng, per_pod);
        let dst = if rng.f64_range(0.0, 1.0) < CROSSPOD_SHARE {
            let other = (pod + 1 + host_in(&mut rng, K_LARGE - 1)) % K_LARGE;
            other * per_pod + host_in(&mut rng, per_pod)
        } else {
            pod_local_peer(&mut rng, pod, src, per_pod)
        };
        let size = rng.f64_range(0.5, 1.5);
        out.push(demand(id, src, dst, size, t));
    }
    let mut plan = FaultPlan::empty();
    let slot = t / CHURN_PAIRS as f64;
    for i in 0..CHURN_PAIRS {
        let link = ResourceId(host_in(&mut rng, topo.num_resources()) as u32);
        let start = slot * i as f64;
        plan = plan
            .with(
                SimTime::new(start + 0.25 * slot),
                FaultKind::LinkDegrade(link, 0.5),
            )
            .with(
                SimTime::new(start + 0.75 * slot),
                FaultKind::LinkRestore(link),
            );
    }
    (out, plan)
}

/// The scale drive configuration: calendar queue; no feasibility audit,
/// rate trace or link statistics (none of them changes a completion).
fn flow_config(profile: bool) -> DriveConfig {
    DriveConfig {
        next_completion: NextCompletionMode::Calendar,
        feasibility_checks: false,
        trace: false,
        profile,
        link_stats: false,
    }
}

/// Which layer the traced allocation spans belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocLayer {
    /// A rate policy driven directly (pod allocator, service policy).
    Policy,
    /// The paper's coordinator ([`CoordinatedPolicy`] over `EchelonMadd`).
    Coordinator,
}

/// What only the traced run records.
pub struct Layers {
    /// The traced run's own span, in the same clock as every other.
    pub run: Interval,
    pub alloc_layer: AllocLayer,
    pub allocs: Vec<Interval>,
    /// Service-layer spans and counters (service workloads only).
    pub feed: Option<FeedTrace>,
    /// Coordinator decisions computed (`echelon-dag` only).
    pub decisions: usize,
    /// Replayed placement, timed (`echelon-dag` only).
    pub place: Option<Interval>,
}

/// Everything one run produced, in a form every workload shares.
pub struct Outcome {
    /// Wall-clock seconds of the simulation itself (set-up excluded).
    pub wall_s: f64,
    /// Completion digest: flow finishes (and job completions on DAG and
    /// service workloads), bit for bit.
    pub digest: u64,
    /// Flows (flow workloads) or jobs (DAG and service workloads) offered.
    pub offered: usize,
    /// Offered units that completed (jobs: every flow finished too).
    pub completed: usize,
    /// Units rejected at admission.
    pub rejected: usize,
    /// Flows that finished; each contributes an arrival and a departure.
    pub flows: usize,
    /// Completion time per completed unit in simulated seconds, ascending.
    pub ct: Vec<f64>,
    /// Σ tardiness in simulated seconds: the paper's objective over
    /// EchelonFlows on DAG and service workloads. A lone flow is an
    /// EchelonFlow of one stage whose ideal finish is its release, so on
    /// flow workloads this is the sum of flow completion times.
    pub tardiness: f64,
    /// Mean pods spanned per placed job (0 on flow workloads).
    pub pods_spanned_mean: f64,
    pub stats: DriveStats,
    pub layers: Option<Layers>,
}

/// Drives `setup`'s inputs to completion. With `epoch`, the run is the
/// traced one: the policy and feed are wrapped in the layer decorators,
/// flow workloads turn on the driver's phase timers, and `echelon-dag`
/// replays its placement.
pub fn run(inputs: Inputs, epoch: Option<Instant>) -> Outcome {
    match inputs {
        Inputs::Flows {
            topo,
            demands,
            plan,
            policy,
        } => run_flows(&topo, demands, &plan, policy, epoch),
        Inputs::Dag {
            topo,
            cfg,
            jobs,
            policy,
        } => run_dag(&topo, &cfg, &jobs, policy, epoch),
        Inputs::Service {
            topo,
            feed,
            policy,
            offered,
        } => run_service(&topo, feed, policy, offered, epoch),
    }
}

fn span_since(epoch: Instant, start: Instant) -> Interval {
    Timed::since(start).on(epoch)
}

fn run_flows(
    topo: &Topology,
    demands: Vec<FlowDemand>,
    plan: &FaultPlan,
    mut policy: PodMaxMinPolicy,
    epoch: Option<Instant>,
) -> Outcome {
    let offered = demands.len();
    let drive = |p: &mut dyn RatePolicy| {
        run_flows_faulted_configured(
            topo,
            demands,
            p,
            RecomputeMode::Incremental,
            plan,
            flow_config(epoch.is_some()),
        )
    };
    let start = Instant::now();
    let (out, layers) = match epoch {
        None => (drive(&mut policy), None),
        Some(epoch) => {
            let mut traced = TracedPolicy::new(policy, epoch);
            let out = drive(&mut traced);
            let run = span_since(epoch, start);
            let (_, allocs) = traced.into_parts();
            let layers = Layers {
                run,
                alloc_layer: AllocLayer::Policy,
                allocs,
                feed: None,
                decisions: 0,
                place: None,
            };
            (out, Some(layers))
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let mut ct: Vec<f64> = out.completions().values().map(|c| c.fct()).collect();
    ct.sort_by(f64::total_cmp);
    Outcome {
        wall_s,
        digest: flow_digest(&out),
        offered,
        completed: out.completions().len(),
        rejected: 0,
        flows: out.completions().len(),
        tardiness: ct.iter().sum(),
        ct,
        pods_spanned_mean: 0.0,
        stats: out.drive_stats(),
        layers,
    }
}

/// FNV-1a over every completion (id, finish, size), in id order.
fn flow_digest(out: &FlowOutcomes) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (id, c) in out.completions() {
        for word in [id.0, c.finish.secs().to_bits(), c.size.to_bits()] {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn run_dag(
    topo: &Topology,
    cfg: &WorkloadConfig,
    jobs: &[GeneratedJob],
    mut policy: CoordinatedPolicy,
    epoch: Option<Instant>,
) -> Outcome {
    let dags: Vec<_> = jobs.iter().map(|j| &j.dag).collect();
    let start = Instant::now();
    let (result, layers) = match epoch {
        None => (
            run_jobs_with(topo, &dags, &mut policy, RecomputeMode::Incremental),
            None,
        ),
        Some(epoch) => {
            let mut traced = TracedPolicy::new(policy, epoch);
            let result = run_jobs_with(topo, &dags, &mut traced, RecomputeMode::Incremental);
            let run = span_since(epoch, start);
            let (policy, allocs) = traced.into_parts();
            let layers = Layers {
                run,
                alloc_layer: AllocLayer::Coordinator,
                allocs,
                feed: None,
                decisions: policy.decisions_computed(),
                place: Some(replay_placement(topo, cfg, jobs, epoch)),
            };
            (result, Some(layers))
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let mut ct = Vec::with_capacity(jobs.len());
    let mut tardiness = 0.0;
    for job in jobs {
        let finished = job
            .dag
            .all_flows()
            .iter()
            .all(|f| result.flow_finishes.contains_key(&f.id));
        if let (true, Some(end)) = (finished, result.job_makespans.get(&job.dag.job)) {
            ct.push(end.secs() - job.arrival);
        }
        tardiness += echelon_tardiness(job.dag.echelons.iter(), &result);
    }
    ct.sort_by(f64::total_cmp);
    let spanned: usize = jobs.iter().map(|j| pods_spanned(topo, &j.placement)).sum();
    Outcome {
        wall_s,
        digest: completion_digest(&result),
        offered: jobs.len(),
        completed: ct.len(),
        rejected: 0,
        flows: result.flow_finishes.len(),
        ct,
        tardiness,
        pods_spanned_mean: spanned as f64 / jobs.len() as f64,
        stats: result.stats,
        layers,
    }
}

/// Replays the generator's placement with the same policy on the same
/// demands, asserting it reproduces the generated host sets.
fn replay_placement(
    topo: &Topology,
    cfg: &WorkloadConfig,
    jobs: &[GeneratedJob],
    epoch: Instant,
) -> Interval {
    let demands: Vec<usize> = jobs.iter().map(|j| j.placement.len()).collect();
    let start = Instant::now();
    let placed = place_jobs_on(cfg.placement, cfg.hosts, &demands, topo, &[])
        .expect("the generator placed these demands on this fabric");
    let span = span_since(epoch, start);
    for (job, hosts) in jobs.iter().zip(&placed) {
        assert_eq!(
            &job.placement, hosts,
            "replayed placement diverged from the generated one"
        );
    }
    span
}

/// The paper's objective (Eq. 4): Σ over EchelonFlows of their tardiness
/// clamped at zero, reconstructed from the run trace.
fn echelon_tardiness<'a>(
    echelons: impl Iterator<Item = &'a echelon_core::echelon::EchelonFlow>,
    result: &RunResult,
) -> f64 {
    echelons
        .filter_map(|h| echelon_tardiness_from_run(h, result))
        .map(|t| t.max(0.0))
        .sum()
}

fn run_service(
    topo: &Topology,
    mut feed: ServiceFeed,
    mut policy: ServicePolicy,
    offered: usize,
    epoch: Option<Instant>,
) -> Outcome {
    let plan = FaultPlan::empty();
    let start = Instant::now();
    let (result, layers) = match epoch {
        None => (
            run_jobs_streamed(
                topo,
                &mut feed,
                &mut policy,
                RecomputeMode::Incremental,
                &plan,
            ),
            None,
        ),
        Some(epoch) => {
            let mut traced_feed = TracedFeed::new(&mut feed, epoch);
            let mut traced = TracedPolicy::new(policy, epoch);
            let result = run_jobs_streamed(
                topo,
                &mut traced_feed,
                &mut traced,
                RecomputeMode::Incremental,
                &plan,
            );
            let run = span_since(epoch, start);
            let (_, allocs) = traced.into_parts();
            let layers = Layers {
                run,
                alloc_layer: AllocLayer::Policy,
                allocs,
                feed: Some(traced_feed.into_trace()),
                decisions: 0,
                place: None,
            };
            (result, Some(layers))
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let records = feed.records();
    let mut ct = Vec::with_capacity(records.len());
    let mut tardiness = 0.0;
    let mut spanned = 0;
    for r in records.iter().filter(|r| !r.rejected) {
        if let Some(end) = r.finished_at {
            ct.push(end - r.arrival);
        }
        tardiness += echelon_tardiness(r.echelons.iter(), &result);
        spanned += pods_spanned(topo, &r.hosts);
    }
    ct.sort_by(f64::total_cmp);
    let rejected = feed.rejected_per_tenant().iter().sum();
    Outcome {
        wall_s,
        digest: completion_digest(&result),
        offered,
        completed: ct.len(),
        rejected,
        flows: result.flow_finishes.len(),
        ct,
        tardiness,
        pods_spanned_mean: spanned as f64 / records.len().max(1) as f64,
        stats: result.stats,
        layers,
    }
}
