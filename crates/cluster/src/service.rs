//! Open-loop service runner: streaming admission, bounded scheduler
//! memory, and a closed-loop replay differential.
//!
//! The batch entry points in [`crate::scenario`] materialize every job
//! up front and register every flow group with the scheduler before the
//! simulation starts — fine for a fixed experiment, unusable as a
//! service model where jobs arrive forever. This module runs the same
//! fluid simulation *open loop*:
//!
//! - a [`ServiceFeed`] pulls jobs lazily from a
//!   [`JobStream`] (one-job lookahead — the
//!   next arrival time is only known once the job is generated), parks
//!   arrivals whose pre-assigned hosts are busy in a bounded pending
//!   queue, and admits them in `(tenant tier, arrival)` order with
//!   backfill — re-scanning that queue only after an arrival or a
//!   retirement could change the outcome;
//! - a [`ServicePolicy`] wraps the scheduler and applies job
//!   [`Lifecycle`] events from a shared bus: flow groups are registered
//!   when their job is admitted and **evicted** when it retires, so the
//!   scheduler's book holds only live jobs, not every job ever seen;
//! - [`run_service`] drives either mode and returns per-job records, a
//!   completion digest, and the scheduler's peak book occupancy (the
//!   bounded-memory witness).
//!
//! # The eviction invariant
//!
//! Late registration and eager eviction must be *invisible*: the MADD
//! schedulers group only flows that are currently active, so a group
//! registered before its first flow releases, and evicted after its
//! last flow completes, can never change an allocation. The module's
//! differential check makes this executable —
//! [`ServiceMode::Streaming`] (lazy generation, incremental
//! register/evict) and [`ServiceMode::Materialized`] (same arrivals
//! pre-generated, every group registered up front, nothing ever
//! evicted) must produce bit-identical completion digests.

use crate::placement::{placer_for, HostPool, PlacementRequest, Placer};
use crate::scenario::SchedulerKind;
use crate::workload::{
    compile_job, probe_phase_gap, JobStream, OpenLoopConfig, ParadigmKind, ServicePlacement,
    StreamJob,
};
use echelon_core::coflow::Coflow;
use echelon_core::echelon::EchelonFlow;
use echelon_core::{EchelonId, JobId};
use echelon_paradigms::dag::JobDag;
use echelon_paradigms::ids::IdAlloc;
use echelon_paradigms::runtime::{run_jobs_streamed, JobFeed, RunResult};
use echelon_sched::baselines::{FifoPolicy, SrptPolicy};
use echelon_sched::echelon::EchelonMadd;
use echelon_sched::varys::VarysMadd;
use echelon_simnet::alloc::AllocScratch;
use echelon_simnet::fault::{FaultKind, FaultPlan};
use echelon_simnet::flow::ActiveFlowView;
use echelon_simnet::fluid::FlowDelta;
use echelon_simnet::ids::NodeId;
use echelon_simnet::runner::{MaxMinPolicy, RatePolicy, RecomputeMode};
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

/// Service-side knobs, orthogonal to the workload description.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum jobs parked waiting for hosts; arrivals beyond this are
    /// rejected (counted per tenant, never admitted).
    pub pending_limit: usize,
    /// Steady-state metrics ignore jobs finishing before this time.
    pub warmup: f64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            pending_limit: usize::MAX,
            warmup: 0.0,
        }
    }
}

/// How [`run_service`] sources jobs and manages scheduler state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// Lazy generation; flow groups registered on admission and evicted
    /// on retirement (the open-loop service proper).
    Streaming,
    /// All jobs pre-generated, every flow group registered up front,
    /// nothing evicted (the closed-loop replay reference).
    Materialized,
}

/// A job lifecycle event carried from the feed to the scheduler.
#[derive(Debug, Clone)]
pub enum Lifecycle {
    /// A job was admitted: its flow groups must be registered before
    /// the next allocation.
    Admitted {
        /// The job's §4 EchelonFlow groups.
        echelons: Vec<EchelonFlow>,
        /// The job's plain-Coflow groups.
        coflows: Vec<Coflow>,
    },
    /// A job retired (every unit finished): its groups can be evicted.
    Retired {
        /// Ids of the job's EchelonFlow groups.
        echelons: Vec<EchelonId>,
        /// Ids of the job's Coflow groups.
        coflows: Vec<EchelonId>,
    },
}

/// Shared queue between the [`ServiceFeed`] (producer) and the
/// [`ServicePolicy`] (consumer, drained at every allocation).
pub type LifecycleBus = Rc<RefCell<VecDeque<Lifecycle>>>;

/// What happened to one offered job, kept for post-run metrics.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id.
    pub job: JobId,
    /// Index into the workload's tenant tiers.
    pub tenant: usize,
    /// Offered arrival time.
    pub arrival: f64,
    /// When the job's hosts freed up and it entered the cluster
    /// (`None`: rejected, or the run ended first).
    pub admitted_at: Option<f64>,
    /// When the job's last unit finished (`None`: never completed).
    pub finished_at: Option<f64>,
    /// True if the pending queue was full at arrival.
    pub rejected: bool,
    /// The job's EchelonFlow groups, retained for tardiness metrics
    /// after the scheduler has evicted them. Filled at admission when
    /// placement (and thus compilation) is deferred.
    pub echelons: Vec<EchelonFlow>,
    /// Hosts the job ran on: its fixed set, or — under admission-time
    /// placement — whatever the placer chose (empty until admitted).
    pub hosts: Vec<NodeId>,
}

/// A generated job waiting for its hosts to free (fixed placement) or
/// for the placer to find it hosts (admission-time placement, where
/// `dag` is `None` and `hosts` empty until admission places and compiles
/// it).
struct PendingJob {
    job: JobId,
    dag: Option<JobDag>,
    kind: ParadigmKind,
    demand: usize,
    comp_scale: f64,
    bytes_scale: f64,
    /// Profiled communication period, computed once at arrival when the
    /// placer wants it (admission retries reuse it).
    phase_gap: Option<f64>,
    hosts: Vec<NodeId>,
}

/// Admission-time placement state: the pool is reset from the runtime's
/// claimed set at the start of every admission pass and claims each
/// placement the pass makes, the placer carries cross-job
/// memory (pod residents, link loads), and the feed-owned allocator
/// issues ids in admission order — identical in both service modes,
/// which is what keeps the open≡closed differential alive with deferred
/// placement.
struct AdmissionPlacer {
    topo: Topology,
    pool: HostPool,
    placer: Box<dyn Placer>,
    alloc: IdAlloc,
    iterations: usize,
}

impl AdmissionPlacer {
    /// Builds the admission-time placement state when `cfg` asks for it
    /// (`None` for fixed placement).
    fn from_config(topo: &Topology, cfg: &OpenLoopConfig) -> Option<AdmissionPlacer> {
        let ServicePlacement::AtAdmission(policy) = cfg.placement else {
            return None;
        };
        let pool = HostPool::on_topology(cfg.hosts, topo)
            .unwrap_or_else(|e| panic!("service host pool: {e}"));
        Some(AdmissionPlacer {
            topo: topo.clone(),
            pool,
            placer: placer_for(policy),
            alloc: IdAlloc::new(),
            iterations: cfg.iterations,
        })
    }
}

enum JobSourceIter {
    Stream(Box<JobStream>),
    Batch(std::vec::IntoIter<StreamJob>),
}

impl Iterator for JobSourceIter {
    type Item = StreamJob;
    fn next(&mut self) -> Option<StreamJob> {
        match self {
            JobSourceIter::Stream(s) => s.next(),
            JobSourceIter::Batch(b) => b.next(),
        }
    }
}

/// The open-loop admission gate: an incremental [`JobFeed`] over a job
/// stream with a bounded pending queue and tier-priority admission.
///
/// Both service modes run through this same gate — the only difference
/// is whether jobs are generated lazily and whether a [`LifecycleBus`]
/// carries register/evict events to the scheduler. That is what makes
/// the open≡closed differential meaningful: admission decisions are
/// shared by construction, so any divergence is the scheduler's.
pub struct ServiceFeed {
    jobs: JobSourceIter,
    /// One generated-but-not-yet-due job (the stream must be pulled to
    /// learn the next arrival time).
    lookahead: Option<StreamJob>,
    /// Parked jobs keyed by `(tenant tier, record index)`: iteration
    /// order is the admission scan order (lower tenant index = higher
    /// tier, then arrival).
    pending: BTreeMap<(usize, usize), PendingJob>,
    /// Set by an admission pass that admitted nothing, cleared by the
    /// next retirement. A pass is a deterministic function of the
    /// pending set, the runtime's claimed set and the placer's memory;
    /// after an empty pass none of them changes until an arrival or a
    /// retirement (failed placements leave the placer untouched, see
    /// [`Placer::place`]), so re-running it would admit nothing again.
    /// A pass that admitted jobs never settles: a DpPs job's parameter
    /// server is placed but not claimed by the runtime, so the next
    /// pass sees more free hosts than this one ended with.
    settled: bool,
    pending_limit: usize,
    records: Vec<JobRecord>,
    record_of: BTreeMap<JobId, usize>,
    /// Group ids of admitted, unfinished jobs, kept for the retirement
    /// event (the DAG itself is owned by the runtime once admitted).
    retire_ids: BTreeMap<JobId, (Vec<EchelonId>, Vec<EchelonId>)>,
    rejected_per_tenant: Vec<usize>,
    bus: Option<LifecycleBus>,
    placement: Option<AdmissionPlacer>,
}

impl ServiceFeed {
    /// Streaming feed over `cfg`'s lazily generated job stream,
    /// publishing lifecycle events to `bus` when given one. Fixed
    /// placement only — use [`ServiceFeed::streaming_on`] when the
    /// config defers placement to admission.
    pub fn streaming(
        cfg: OpenLoopConfig,
        service: &ServiceConfig,
        bus: Option<LifecycleBus>,
    ) -> ServiceFeed {
        assert!(
            cfg.placement == ServicePlacement::Fixed,
            "admission-time placement needs the topology: use ServiceFeed::streaming_on"
        );
        let tenants = cfg.tenants.len();
        ServiceFeed::over(
            JobSourceIter::Stream(Box::new(JobStream::new(cfg))),
            tenants,
            service,
            bus,
            None,
        )
    }

    /// [`ServiceFeed::streaming`] on an explicit topology: when `cfg`
    /// defers placement to admission, the feed places each job from the
    /// free-host set using the configured policy and compiles it then.
    pub fn streaming_on(
        topo: &Topology,
        cfg: OpenLoopConfig,
        service: &ServiceConfig,
        bus: Option<LifecycleBus>,
    ) -> ServiceFeed {
        let placement = AdmissionPlacer::from_config(topo, &cfg);
        let tenants = cfg.tenants.len();
        ServiceFeed::over(
            JobSourceIter::Stream(Box::new(JobStream::new(cfg))),
            tenants,
            service,
            bus,
            placement,
        )
    }

    /// Replay feed over pre-generated jobs (no lifecycle events: the
    /// closed-loop reference registers everything up front). Fixed
    /// placement only — use [`ServiceFeed::materialized_on`] for
    /// deferred-placement replays.
    pub fn materialized(
        jobs: Vec<StreamJob>,
        tenants: usize,
        service: &ServiceConfig,
    ) -> ServiceFeed {
        ServiceFeed::over(
            JobSourceIter::Batch(jobs.into_iter()),
            tenants,
            service,
            None,
            None,
        )
    }

    /// [`ServiceFeed::materialized`] on an explicit topology, placing
    /// deferred jobs at admission exactly as the streaming feed would
    /// (lifecycle events flow through `bus` so the scheduler learns the
    /// groups when they first exist).
    pub fn materialized_on(
        topo: &Topology,
        jobs: Vec<StreamJob>,
        cfg: &OpenLoopConfig,
        service: &ServiceConfig,
        bus: Option<LifecycleBus>,
    ) -> ServiceFeed {
        let placement = AdmissionPlacer::from_config(topo, cfg);
        ServiceFeed::over(
            JobSourceIter::Batch(jobs.into_iter()),
            cfg.tenants.len(),
            service,
            bus,
            placement,
        )
    }

    fn over(
        mut jobs: JobSourceIter,
        tenants: usize,
        service: &ServiceConfig,
        bus: Option<LifecycleBus>,
        placement: Option<AdmissionPlacer>,
    ) -> ServiceFeed {
        let lookahead = jobs.next();
        ServiceFeed {
            jobs,
            lookahead,
            pending: BTreeMap::new(),
            settled: false,
            pending_limit: service.pending_limit,
            records: Vec::new(),
            record_of: BTreeMap::new(),
            retire_ids: BTreeMap::new(),
            rejected_per_tenant: vec![0; tenants],
            bus,
            placement,
        }
    }

    /// Per-job records in arrival order (complete once the run ends).
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Arrivals rejected because the pending queue was full, per tenant.
    pub fn rejected_per_tenant(&self) -> &[usize] {
        &self.rejected_per_tenant
    }

    fn consume(self) -> (Vec<JobRecord>, Vec<usize>) {
        (self.records, self.rejected_per_tenant)
    }

    /// Moves every due arrival from the stream into the pending queue,
    /// rejecting when it is full.
    fn pull_due(&mut self, now: SimTime) {
        while self
            .lookahead
            .as_ref()
            .is_some_and(|j| SimTime::new(j.arrival).at_or_before(now))
        {
            let job = self.lookahead.take().expect("checked above");
            self.lookahead = self.jobs.next();
            // The admission scan treats every parked job the feed's way:
            // fixed jobs by their hosts, deferred ones through the placer.
            assert_eq!(
                job.dag.is_none(),
                self.placement.is_some(),
                "job {} does not match the feed's placement mode",
                job.job
            );
            let rejected = self.pending.len() >= self.pending_limit;
            let record = self.records.len();
            self.record_of.insert(job.job, record);
            self.records.push(JobRecord {
                job: job.job,
                tenant: job.tenant,
                arrival: job.arrival,
                admitted_at: None,
                finished_at: None,
                rejected,
                // Deferred jobs have no groups yet; admission fills them.
                echelons: job
                    .dag
                    .as_ref()
                    .map(|d| d.echelons.clone())
                    .unwrap_or_default(),
                hosts: job.hosts.clone(),
            });
            if rejected {
                self.rejected_per_tenant[job.tenant] += 1;
                continue;
            }
            // Profile the spec's communication period once, at arrival,
            // when the placer is phase-aware and will need it.
            let phase_gap = match &self.placement {
                Some(ap) if job.dag.is_none() && ap.placer.wants_phase_gap() => {
                    Some(probe_phase_gap(
                        job.kind,
                        job.demand,
                        job.comp_scale,
                        job.bytes_scale,
                        ap.iterations,
                    ))
                }
                _ => None,
            };
            self.pending.insert(
                (job.tenant, record),
                PendingJob {
                    job: job.job,
                    dag: job.dag,
                    kind: job.kind,
                    demand: job.demand,
                    comp_scale: job.comp_scale,
                    bytes_scale: job.bytes_scale,
                    phase_gap,
                    hosts: job.hosts,
                },
            );
        }
    }
}

impl JobFeed for ServiceFeed {
    fn next_event_at(&self) -> Option<SimTime> {
        self.lookahead.as_ref().map(|j| SimTime::new(j.arrival))
    }

    /// Runs a pass when an arrival is due, or when jobs are parked and no
    /// pass has come up empty since the last retirement (see
    /// [`ServiceFeed`]'s `settled` rule).
    fn wants_admission(&self, now: SimTime) -> bool {
        self.next_event_at().is_some_and(|t| t.at_or_before(now))
            || (!self.settled && !self.pending.is_empty())
    }

    fn admit(&mut self, now: SimTime, claimed: &BTreeSet<NodeId>) -> Vec<JobDag> {
        self.pull_due(now);
        // Admission scan in `pending` key order (tier, then arrival); a
        // blocked job does not block later admissible ones (backfill).
        let mut take: Vec<(usize, usize)> = Vec::new();
        match &mut self.placement {
            // Fixed placement: the job waits for its exact hosts.
            None => {
                let mut busy: BTreeSet<NodeId> = claimed.clone();
                for (&key, p) in &self.pending {
                    if p.hosts.iter().all(|h| !busy.contains(h)) {
                        busy.extend(p.hosts.iter().copied());
                        take.push(key);
                    }
                }
            }
            // Admission-time placement: choose hosts from whatever is
            // free right now; an unplaceable job stays parked (the
            // waitlist outcome) without blocking backfill.
            Some(ap) => {
                ap.pool.reset_with_busy(claimed);
                for (&key, p) in self.pending.iter_mut() {
                    // The placer's own failure condition, checked without
                    // calling it (a failed call changes nothing).
                    if p.demand > ap.pool.num_free() {
                        continue;
                    }
                    let req = PlacementRequest {
                        job: p.job,
                        index: key.1,
                        demand: p.demand,
                        phase_gap: p.phase_gap,
                    };
                    if let Ok(hosts) = ap.placer.place(&req, &ap.pool, &ap.topo) {
                        ap.pool.claim(&hosts);
                        p.hosts = hosts;
                        take.push(key);
                    }
                }
            }
        }
        self.settled = take.is_empty();
        let mut out = Vec::with_capacity(take.len());
        for key in take {
            let record = key.1;
            let mut p = self.pending.remove(&key).expect("scanned above");
            let dag = match p.dag.take() {
                Some(dag) => dag,
                None => {
                    // Compile in admission order with the feed-owned
                    // allocator: both service modes admit identically,
                    // so ids — and therefore digests — line up.
                    let ap = self
                        .placement
                        .as_mut()
                        .expect("deferred jobs park only in a placing feed");
                    let dag = compile_job(
                        p.job,
                        p.kind,
                        &p.hosts,
                        p.comp_scale,
                        p.bytes_scale,
                        ap.iterations,
                        &mut ap.alloc,
                    );
                    self.records[record].echelons = dag.echelons.clone();
                    self.records[record].hosts = p.hosts;
                    dag
                }
            };
            self.records[record].admitted_at = Some(now.secs());
            if let Some(bus) = &self.bus {
                bus.borrow_mut().push_back(Lifecycle::Admitted {
                    echelons: dag.echelons.clone(),
                    coflows: dag.coflows.clone(),
                });
            }
            let echelon_ids = dag.echelons.iter().map(|h| h.id()).collect();
            let coflow_ids = dag.coflows.iter().map(|c| c.id()).collect();
            self.retire_ids.insert(dag.job, (echelon_ids, coflow_ids));
            out.push(dag);
        }
        out
    }

    fn on_job_retired(&mut self, now: SimTime, job: JobId) {
        if let Some(&r) = self.record_of.get(&job) {
            self.records[r].finished_at = Some(now.secs());
        }
        if let Some(ap) = &mut self.placement {
            // Drop the job from the placer's cross-job memory; its hosts
            // free implicitly (the runtime's claimed set shrinks, and the
            // pool is rebuilt from it on every admission pass).
            ap.placer.forget(job);
        }
        // Freed claims and placer memory can unblock parked jobs.
        self.settled = false;
        let ids = self.retire_ids.remove(&job);
        if let Some(bus) = &self.bus {
            if let Some((echelons, coflows)) = ids {
                bus.borrow_mut()
                    .push_back(Lifecycle::Retired { echelons, coflows });
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.lookahead.is_none() && self.pending.is_empty()
    }

    fn backlog(&self) -> usize {
        self.pending.len()
    }
}

enum Engine {
    /// The MADD engine; `coflows` says which of an admitted job's group
    /// lists it schedules (coflows enter as one-stage EchelonFlows).
    Madd {
        engine: Box<EchelonMadd>,
        coflows: bool,
    },
    Plain(Box<dyn RatePolicy>),
}

impl Engine {
    fn madd(engine: impl Into<EchelonMadd>, coflows: bool) -> Engine {
        Engine::Madd {
            engine: Box::new(engine.into()),
            coflows,
        }
    }
}

/// Scheduler wrapper for service runs: drains the [`LifecycleBus`]
/// before every allocation, registering admitted groups and evicting
/// retired ones, then delegates to the wrapped engine.
///
/// Per-flow baselines (fair/FIFO/SRPT) keep no group state and simply
/// ignore lifecycle events.
pub struct ServicePolicy {
    engine: Engine,
    bus: Option<LifecycleBus>,
    /// When false, retirements on the bus are dropped instead of parked:
    /// the deferred-placement materialized reference registers at
    /// admission (groups only exist then) but never evicts, so the
    /// streaming/materialized differential isolates exactly the eviction
    /// half of the lifecycle.
    evict: bool,
    /// Retirements seen on the bus, applied *after* the next delegation:
    /// the engine's incremental caches drop a group's members while the
    /// departure delta is applied, which needs the flow→group mapping —
    /// i.e. the book entry — still alive. Evicting a flowless group
    /// after the allocation is equally allocation-neutral.
    pending_evictions: Vec<(Vec<EchelonId>, Vec<EchelonId>)>,
}

fn engine_for(kind: SchedulerKind) -> Engine {
    match kind {
        SchedulerKind::Echelon => Engine::madd(EchelonMadd::new(Vec::new()), false),
        SchedulerKind::Coflow => Engine::madd(VarysMadd::new(Vec::new()), true),
        SchedulerKind::Fair => Engine::Plain(Box::new(MaxMinPolicy)),
        SchedulerKind::Fifo => Engine::Plain(Box::new(FifoPolicy)),
        SchedulerKind::Srpt => Engine::Plain(Box::new(SrptPolicy)),
    }
}

impl ServicePolicy {
    /// Open-loop wrapper for `kind`: group schedulers start *empty* and
    /// learn their groups through `bus`.
    pub fn open(kind: SchedulerKind, bus: LifecycleBus) -> ServicePolicy {
        ServicePolicy {
            engine: engine_for(kind),
            bus: Some(bus),
            evict: true,
            pending_evictions: Vec::new(),
        }
    }

    /// Like [`ServicePolicy::open`] but retirement events are ignored:
    /// groups accumulate forever. This is the closed-loop-like reference
    /// for admission-time placement, where groups cannot be registered
    /// up front because the jobs are compiled at admission.
    pub fn open_no_evict(kind: SchedulerKind, bus: LifecycleBus) -> ServicePolicy {
        ServicePolicy {
            engine: engine_for(kind),
            bus: Some(bus),
            evict: false,
            pending_evictions: Vec::new(),
        }
    }

    /// Closed-loop reference for `kind`: every group of every job
    /// registered up front, no bus, nothing ever evicted. Jobs must be
    /// compiled (fixed placement).
    pub fn closed(kind: SchedulerKind, jobs: &[StreamJob]) -> ServicePolicy {
        let dags = || jobs.iter().filter_map(|j| j.dag.as_ref());
        let engine = match kind {
            SchedulerKind::Echelon => Engine::madd(
                EchelonMadd::new(dags().flat_map(|d| d.echelons.iter().cloned()).collect()),
                false,
            ),
            SchedulerKind::Coflow => Engine::madd(
                VarysMadd::new(dags().flat_map(|d| d.coflows.iter().cloned()).collect()),
                true,
            ),
            other => engine_for(other),
        };
        ServicePolicy {
            engine,
            bus: None,
            evict: true,
            pending_evictions: Vec::new(),
        }
    }

    /// Pre-delegation half of the bus drain: registers admitted groups
    /// (they must exist before their flows' arrival deltas are applied)
    /// and parks retirements for [`Self::apply_evictions`].
    fn apply_admissions(&mut self) {
        let Some(bus) = &self.bus else { return };
        let mut queue = bus.borrow_mut();
        while let Some(event) = queue.pop_front() {
            match event {
                Lifecycle::Admitted { echelons, coflows } => {
                    if let Engine::Madd {
                        engine,
                        coflows: by_coflow,
                    } = &mut self.engine
                    {
                        if *by_coflow {
                            coflows
                                .into_iter()
                                .for_each(|c| engine.register(c.into_echelon()));
                        } else {
                            echelons.into_iter().for_each(|h| engine.register(h));
                        }
                    }
                }
                Lifecycle::Retired { echelons, coflows } => {
                    if self.evict {
                        self.pending_evictions.push((echelons, coflows));
                    }
                }
            }
        }
    }

    /// Post-delegation half: evicts groups whose jobs retired. Runs after
    /// the engine has applied the departure delta of the group's last
    /// flows, so its incremental caches are already clean.
    fn apply_evictions(&mut self, active: &[ActiveFlowView]) {
        for (echelons, coflows) in std::mem::take(&mut self.pending_evictions) {
            if let Engine::Madd {
                engine,
                coflows: by_coflow,
            } = &mut self.engine
            {
                for id in if *by_coflow { coflows } else { echelons } {
                    assert!(engine.evict(id, active), "evicting retired {id:?} refused");
                }
            }
        }
    }

    fn engine_mut(&mut self) -> &mut dyn RatePolicy {
        match &mut self.engine {
            Engine::Madd { engine, .. } => engine.as_mut(),
            Engine::Plain(p) => p.as_mut(),
        }
    }

    fn engine_ref(&self) -> &dyn RatePolicy {
        match &self.engine {
            Engine::Madd { engine, .. } => engine.as_ref(),
            Engine::Plain(p) => p.as_ref(),
        }
    }
}

impl RatePolicy for ServicePolicy {
    fn allocate_dense(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.apply_admissions();
        self.engine_mut().allocate_dense(now, flows, topo, ws, out);
        self.apply_evictions(flows);
    }

    fn allocate_dense_incremental(
        &mut self,
        now: SimTime,
        flows: &[ActiveFlowView],
        delta: &FlowDelta,
        topo: &Topology,
        ws: &mut AllocScratch,
        out: &mut Vec<f64>,
    ) {
        self.apply_admissions();
        self.engine_mut()
            .allocate_dense_incremental(now, flows, delta, topo, ws, out);
        self.apply_evictions(flows);
    }

    fn on_fault(&mut self, now: SimTime, fault: &FaultKind) {
        self.engine_mut().on_fault(now, fault)
    }

    fn name(&self) -> &'static str {
        self.engine_ref().name()
    }

    fn pod_stats(&self) -> Option<(usize, usize)> {
        self.engine_ref().pod_stats()
    }

    fn book_stats(&self) -> Option<(usize, usize)> {
        self.engine_ref().book_stats()
    }
}

/// Everything one service run produces.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The run's completions: flow releases and finishes, job makespans,
    /// worker busy seconds and driver counters. A service run drives with
    /// the trace off (see [`run_jobs_streamed`]), so the rate trace,
    /// timeline and unit spans are empty.
    pub result: RunResult,
    /// One record per offered job, in arrival order.
    pub records: Vec<JobRecord>,
    /// Arrivals rejected at the full pending queue, per tenant.
    pub rejected_per_tenant: Vec<usize>,
    /// Scheduler book high-water mark (0 for bookless baselines). With
    /// eviction this tracks *concurrently live* groups, not the stream
    /// length — the bounded-memory witness.
    pub peak_book_occupancy: usize,
    /// Order-insensitive FNV-1a digest over flow finishes and job
    /// makespans; equal digests mean bit-identical completions.
    pub digest: u64,
}

/// FNV-1a digest over a run's flow finish times and job makespans.
/// Streaming and materialized runs of the same workload must agree.
pub fn completion_digest(result: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mix = |h: &mut u64, x: u64| {
        *h ^= x;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (id, t) in &result.flow_finishes {
        mix(&mut h, id.0);
        mix(&mut h, t.secs().to_bits());
    }
    for (job, t) in &result.job_makespans {
        mix(&mut h, u64::from(job.0));
        mix(&mut h, t.secs().to_bits());
    }
    h
}

/// Runs `cfg`'s job stream as a service on `topo` under `kind`, in the
/// given [`ServiceMode`], and returns the completions plus per-job
/// records.
///
/// Streaming and materialized invocations with identical arguments
/// produce bit-identical [`ServiceOutcome::digest`]s — the open≡closed
/// differential that certifies admission gating and group eviction
/// change no allocation decision.
pub fn run_service(
    topo: &Topology,
    cfg: &OpenLoopConfig,
    service: &ServiceConfig,
    kind: SchedulerKind,
    mode: RecomputeMode,
    plan: &FaultPlan,
    service_mode: ServiceMode,
) -> ServiceOutcome {
    let deferred = matches!(cfg.placement, ServicePlacement::AtAdmission(_));
    let (result, records, rejected_per_tenant, peak) = match service_mode {
        ServiceMode::Streaming => {
            let bus: LifecycleBus = Rc::new(RefCell::new(VecDeque::new()));
            let mut feed = ServiceFeed::streaming_on(topo, cfg.clone(), service, Some(bus.clone()));
            let mut policy = ServicePolicy::open(kind, bus);
            let result = run_jobs_streamed(topo, &mut feed, &mut policy, mode, plan);
            let peak = policy.book_stats().map_or(0, |(_, p)| p);
            let (records, rejected) = feed.consume();
            (result, records, rejected, peak)
        }
        ServiceMode::Materialized => {
            let jobs: Vec<StreamJob> = JobStream::new(cfg.clone()).collect();
            // With deferred placement the groups only exist at admission,
            // so the reference registers through the bus (like streaming)
            // but never evicts (like the closed loop): the differential
            // then isolates the eviction half of the lifecycle.
            let (mut policy, bus) = if deferred {
                let bus: LifecycleBus = Rc::new(RefCell::new(VecDeque::new()));
                (ServicePolicy::open_no_evict(kind, bus.clone()), Some(bus))
            } else {
                (ServicePolicy::closed(kind, &jobs), None)
            };
            let mut feed = ServiceFeed::materialized_on(topo, jobs, cfg, service, bus);
            let result = run_jobs_streamed(topo, &mut feed, &mut policy, mode, plan);
            let peak = policy.book_stats().map_or(0, |(_, p)| p);
            let (records, rejected) = feed.consume();
            (result, records, rejected, peak)
        }
    };
    let digest = completion_digest(&result);
    ServiceOutcome {
        result,
        records,
        rejected_per_tenant,
        peak_book_occupancy: peak,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ParadigmKind;

    fn topo(hosts: usize) -> Topology {
        Topology::big_switch_uniform(hosts, 1.0)
    }

    fn cfg(seed: u64, jobs: usize, hosts: usize, mean_ia: f64) -> OpenLoopConfig {
        OpenLoopConfig::default_tiers(seed, jobs, hosts, mean_ia)
    }

    /// A service run keeps completions, not history: no trace event, no
    /// timeline bar, no unit span, and a finish for every released flow.
    fn assert_keeps_no_history(out: &ServiceOutcome) {
        let r = &out.result;
        assert!(r.trace.events().is_empty(), "trace kept");
        assert!(r.timeline.is_empty(), "timeline kept");
        assert!(r.comp_spans.is_empty(), "comp spans kept");
        assert!(r.comm_spans.is_empty(), "comm spans kept");
        assert!(!r.flow_releases.is_empty(), "no flow released");
        assert!(
            r.flow_releases.keys().eq(r.flow_finishes.keys()),
            "finishes do not cover the released flows"
        );
    }

    fn run(
        c: &OpenLoopConfig,
        hosts: usize,
        kind: SchedulerKind,
        mode: RecomputeMode,
        sm: ServiceMode,
    ) -> ServiceOutcome {
        run_service(
            &topo(hosts),
            c,
            &ServiceConfig::default(),
            kind,
            mode,
            &FaultPlan::new(Vec::new()),
            sm,
        )
    }

    /// A unit-less job claiming `hosts`: admitted, it retires instantly.
    fn bare_job(id: u32, hosts: Vec<NodeId>, arrival: f64, tenant: usize) -> StreamJob {
        let demand = hosts.len();
        StreamJob {
            job: JobId(id),
            dag: Some(JobDag {
                job: JobId(id),
                comps: BTreeMap::new(),
                comms: BTreeMap::new(),
                programs: hosts.iter().map(|h| (*h, Vec::new())).collect(),
                echelons: Vec::new(),
                coflows: Vec::new(),
            }),
            kind: ParadigmKind::DpAllReduce,
            arrival,
            tenant,
            hosts,
            demand,
            comp_scale: 1.0,
            bytes_scale: 1.0,
        }
    }

    #[test]
    fn open_equals_closed_bitwise_for_all_schedulers() {
        let c = cfg(7, 12, 8, 0.8);
        for kind in SchedulerKind::ALL {
            let open = run(&c, 8, kind, RecomputeMode::Full, ServiceMode::Streaming);
            let closed = run(&c, 8, kind, RecomputeMode::Full, ServiceMode::Materialized);
            assert_eq!(
                open.digest,
                closed.digest,
                "digest diverged for {}",
                kind.name()
            );
            assert_eq!(
                open.result.flow_finishes,
                closed.result.flow_finishes,
                "flow finishes diverged for {}",
                kind.name()
            );
            assert_eq!(
                open.result.job_makespans,
                closed.result.job_makespans,
                "makespans diverged for {}",
                kind.name()
            );
            assert_keeps_no_history(&open);
            assert_keeps_no_history(&closed);
        }
    }

    #[test]
    fn streaming_incremental_matches_full() {
        let c = cfg(11, 10, 8, 0.6);
        for kind in [SchedulerKind::Echelon, SchedulerKind::Coflow] {
            let full = run(&c, 8, kind, RecomputeMode::Full, ServiceMode::Streaming);
            let inc = run(
                &c,
                8,
                kind,
                RecomputeMode::Incremental,
                ServiceMode::Streaming,
            );
            assert_eq!(
                full.digest,
                inc.digest,
                "incremental diverged for {}",
                kind.name()
            );
        }
    }

    #[test]
    fn eviction_bounds_book_occupancy() {
        let c = cfg(3, 60, 8, 0.2);
        let open = run(
            &c,
            8,
            SchedulerKind::Echelon,
            RecomputeMode::Full,
            ServiceMode::Streaming,
        );
        let closed = run(
            &c,
            8,
            SchedulerKind::Echelon,
            RecomputeMode::Full,
            ServiceMode::Materialized,
        );
        let total: usize = open.records.iter().map(|r| r.echelons.len()).sum();
        assert!(open.peak_book_occupancy > 0);
        assert!(
            open.peak_book_occupancy < total / 2,
            "peak {} should be far below the stream's {} groups",
            open.peak_book_occupancy,
            total
        );
        // The closed-loop reference registers everything up front: its
        // peak IS the stream size. Same completions regardless.
        assert_eq!(closed.peak_book_occupancy, total);
        assert_eq!(open.digest, closed.digest);
    }

    /// The same bound at stream scale: 2,000 Poisson jobs at offered
    /// load 0.8 keep the echelon book's high-water mark under a quarter
    /// of the groups offered, and the runtime keeps no per-unit or
    /// per-rate history for them.
    #[test]
    #[ignore = "2,000-job stream; run in release with --ignored"]
    fn eviction_bounds_book_occupancy_on_a_long_stream() {
        let c = cfg(0x0BE7, 2000, 16, 1.2 / 0.8);
        let open = run(
            &c,
            16,
            SchedulerKind::Echelon,
            RecomputeMode::Incremental,
            ServiceMode::Streaming,
        );
        let groups: usize = open.records.iter().map(|r| r.echelons.len()).sum();
        assert!(open.peak_book_occupancy > 0, "book never held a group");
        assert!(
            open.peak_book_occupancy * 4 < groups,
            "peak book occupancy {} not sublinear in {groups} offered groups",
            open.peak_book_occupancy
        );
        assert_keeps_no_history(&open);
    }

    #[test]
    fn every_offered_job_finishes() {
        let c = cfg(5, 20, 8, 0.5);
        let out = run(
            &c,
            8,
            SchedulerKind::Echelon,
            RecomputeMode::Full,
            ServiceMode::Streaming,
        );
        assert_eq!(out.records.len(), 20);
        for r in &out.records {
            assert!(!r.rejected);
            let adm = r.admitted_at.expect("admitted");
            let fin = r.finished_at.expect("finished");
            assert!(adm >= r.arrival);
            assert!(fin >= adm);
        }
    }

    #[test]
    fn boundary_arrival_admitted_at_exact_now() {
        let jobs = vec![bare_job(0, vec![NodeId(0)], 1.5, 0)];
        let mut feed = ServiceFeed::materialized(jobs, 1, &ServiceConfig::default());
        assert!(feed.admit(SimTime::new(1.0), &BTreeSet::new()).is_empty());
        let out = feed.admit(SimTime::new(1.5), &BTreeSet::new());
        assert_eq!(
            out.len(),
            1,
            "arrival == now sits inside the admission boundary"
        );
        assert_eq!(feed.records()[0].admitted_at, Some(1.5));
    }

    #[test]
    fn full_pending_queue_rejects_and_counts() {
        let jobs = vec![
            bare_job(0, vec![NodeId(0)], 0.0, 0),
            bare_job(1, vec![NodeId(0)], 0.0, 1),
            bare_job(2, vec![NodeId(0)], 0.0, 1),
        ];
        let svc = ServiceConfig {
            pending_limit: 1,
            ..ServiceConfig::default()
        };
        let mut feed = ServiceFeed::materialized(jobs, 2, &svc);
        let busy: BTreeSet<NodeId> = [NodeId(0)].into();
        assert!(feed.admit(SimTime::new(0.0), &busy).is_empty());
        assert_eq!(feed.rejected_per_tenant(), &[0, 2]);
        assert!(feed.records()[1].rejected && feed.records()[2].rejected);
        // The surviving job admits once the host frees.
        let out = feed.admit(SimTime::new(1.0), &BTreeSet::new());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].job, JobId(0));
        assert!(feed.exhausted());
    }

    #[test]
    fn higher_tier_preempts_admission_order() {
        // Tenant 1 arrived first, tenant 0 (higher tier) later; both need
        // host 0 — the tier wins the scan.
        let jobs = vec![
            bare_job(0, vec![NodeId(0)], 0.0, 1),
            bare_job(1, vec![NodeId(0)], 0.5, 0),
        ];
        let mut feed = ServiceFeed::materialized(jobs, 2, &ServiceConfig::default());
        let busy: BTreeSet<NodeId> = [NodeId(0)].into();
        assert!(feed.admit(SimTime::new(0.0), &busy).is_empty());
        // An empty pass settles the feed until an arrival or retirement.
        assert!(!feed.wants_admission(SimTime::new(0.25)));
        assert!(feed.wants_admission(SimTime::new(0.5)), "arrival due");
        assert!(feed.admit(SimTime::new(0.5), &busy).is_empty());
        assert!(!feed.wants_admission(SimTime::new(0.75)));
        feed.on_job_retired(SimTime::new(0.75), JobId(99));
        assert!(feed.wants_admission(SimTime::new(0.75)), "retirement");
        let out = feed.admit(SimTime::new(1.0), &BTreeSet::new());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].job, JobId(1), "higher tier admitted first");
        assert_eq!(feed.backlog(), 1);
    }

    #[test]
    fn blocked_job_does_not_block_backfill() {
        let jobs = vec![
            bare_job(0, vec![NodeId(0)], 0.0, 0),
            bare_job(1, vec![NodeId(1)], 0.0, 0),
        ];
        let mut feed = ServiceFeed::materialized(jobs, 1, &ServiceConfig::default());
        let busy: BTreeSet<NodeId> = [NodeId(0)].into();
        let out = feed.admit(SimTime::new(0.0), &busy);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].job,
            JobId(1),
            "job on free host backfills past the blocked one"
        );
    }

    #[test]
    fn zero_unit_job_retires_at_admission() {
        let jobs = vec![bare_job(4, vec![NodeId(2)], 0.25, 0)];
        let mut feed = ServiceFeed::materialized(jobs, 1, &ServiceConfig::default());
        let mut policy = ServicePolicy::closed(SchedulerKind::Fair, &[]);
        let result = run_jobs_streamed(
            &topo(4),
            &mut feed,
            &mut policy,
            RecomputeMode::Full,
            &FaultPlan::new(Vec::new()),
        );
        assert_eq!(
            result.job_makespans.get(&JobId(4)),
            Some(&SimTime::new(0.25))
        );
        assert_eq!(feed.records()[0].finished_at, Some(0.25));
    }
}
