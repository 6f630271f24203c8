//! The service feed's admission gate is invisible: a streamed service
//! run that skips the passes `ServiceFeed::wants_admission` declines
//! admits, places and completes every job exactly like one that runs an
//! admission pass on every simulator event.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use echelon_cluster::prelude::*;
use echelon_cluster::service::{
    completion_digest, JobRecord, LifecycleBus, ServiceFeed, ServicePolicy,
};
use echelon_core::JobId;
use echelon_paradigms::dag::JobDag;
use echelon_paradigms::runtime::{run_jobs_fed, JobFeed};
use echelon_simnet::fattree::FatTree;
use echelon_simnet::fault::FaultPlan;
use echelon_simnet::ids::NodeId;
use echelon_simnet::time::SimTime;
use echelon_simnet::topology::Topology;

/// Forwards every [`JobFeed`] method except `wants_admission`, so the
/// trait default asks for a pass on every event while jobs are parked.
struct EveryEvent<F: JobFeed>(F);

impl<F: JobFeed> JobFeed for EveryEvent<F> {
    fn next_event_at(&self) -> Option<SimTime> {
        self.0.next_event_at()
    }

    fn admit(&mut self, now: SimTime, claimed: &BTreeSet<NodeId>) -> Vec<JobDag> {
        self.0.admit(now, claimed)
    }

    fn on_job_retired(&mut self, now: SimTime, job: JobId) {
        self.0.on_job_retired(now, job)
    }

    fn exhausted(&self) -> bool {
        self.0.exhausted()
    }

    fn backlog(&self) -> usize {
        self.0.backlog()
    }
}

/// Forwards every [`JobFeed`] method, counting admission passes and
/// noting how many workers (hosts the runtime claims) each admitted job
/// has.
struct Counted<F: JobFeed> {
    inner: F,
    admits: usize,
    workers: BTreeMap<JobId, usize>,
}

impl<F: JobFeed> JobFeed for Counted<F> {
    fn next_event_at(&self) -> Option<SimTime> {
        self.inner.next_event_at()
    }

    fn wants_admission(&self, now: SimTime) -> bool {
        self.inner.wants_admission(now)
    }

    fn admit(&mut self, now: SimTime, claimed: &BTreeSet<NodeId>) -> Vec<JobDag> {
        self.admits += 1;
        let jobs = self.inner.admit(now, claimed);
        for dag in &jobs {
            self.workers.insert(dag.job, dag.workers().len());
        }
        jobs
    }

    fn on_job_retired(&mut self, now: SimTime, job: JobId) {
        self.inner.on_job_retired(now, job)
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }

    fn backlog(&self) -> usize {
        self.inner.backlog()
    }
}

struct GateRun {
    digest: u64,
    records: Vec<JobRecord>,
    admits: usize,
    workers: BTreeMap<JobId, usize>,
}

/// Streams `cfg` through a [`ServiceFeed`] under echelon MADD, the feed
/// wrapped by `wrap`; `records` reads the feed back out of the wrapper.
fn stream<F: JobFeed>(
    topo: &Topology,
    cfg: &OpenLoopConfig,
    wrap: impl FnOnce(ServiceFeed) -> F,
    records: impl Fn(&F) -> &ServiceFeed,
) -> GateRun {
    let bus: LifecycleBus = Rc::new(RefCell::new(VecDeque::new()));
    let feed = ServiceFeed::streaming_on(
        topo,
        cfg.clone(),
        &ServiceConfig::default(),
        Some(bus.clone()),
    );
    let mut feed = Counted {
        inner: wrap(feed),
        admits: 0,
        workers: BTreeMap::new(),
    };
    let mut policy = ServicePolicy::open(SchedulerKind::Echelon, bus);
    let result = run_jobs_fed(topo, &mut feed, &mut policy, &FaultPlan::empty());
    GateRun {
        digest: completion_digest(&result),
        records: records(&feed.inner).records().to_vec(),
        admits: feed.admits,
        workers: feed.workers,
    }
}

/// Gated vs every-event admission on an overloaded, DpPs-only stream,
/// under every admission-time policy: identical digests, admission
/// times and host sets. DpPs jobs are the case the
/// gate's settle rule is built around — their parameter-server host is
/// placed but never claimed by the runtime.
#[test]
fn gated_admission_matches_every_event_admission() {
    let topo = FatTree::new(4).build_fabric();
    for policy in PlacementPolicy::ALL {
        let placement = ServicePlacement::AtAdmission(policy.with_seed(5));
        let mut cfg = OpenLoopConfig::default_tiers(0xA0D, 40, 16, 0.2);
        cfg.mix = vec![(ParadigmKind::DpPs, 1.0)];
        cfg.placement = placement;
        let gated = stream(&topo, &cfg, |f| f, |f| f);
        let every = stream(&topo, &cfg, EveryEvent, |f| &f.0);
        let name = format!("{placement:?}");
        assert_eq!(gated.digest, every.digest, "{name}: digests diverged");
        assert_eq!(gated.records.len(), every.records.len(), "{name}");
        for (g, e) in gated.records.iter().zip(&every.records) {
            assert_eq!(g.job, e.job, "{name}");
            assert_eq!(g.admitted_at, e.admitted_at, "{name}: {} admitted", g.job);
            assert_eq!(g.hosts, e.hosts, "{name}: {} placed", g.job);
        }
        assert!(
            gated.admits * 2 < every.admits,
            "{name}: gate skipped too few passes ({} vs {})",
            gated.admits,
            every.admits
        );
        assert!(
            gated.records.iter().any(|r| gated
                .workers
                .get(&r.job)
                .is_some_and(|&w| r.hosts.len() > w)),
            "{name}: no admitted job holds an unclaimed host"
        );
    }
}
