//! The per-job EchelonFlow Agent (paper §5, Fig. 7).
//!
//! "We are inspired by ByteScheduler to build an EchelonFlow Agent as a
//! shim layer between DDLT frameworks and message-passing backends." The
//! framework reports, per EchelonFlow, "the arrangement function and
//! per-flow information (the size, source, and destination)". That record
//! is the [`EchelonFlow`] itself, and a framework with a declared
//! [`JobDag`] has already broken its workflow into them
//! ([`JobDag::echelons`]). The agent hands the job's EchelonFlows to the
//! [`Coordinator`]. Enforcing the returned schedule through priority
//! queues is [`crate::enforce`]'s job.

use crate::coordinator::Coordinator;
use echelon_core::echelon::EchelonFlow;
use echelon_core::JobId;
use echelon_paradigms::dag::JobDag;

/// The per-job shim between framework and coordinator.
#[derive(Debug)]
pub struct EchelonAgent {
    job: JobId,
    echelons: Vec<EchelonFlow>,
}

impl EchelonAgent {
    /// Creates the agent for one job from the framework's declared DAG.
    pub fn from_dag(dag: &JobDag) -> EchelonAgent {
        EchelonAgent {
            job: dag.job,
            echelons: dag.echelons.clone(),
        }
    }

    /// The job this agent serves.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The EchelonFlows the framework reported.
    pub fn echelons(&self) -> &[EchelonFlow] {
        &self.echelons
    }

    /// Moves the job's EchelonFlows into the coordinator. The agent is
    /// consumed, so a job reports once:
    ///
    /// ```compile_fail
    /// # use echelon_agent::prelude::*;
    /// # use echelon_core::JobId;
    /// # use echelon_paradigms::{config::PpConfig, ids::IdAlloc, pp::build_pp_gpipe};
    /// let dag = build_pp_gpipe(JobId(0), &PpConfig::fig2(), &mut IdAlloc::new());
    /// let mut coordinator = Coordinator::new(CoordinatorConfig::default());
    /// let agent = EchelonAgent::from_dag(&dag);
    /// agent.report_to(&mut coordinator);
    /// agent.report_to(&mut coordinator); // use of moved value
    /// ```
    pub fn report_to(self, coordinator: &mut Coordinator) {
        coordinator.submit_all(self.echelons);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::CoordinatorConfig;
    use echelon_paradigms::config::PpConfig;
    use echelon_paradigms::ids::IdAlloc;
    use echelon_paradigms::pp::build_pp_gpipe;

    /// The agent reports every DAG flow exactly once, in groups that
    /// carry the DAG's job, and the coordinator registers every group.
    #[test]
    fn agent_reports_job_echelons() {
        let mut alloc = IdAlloc::new();
        let dag = build_pp_gpipe(JobId(7), &PpConfig::fig2(), &mut alloc);
        let agent = EchelonAgent::from_dag(&dag);
        assert_eq!(agent.job(), JobId(7));
        assert_eq!(agent.echelons().len(), 2);
        let mut reported: Vec<_> = agent.echelons().iter().flat_map(|h| h.flows()).collect();
        reported.sort_by_key(|f| f.id);
        let mut declared = dag.all_flows();
        declared.sort_by_key(|f| f.id);
        assert_eq!(reported.len(), declared.len());
        assert!(reported.iter().zip(&declared).all(|(r, d)| r.id == d.id));
        for h in agent.echelons() {
            assert_eq!(h.job(), JobId(7));
            assert!(h.total_bytes() > 0.0);
        }
        let mut coord = Coordinator::new(CoordinatorConfig::default());
        agent.report_to(&mut coord);
        assert_eq!(coord.registered_count(), 2);
    }
}
