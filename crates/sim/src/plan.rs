//! Immutable run descriptions: what to evaluate, separated from how (and
//! how fast) it is executed.
//!
//! An [`EvalJob`] names one (mix, scheduler, overrides) evaluation; an
//! [`EvalPlan`] is an ordered list of jobs. Plans carry no simulator state,
//! so they can be built up-front, inspected, and fanned across worker
//! threads by [`crate::Harness::run_plan`] — results always come back in
//! plan order, independent of execution order. A comparison is built as a
//! [`crate::experiments::SweepPlan`]: labeled rows crossed with mixes, over
//! one flat `EvalPlan`.

use parbs::ThreadPriority;
use parbs_dram::{Geometry, MappingPolicy};
use parbs_workloads::MixSpec;

use crate::SchedulerKind;

/// Per-job replacements for the harness base configuration: the thread QoS
/// settings (NFQ/STFM share weights and PAR-BS priority levels — the
/// Section 5 / Fig. 14 experiments) and the DRAM shape (geometry and
/// address-mapping policy — the Section 6 sensitivity studies).
///
/// An **empty** vector / `None` means "inherit the harness base
/// configuration" for that field; a non-empty vector or `Some` replaces it
/// wholesale for this job only. The base configuration itself is never
/// mutated. Geometry and mapping overrides apply to the shared run *and*
/// its alone baselines — slowdowns always compare against the same memory
/// system the mix ran on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvalOverrides {
    /// NFQ/STFM share weights per thread (empty = inherit base).
    pub weights: Vec<f64>,
    /// PAR-BS priority levels per thread (empty = inherit base).
    pub priorities: Vec<ThreadPriority>,
    /// DRAM geometry replacement (`None` = inherit base).
    pub geometry: Option<Geometry>,
    /// Address-mapping policy replacement (`None` = inherit base).
    pub mapping: Option<MappingPolicy>,
}

impl EvalOverrides {
    /// No overrides: the job runs with the harness base configuration.
    #[must_use]
    pub fn none() -> Self {
        EvalOverrides::default()
    }
}

/// One evaluation to perform: a mix, a scheduler, and the
/// [`EvalOverrides`] it runs with. Jobs are plain data — cheap to clone,
/// [`Send`], and independent of any harness.
#[derive(Debug, Clone)]
pub struct EvalJob {
    /// The multiprogrammed workload to run shared.
    pub mix: MixSpec,
    /// The memory scheduler to run it under.
    pub kind: SchedulerKind,
    /// Replacements for the harness base configuration in this job.
    pub overrides: EvalOverrides,
}

impl EvalJob {
    /// A job with no overrides.
    #[must_use]
    pub fn new(mix: MixSpec, kind: SchedulerKind) -> Self {
        EvalJob { mix, kind, overrides: EvalOverrides::none() }
    }
}

/// An ordered list of [`EvalJob`]s. The order is the contract: executors
/// must return one [`crate::MixEvaluation`] per job, collated in plan
/// order, so a plan run at any `--jobs` level produces identical output.
#[derive(Debug, Clone, Default)]
pub struct EvalPlan {
    jobs: Vec<EvalJob>,
}

impl EvalPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        EvalPlan::default()
    }

    /// Appends a job.
    pub fn push(&mut self, job: EvalJob) {
        self.jobs.push(job);
    }

    /// The full cross product: every mix under every kind, kind-major (all
    /// mixes of the first kind, then all mixes of the second, ...) — the
    /// same order as the serial sweeps of Section 8.
    #[must_use]
    pub fn product(mixes: &[MixSpec], kinds: &[SchedulerKind]) -> Self {
        kinds
            .iter()
            .flat_map(|kind| mixes.iter().map(|mix| EvalJob::new(mix.clone(), kind.clone())))
            .collect()
    }

    /// The jobs, in plan order.
    #[must_use]
    pub fn jobs(&self) -> &[EvalJob] {
        &self.jobs
    }

    /// Number of jobs in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the plan holds no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

impl FromIterator<EvalJob> for EvalPlan {
    fn from_iter<I: IntoIterator<Item = EvalJob>>(iter: I) -> Self {
        EvalPlan { jobs: iter.into_iter().collect() }
    }
}

impl<'a> IntoIterator for &'a EvalPlan {
    type Item = &'a EvalJob;
    type IntoIter = std::slice::Iter<'a, EvalJob>;

    fn into_iter(self) -> Self::IntoIter {
        self.jobs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parbs_workloads::case_study_1;

    #[test]
    fn product_is_kind_major() {
        let mixes = [case_study_1(), case_study_1()];
        let kinds = [SchedulerKind::FrFcfs, SchedulerKind::Fcfs];
        let plan = EvalPlan::product(&mixes, &kinds);
        assert_eq!(plan.len(), 4);
        let order: Vec<&str> = plan.jobs().iter().map(|j| j.kind.name()).collect();
        assert_eq!(order, ["FR-FCFS", "FR-FCFS", "FCFS", "FCFS"]);
    }

    #[test]
    fn plans_collect_from_iterators() {
        let plan: EvalPlan = SchedulerKind::paper_five()
            .into_iter()
            .map(|k| EvalJob::new(case_study_1(), k))
            .collect();
        assert_eq!(plan.len(), 5);
        assert!(!plan.is_empty());
    }
}
