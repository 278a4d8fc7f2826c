//! Job descriptions, handles, and the job state machine.

use std::sync::Arc;
use std::time::Duration;

use tcevd_core::SymEigOptions;
use tcevd_matrix::Mat;
use tcevd_testmat::FaultPlan;

/// Scheduling priority. Higher-priority jobs dequeue first, and under
/// overload an incoming higher-priority job may shed a queued lower-priority
/// one ([`crate::EvdError::Overloaded`] is returned to the shed job).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Shed first under overload.
    Low,
    /// The default.
    Normal,
    /// Dequeues before everything else; sheds last.
    High,
}

/// One EVD submission.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Job name: the isolation and metrics label (`serve.job.<name>.*`
    /// counters, fault-plan scoping, Prometheus `job=` label). Should be
    /// unique within a workload.
    pub name: String,
    /// The symmetric input matrix (shared, so retries re-run without a
    /// per-attempt copy).
    pub matrix: Arc<Mat<f32>>,
    /// Pipeline configuration. `threads` is overridden by the scheduler:
    /// small jobs run on one thread (the workers are the parallelism),
    /// large jobs get the configured pool.
    pub opts: SymEigOptions,
    /// Scheduling priority.
    pub priority: Priority,
    /// Per-attempt compute budget. `None` = no deadline. The budget is
    /// enforced cooperatively at the pipeline's stage seams, surfacing as
    /// [`crate::EvdError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// How many times a failed attempt may be retried (0 = fail fast).
    /// Invalid-input and overload rejections are never retried.
    pub retries: u32,
    /// Chaos-suite fault plan, armed on the worker running this job's
    /// *first* attempt (one-shot hooks are consumed by that attempt, so a
    /// retry legitimately runs clean). Plans scoped to a different job name
    /// are ignored.
    pub faults: Option<FaultPlan>,
}

impl JobSpec {
    /// A job with default options (eigenvalues + eigenvectors), normal
    /// priority, no deadline, no retries.
    pub fn new(name: impl Into<String>, matrix: Mat<f32>) -> Self {
        JobSpec {
            name: name.into(),
            matrix: Arc::new(matrix),
            opts: SymEigOptions {
                vectors: true,
                ..SymEigOptions::default()
            },
            priority: Priority::Normal,
            deadline: None,
            retries: 0,
            faults: None,
        }
    }

    /// Replace the pipeline options.
    pub fn with_opts(mut self, opts: SymEigOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Set the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set the per-attempt compute budget.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Set the retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Attach a chaos-suite fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// Opaque handle returned by [`crate::EvdService::submit`]; poll or wait
/// on it for the job's result.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct JobHandle {
    pub(crate) id: u64,
}

/// The job state machine (DESIGN.md §11):
///
/// ```text
/// queued ──→ running ──→ {done, failed, timed-out}
///   │            │
///   │            └──→ retried ──→ queued (attempt + 1)
///   └──→ shed  (displaced by a higher-priority submission under overload)
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the admission queue.
    Queued,
    /// Executing on a worker (or inline in `run_pending`).
    Running,
    /// A failed attempt was re-enqueued; holds the next attempt number.
    Retried {
        /// 1-based attempt about to run.
        attempt: u32,
    },
    /// Terminal: completed with a result.
    Done,
    /// Terminal: failed with a typed error (retry budget exhausted).
    Failed,
    /// Terminal: displaced from the queue by priority-aware shedding.
    Shed,
    /// Terminal: the compute budget expired (final attempt was cancelled).
    TimedOut,
}

impl JobState {
    /// Whether the job has finished (a result or error is available).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Shed | JobState::TimedOut
        )
    }
}
