//! The job vocabulary: what a tenant submits and what it gets back.

use lbist_core::{ModelTag, WideGradingOutcome};
use std::time::Duration;

/// Identifies one submitted job within a [`crate::ControlPlane`].
/// Allocated densely in submission order, never reused.
pub type JobId = u64;

/// Identifies one registered tenant within a [`crate::ControlPlane`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TenantId(pub(crate) usize);

impl TenantId {
    /// The tenant's dense registration index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// What a job should compute: the fault model and the shape of the
/// grading run. Everything the scheduler needs to cost, slice and
/// replay the job deterministically lives here — two jobs with equal
/// specs over equal payloads produce bit-identical verdicts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Fault model to grade under.
    pub model: ModelTag,
    /// Total batches to grade (`batches · lanes` patterns).
    pub batches: u64,
    /// Lanes per pass: 64, 128 or 256. Anything else is rejected at
    /// admission.
    pub lanes: usize,
    /// Scan chains to stitch when preparing the submitted netlist.
    pub chains: usize,
    /// n-detect drop budget forwarded to the grading session
    /// (`u32::MAX` disables dropping; `0` is rejected at admission).
    pub drop_after: u32,
}

impl JobSpec {
    /// A stuck-at spec with the workspace's customary defaults: 64
    /// lanes, 4 chains, drop-after-1.
    pub fn stuck_at(batches: u64) -> Self {
        JobSpec { model: ModelTag::StuckAt, batches, lanes: 64, chains: 4, drop_after: 1 }
    }

    /// A transition-model spec with the same defaults as
    /// [`JobSpec::stuck_at`].
    pub fn transition(batches: u64) -> Self {
        JobSpec { model: ModelTag::Transition, ..JobSpec::stuck_at(batches) }
    }
}

/// The serialized design a job runs against. The control plane trusts
/// nothing here: both byte strings pass through the `lbist-ckpt`
/// envelope (magic, version, kind tag, checksum) and the structural
/// netlist decoder before any cycles are spent on them.
#[derive(Clone, Debug)]
pub struct JobPayload {
    /// A netlist sealed with [`lbist_ckpt::seal_netlist`].
    pub netlist: Vec<u8>,
    /// Optional explicit fault list sealed with
    /// [`lbist_ckpt::seal_faults`]; node indices refer to the submitted
    /// netlist. `None` grades the collapsed representative universe of
    /// the prepared core (the workspace's benchmark convention).
    pub faults: Option<Vec<u8>>,
}

/// How a job's life ended. Every submitted job reaches exactly one of
/// these — the control plane never drops a job on the floor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Ran to its full batch target.
    Completed,
    /// Evicted by overload shedding; the verdict carries whatever
    /// partial coverage the job had accumulated before eviction.
    Shed,
    /// Gave up: the retry budget ran out on a persistent shard failure,
    /// or checkpoint I/O failed.
    Failed,
    /// Never admitted: malformed payload, over-budget cost, bad spec,
    /// or unknown tenant.
    Rejected,
}

/// The terminal record of one job.
#[derive(Clone, Debug)]
pub struct JobVerdict {
    /// The job this verdict closes.
    pub job: JobId,
    /// The tenant that submitted it.
    pub tenant: TenantId,
    /// How the job ended.
    pub disposition: Disposition,
    /// The coverage verdict: complete for [`Disposition::Completed`],
    /// the last preemption-point partial (if any) for shed and failed
    /// jobs, `None` for rejected jobs.
    pub outcome: Option<WideGradingOutcome>,
    /// Batches fully graded across every slice the job ran.
    pub batches_done: u64,
    /// Times the job was preempted at a batch boundary and parked.
    pub preemptions: u32,
    /// Times a slice died to a shard panic and the job was retried.
    pub retries: u32,
    /// Human-readable cause for non-completed dispositions.
    pub reason: Option<String>,
    /// Submission-to-verdict wall-clock time.
    pub latency: Duration,
}

impl JobVerdict {
    /// The timing-free identity of the verdict's outcome
    /// ([`WideGradingOutcome::digest`]), if it has one — equal digests
    /// mean a preempted-and-resumed job graded bit-identically to an
    /// uninterrupted run.
    pub fn digest(&self) -> Option<u64> {
        self.outcome.as_ref().map(WideGradingOutcome::digest)
    }
}
