//! The control plane proper: admission, weighted fair scheduling,
//! checkpoint-backed preemption, retry and shedding.
//!
//! # Scheduling model
//!
//! Tenants are stride-scheduled: each carries a `pass` counter that
//! advances by `slice · SCALE / weight` whenever one of its jobs
//! receives a slice, and the runnable tenant with the lowest pass is
//! always served next. A weight-4 tenant therefore receives four
//! slices for every one a weight-1 tenant gets, without starving
//! anyone — every tenant's pass eventually becomes the minimum.
//!
//! # Preemption
//!
//! A slice is a *controlled* grading run with `budget = slice` batches
//! and a final-only checkpoint spec (`every = 0`). The budget check
//! sits at the top of the engine's batch loop, so a preempted job
//! parks at an exact batch boundary; the checkpoint is written once,
//! on controlled exit. A slice that dies mid-batch to a shard panic
//! never reaches that write, so the previously parked state survives
//! intact and a retry resumes from the last good boundary — or from
//! scratch if the job never completed a slice. Determinism of the
//! grading engine makes either path bit-identical to an uninterrupted
//! run, which [`crate::JobVerdict::digest`] lets callers verify.

use crate::cache::{AssetCache, CacheStats, JobAssets};
use crate::job::{Disposition, JobId, JobPayload, JobSpec, JobVerdict, TenantId};
use lbist_ckpt::CkptError;
use lbist_core::{
    CheckpointSpec, ControlledGradingOutcome, ModelTag, RunControl, RunStatus, StumpsConfig,
    WideGradingOutcome, WideGradingSession,
};
use lbist_exec::{retry_backoff, LaneWord, RetryPolicy, ShardPanic};
use lbist_fault::{CaptureWindow, Fault, FaultModel, StuckAt, Transition};
use lbist_netlist::Netlist;
use lbist_obs::{Counter, Gauge, Histogram, Registry};
use lbist_sim::KernelProgram;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Stride-scheduling pass resolution: `SCALE / weight` must stay
/// meaningfully distinct across reasonable weights.
const STRIDE_SCALE: u64 = 1 << 20;

/// Distinguishes concurrently live control planes (and test processes)
/// sharing one temp directory.
static SPOOL_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// What the admission gate enforces before a job may queue.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionPolicy {
    /// Reject any job whose estimated cost — submitted gate count ×
    /// batch target × lane count — exceeds this.
    pub max_job_cost: u64,
    /// Queue depth bound: admitting a job beyond this sheds the
    /// costliest queued job (by remaining work) with a partial verdict.
    pub max_queue_depth: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy { max_job_cost: u64::MAX, max_queue_depth: 64 }
    }
}

/// Control-plane configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Admission gate.
    pub admission: AdmissionPolicy,
    /// Batches a job may grade per scheduling slice before it is
    /// preempted and parked (minimum 1).
    pub slice_batches: u64,
    /// Prepared-design cache capacity (entries; minimum 1).
    pub cache_capacity: usize,
    /// Directory for parked-job checkpoints. `None` creates a fresh
    /// per-instance directory under the system temp dir and removes it
    /// when the plane drops.
    pub spool_dir: Option<PathBuf>,
    /// Job-level retry policy for slices killed by shard panics:
    /// `max_retries` bounds attempts, `backoff` seeds the exponential,
    /// deterministically jittered delay ([`lbist_exec::retry_backoff`]).
    pub retry: RetryPolicy,
    /// Grading worker budget forwarded to every session (`None` uses
    /// the engine default; `Some(0)` is refused by [`ControlPlane::new`]).
    pub threads: Option<usize>,
    /// Disable the fill/grade pipeline overlap so every shard dispatch
    /// is issued from the scheduler's thread. Required under
    /// `lbist_exec::chaos` plans (the plan is thread-local); results
    /// are bit-identical either way.
    pub sequential: bool,
    /// Metrics registry the plane registers its `serve.*` counters in.
    /// `None` creates a private enabled registry, so
    /// [`ControlPlane::metrics`] is exact per plane; supplying a shared
    /// registry (e.g. [`lbist_obs::global`]) aggregates across planes
    /// that share it.
    pub registry: Option<Registry>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            admission: AdmissionPolicy::default(),
            slice_batches: 4,
            cache_capacity: 4,
            spool_dir: None,
            retry: RetryPolicy::default(),
            threads: None,
            sequential: false,
            registry: None,
        }
    }
}

/// Scheduler-wide counters, read out of the plane's metrics registry.
/// `submitted = accepted + rejected`, and every accepted job ends in
/// exactly one of `completed`, `failed` or `shed` — until then it
/// counts toward [`ControlPlane::queue_depth`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneMetrics {
    /// Jobs ever submitted.
    pub submitted: u64,
    /// Jobs past admission.
    pub accepted: u64,
    /// Jobs refused at admission.
    pub rejected: u64,
    /// Accepted jobs evicted by overload shedding.
    pub shed: u64,
    /// Accepted jobs that reached their full batch target.
    pub completed: u64,
    /// Accepted jobs that exhausted retries or hit checkpoint I/O
    /// errors.
    pub failed: u64,
    /// Preempt-and-park events across all jobs.
    pub preemptions: u64,
    /// Slice retries after shard panics across all jobs.
    pub retries: u64,
    /// Default-fault admissions that reused a cached compiled kernel
    /// program.
    pub kernel_cache_hits: u64,
    /// Default-fault admissions that lowered the design's kernel
    /// program for the first time.
    pub kernel_cache_misses: u64,
}

/// The plane's live handles into its registry: lifecycle counters
/// (`serve.submitted` …), the queue-depth gauge, and the queue-wait /
/// slice-latency histograms. Timing lands only in telemetry — verdicts,
/// digests and checkpoints never read these.
struct PlaneCounters {
    submitted: Counter,
    accepted: Counter,
    rejected: Counter,
    shed: Counter,
    completed: Counter,
    failed: Counter,
    preemptions: Counter,
    retries: Counter,
    kernel_cache_hits: Counter,
    kernel_cache_misses: Counter,
    queue_depth: Gauge,
    queue_wait_ns: Histogram,
    slice_ns: Histogram,
}

impl PlaneCounters {
    fn register(registry: &Registry) -> Self {
        PlaneCounters {
            submitted: registry.counter("serve.submitted"),
            accepted: registry.counter("serve.accepted"),
            rejected: registry.counter("serve.rejected"),
            shed: registry.counter("serve.shed"),
            completed: registry.counter("serve.completed"),
            failed: registry.counter("serve.failed"),
            preemptions: registry.counter("serve.preemptions"),
            retries: registry.counter("serve.retries"),
            kernel_cache_hits: registry.counter("serve.kernel_cache_hits"),
            kernel_cache_misses: registry.counter("serve.kernel_cache_misses"),
            queue_depth: registry.gauge("serve.queue_depth"),
            queue_wait_ns: registry.histogram("serve.queue_wait_ns"),
            slice_ns: registry.histogram("serve.slice_ns"),
        }
    }
}

struct Tenant {
    #[allow(dead_code)]
    name: String,
    weight: u64,
    pass: u64,
}

struct QueuedJob {
    id: JobId,
    tenant: TenantId,
    spec: JobSpec,
    assets: Arc<JobAssets>,
    faults: Arc<Vec<Fault>>,
    /// The compiled simulation program every slice of this job replays:
    /// the design's cached kernel for default-fault jobs, a job-private
    /// lowering for custom fault lists.
    kernel: Arc<KernelProgram>,
    gates: u64,
    batches_done: u64,
    preemptions: u32,
    retries: u32,
    partial: Option<WideGradingOutcome>,
    submitted: Instant,
    /// When the job last entered the queue (set at admission, reset on
    /// every preempt/retry re-queue) — the `serve.queue_wait_ns` clock.
    enqueued: Instant,
    ckpt: PathBuf,
    has_ckpt: bool,
}

/// What admission hands the queue for an accepted job.
struct Admitted {
    assets: Arc<JobAssets>,
    faults: Arc<Vec<Fault>>,
    kernel: Arc<KernelProgram>,
    gates: u64,
}

impl QueuedJob {
    /// Work still owed to this job, in the admission cost unit — the
    /// shedding victim metric.
    fn remaining_cost(&self) -> u64 {
        self.gates
            .saturating_mul(self.spec.batches.saturating_sub(self.batches_done))
            .saturating_mul(self.spec.lanes as u64)
    }
}

/// The in-process multi-tenant job scheduler over the grading engine.
///
/// Lifecycle: [`register_tenant`](ControlPlane::register_tenant), then
/// any interleaving of [`submit`](ControlPlane::submit) and
/// [`run_until_idle`](ControlPlane::run_until_idle); finished jobs
/// accumulate in [`verdicts`](ControlPlane::verdicts). Every submitted
/// job reaches exactly one terminal [`Disposition`].
pub struct ControlPlane {
    cfg: ServeConfig,
    tenants: Vec<Tenant>,
    queue: Vec<QueuedJob>,
    verdicts: Vec<JobVerdict>,
    cache: AssetCache,
    registry: Registry,
    counters: PlaneCounters,
    next_job: JobId,
    spool: PathBuf,
    owns_spool: bool,
}

impl ControlPlane {
    /// Builds a control plane, creating the checkpoint spool directory.
    ///
    /// Refuses a zero grading worker budget (`threads: Some(0)`), which
    /// would fail every slice.
    pub fn new(cfg: ServeConfig) -> Result<Self, CkptError> {
        if cfg.threads == Some(0) {
            return Err(CkptError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "ServeConfig::threads must be at least 1",
            )));
        }
        let (spool, owns_spool) = match cfg.spool_dir.clone() {
            Some(dir) => (dir, false),
            None => {
                let instance = SPOOL_INSTANCE.fetch_add(1, Ordering::Relaxed);
                let dir = std::env::temp_dir()
                    .join(format!("lbist-serve-{}-{instance}", std::process::id()));
                (dir, true)
            }
        };
        std::fs::create_dir_all(&spool).map_err(CkptError::Io)?;
        let cache = AssetCache::new(cfg.cache_capacity);
        let registry = cfg.registry.clone().unwrap_or_default();
        let counters = PlaneCounters::register(&registry);
        Ok(ControlPlane {
            cfg,
            tenants: Vec::new(),
            queue: Vec::new(),
            verdicts: Vec::new(),
            cache,
            registry,
            counters,
            next_job: 0,
            spool,
            owns_spool,
        })
    }

    /// Registers a tenant with a scheduling `weight` (clamped to ≥ 1):
    /// a weight-4 tenant receives 4× the slices of a weight-1 tenant
    /// under contention. A tenant registered late starts at the current
    /// minimum pass, so it cannot retroactively claim service.
    pub fn register_tenant(&mut self, name: &str, weight: u64) -> TenantId {
        let pass = self.tenants.iter().map(|t| t.pass).min().unwrap_or(0);
        self.tenants.push(Tenant { name: name.to_string(), weight: weight.max(1), pass });
        TenantId(self.tenants.len() - 1)
    }

    /// Submits a job. Always returns the job's id; whether it was
    /// accepted is visible in [`metrics`](ControlPlane::metrics) and —
    /// for rejections — as an immediate [`Disposition::Rejected`]
    /// verdict. Admitting a job over the queue-depth bound sheds the
    /// costliest queued job (never the rejection of the newcomer:
    /// admission is cost-based, shedding is load-based).
    pub fn submit(&mut self, tenant: TenantId, spec: JobSpec, payload: &JobPayload) -> JobId {
        let id = self.next_job;
        self.next_job += 1;
        self.counters.submitted.inc();
        let submitted = Instant::now();
        match self.admit(tenant, &spec, payload) {
            Ok(Admitted { assets, faults, kernel, gates }) => {
                self.counters.accepted.inc();
                let ckpt = self.spool.join(format!("job-{id}.ckpt"));
                self.queue.push(QueuedJob {
                    id,
                    tenant,
                    spec,
                    assets,
                    faults,
                    kernel,
                    gates,
                    batches_done: 0,
                    preemptions: 0,
                    retries: 0,
                    partial: None,
                    submitted,
                    enqueued: submitted,
                    ckpt,
                    has_ckpt: false,
                });
                self.shed_overflow();
                self.sync_queue_gauge();
            }
            Err(reason) => {
                self.counters.rejected.inc();
                self.verdicts.push(JobVerdict {
                    job: id,
                    tenant,
                    disposition: Disposition::Rejected,
                    outcome: None,
                    batches_done: 0,
                    preemptions: 0,
                    retries: 0,
                    reason: Some(reason),
                    latency: submitted.elapsed(),
                });
            }
        }
        id
    }

    /// Runs at most one scheduling slice (the fairest eligible job's
    /// next quantum). Returns `false` when nothing is queued — useful
    /// for interleaving submissions with service.
    pub fn run_once(&mut self) -> bool {
        match self.pick_next() {
            Some(idx) => {
                self.run_slice(idx);
                true
            }
            None => false,
        }
    }

    /// Runs slices until no job is queued. Fairness, preemption, retry
    /// and shedding all play out inside; afterwards every accepted job
    /// has a terminal verdict.
    pub fn run_until_idle(&mut self) {
        while self.run_once() {}
    }

    /// Terminal verdicts in completion order.
    pub fn verdicts(&self) -> &[JobVerdict] {
        &self.verdicts
    }

    /// The verdict for `job`, if it has reached one.
    pub fn verdict(&self, job: JobId) -> Option<&JobVerdict> {
        self.verdicts.iter().find(|v| v.job == job)
    }

    /// Scheduler-wide counters, read back out of the plane's registry.
    /// Exact for a plane with a private registry (the default); with a
    /// shared [`ServeConfig::registry`] the values aggregate every
    /// plane registered against it.
    pub fn metrics(&self) -> PlaneMetrics {
        PlaneMetrics {
            submitted: self.counters.submitted.value(),
            accepted: self.counters.accepted.value(),
            rejected: self.counters.rejected.value(),
            shed: self.counters.shed.value(),
            completed: self.counters.completed.value(),
            failed: self.counters.failed.value(),
            preemptions: self.counters.preemptions.value(),
            retries: self.counters.retries.value(),
            kernel_cache_hits: self.counters.kernel_cache_hits.value(),
            kernel_cache_misses: self.counters.kernel_cache_misses.value(),
        }
    }

    /// The registry holding this plane's `serve.*` metrics — snapshot
    /// it (`registry().snapshot()`) to export queue-wait and
    /// slice-latency histograms alongside the lifecycle counters.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Prepared-design cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Jobs currently queued (admitted, not yet terminal).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    fn admit(
        &mut self,
        tenant: TenantId,
        spec: &JobSpec,
        payload: &JobPayload,
    ) -> Result<Admitted, String> {
        if tenant.0 >= self.tenants.len() {
            return Err(format!("unknown tenant {}", tenant.0));
        }
        if !matches!(spec.lanes, 64 | 128 | 256) {
            return Err(format!("unsupported lane width {} (want 64, 128 or 256)", spec.lanes));
        }
        if spec.batches == 0 {
            return Err("zero-batch job".to_string());
        }
        if spec.drop_after == 0 {
            return Err("zero drop budget (a fault drops after at least 1 detection)".to_string());
        }
        let netlist =
            lbist_ckpt::open_netlist(&payload.netlist).map_err(|e| format!("bad netlist: {e}"))?;
        let fingerprint = lbist_ckpt::netlist_fingerprint(&netlist);
        let gates = netlist.gate_count().max(1) as u64;
        let cost = gates.saturating_mul(spec.batches).saturating_mul(spec.lanes as u64);
        if cost > self.cfg.admission.max_job_cost {
            return Err(format!(
                "cost {cost} (gates {gates} x batches {} x lanes {}) exceeds per-job budget {}",
                spec.batches, spec.lanes, self.cfg.admission.max_job_cost
            ));
        }
        let assets = self.cache.get_or_build(fingerprint, spec.chains, &netlist)?;
        let (faults, custom) = match &payload.faults {
            Some(bytes) => {
                let faults =
                    lbist_ckpt::open_faults(bytes).map_err(|e| format!("bad fault list: {e}"))?;
                validate_faults(&faults, &netlist, spec.model)?;
                (Arc::new(faults), true)
            }
            None => (assets.default_faults(spec.model), false),
        };
        if faults.is_empty() {
            return Err("empty fault list".to_string());
        }
        let kernel = if custom {
            // Custom fault lists get a job-private lowering whose keep
            // set covers exactly this job's sites; slices replay it
            // without re-lowering.
            let observed = lbist_fault::StuckAtSim::observe_all_captures(&assets.cc);
            let keep = lbist_fault::grading_keep_set(&assets.cc, &[faults.as_slice()], &observed);
            Arc::new(KernelProgram::lower(&assets.cc, &keep))
        } else {
            // Default-fault jobs share one program per cached design.
            if assets.kernel_ready() {
                self.counters.kernel_cache_hits.inc();
            } else {
                self.counters.kernel_cache_misses.inc();
            }
            assets.kernel_program()
        };
        Ok(Admitted { assets, faults, kernel, gates })
    }

    /// Sheds until the queue depth bound holds: victim = largest
    /// remaining work, ties to the newest job. The victim's verdict
    /// carries its last preemption-point partial coverage — a shed job
    /// is *answered*, never dropped.
    fn shed_overflow(&mut self) {
        while self.queue.len() > self.cfg.admission.max_queue_depth {
            let idx = self
                .queue
                .iter()
                .enumerate()
                .max_by_key(|(_, j)| (j.remaining_cost(), j.id))
                .map(|(i, _)| i)
                .expect("queue over bound is non-empty");
            let job = self.queue.swap_remove(idx);
            self.counters.shed.inc();
            let reason = format!(
                "shed under overload: queue depth exceeded {}",
                self.cfg.admission.max_queue_depth
            );
            let outcome = job.partial.clone();
            self.finish(job, Disposition::Shed, outcome, Some(reason));
        }
    }

    /// The queue index to serve next: the runnable tenant with the
    /// lowest pass (ties to the lower tenant index), then that tenant's
    /// earliest-submitted job.
    fn pick_next(&self) -> Option<usize> {
        let tenant =
            self.queue.iter().map(|j| j.tenant.0).min_by_key(|&t| (self.tenants[t].pass, t))?;
        self.queue
            .iter()
            .enumerate()
            .filter(|(_, j)| j.tenant.0 == tenant)
            .min_by_key(|(_, j)| j.id)
            .map(|(i, _)| i)
    }

    fn sync_queue_gauge(&self) {
        self.counters.queue_depth.set(self.queue.len() as i64);
    }

    fn run_slice(&mut self, idx: usize) {
        let mut job = self.queue.swap_remove(idx);
        self.counters.queue_wait_ns.record(saturating_ns(job.enqueued.elapsed()));
        let slice = self
            .cfg
            .slice_batches
            .max(1)
            .min(job.spec.batches.saturating_sub(job.batches_done))
            .max(1);
        let control = RunControl {
            cancel: None,
            budget: Some(slice),
            // `every = 0`: the checkpoint is written once, on controlled
            // exit. A slice that panics mid-batch never reaches that
            // write, so the previously parked state stays consistent.
            checkpoint: Some(CheckpointSpec::new(job.ckpt.clone(), 0)),
            resume: job.has_ckpt,
        };
        // The pass advances whether the slice survives or not: a tenant
        // whose jobs keep dying still consumed its turn.
        self.charge(job.tenant, slice);

        let caught = {
            let _slice_span = self.counters.slice_ns.start();
            panic::catch_unwind(AssertUnwindSafe(|| {
                run_controlled_slice(&job, &control, &self.cfg)
            }))
        };
        match caught {
            Ok(Ok(res)) => {
                job.batches_done = res.batches_done;
                match res.status {
                    RunStatus::Completed => {
                        self.counters.completed.inc();
                        self.finish(job, Disposition::Completed, Some(res.outcome), None);
                    }
                    RunStatus::BudgetExhausted => {
                        job.partial = Some(res.outcome);
                        job.has_ckpt = true;
                        job.preemptions += 1;
                        self.counters.preemptions.inc();
                        job.enqueued = Instant::now();
                        self.queue.push(job);
                    }
                    RunStatus::Cancelled(reason) => {
                        // The plane never arms a cancel token; reaching
                        // here means an external token was smuggled in.
                        self.counters.failed.inc();
                        self.finish(
                            job,
                            Disposition::Failed,
                            Some(res.outcome),
                            Some(format!("cancelled: {reason:?}")),
                        );
                    }
                }
            }
            Ok(Err(e)) => {
                self.counters.failed.inc();
                let outcome = job.partial.clone();
                self.finish(
                    job,
                    Disposition::Failed,
                    outcome,
                    Some(format!("checkpoint error: {e}")),
                );
            }
            Err(payload) => {
                job.retries += 1;
                self.counters.retries.inc();
                let reason = describe_panic(payload.as_ref());
                if job.retries > self.cfg.retry.max_retries {
                    self.counters.failed.inc();
                    let attempts = job.retries;
                    let outcome = job.partial.clone();
                    self.finish(
                        job,
                        Disposition::Failed,
                        outcome,
                        Some(format!("gave up after {attempts} attempts: {reason}")),
                    );
                } else {
                    let delay = retry_backoff(&self.cfg.retry, job.retries - 1, job.id as usize);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    job.enqueued = Instant::now();
                    self.queue.push(job);
                }
            }
        }
        self.sync_queue_gauge();
    }

    fn charge(&mut self, tenant: TenantId, slice: u64) {
        let t = &mut self.tenants[tenant.0];
        t.pass = t.pass.saturating_add(slice.saturating_mul(STRIDE_SCALE) / t.weight);
    }

    fn finish(
        &mut self,
        job: QueuedJob,
        disposition: Disposition,
        outcome: Option<WideGradingOutcome>,
        reason: Option<String>,
    ) {
        if job.has_ckpt {
            // Best-effort: a stale spool file cannot corrupt anything
            // (resume is fingerprint-bound and per-job-path).
            let _ = std::fs::remove_file(&job.ckpt);
        }
        self.verdicts.push(JobVerdict {
            job: job.id,
            tenant: job.tenant,
            disposition,
            outcome,
            batches_done: job.batches_done,
            preemptions: job.preemptions,
            retries: job.retries,
            reason,
            latency: job.submitted.elapsed(),
        });
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        if self.owns_spool {
            let _ = std::fs::remove_dir_all(&self.spool);
        }
    }
}

/// Everything the grading sims would `assert!` on is screened here
/// instead, so a hostile fault list costs a rejection, not a retry
/// cascade: node indices must be in range for the *submitted* netlist
/// (preparation appends nodes, never renumbers), and every fault must
/// pass the model's own [`FaultModel::accepts`] — the predicate the
/// simulators assert.
fn validate_faults(faults: &[Fault], netlist: &Netlist, model: ModelTag) -> Result<(), String> {
    for (i, f) in faults.iter().enumerate() {
        if f.node.index() >= netlist.len() {
            return Err(format!(
                "fault {i} names node {} but the netlist has {} nodes",
                f.node.index(),
                netlist.len()
            ));
        }
        let compatible = match model {
            ModelTag::StuckAt => StuckAt::accepts(f),
            ModelTag::Transition => Transition::accepts(f),
        };
        if !compatible {
            return Err(format!("fault {i} ({:?}) does not fit the {model:?} model", f.kind));
        }
    }
    Ok(())
}

fn run_controlled_slice(
    job: &QueuedJob,
    control: &RunControl,
    cfg: &ServeConfig,
) -> Result<ControlledGradingOutcome, CkptError> {
    match job.spec.lanes {
        64 => run_controlled::<u64>(job, control, cfg),
        128 => run_controlled::<u128>(job, control, cfg),
        _ => run_controlled::<[u64; 4]>(job, control, cfg),
    }
}

fn run_controlled<W: LaneWord>(
    job: &QueuedJob,
    control: &RunControl,
    cfg: &ServeConfig,
) -> Result<ControlledGradingOutcome, CkptError> {
    let assets = &job.assets;
    let mut session: WideGradingSession<'_, W> =
        WideGradingSession::new(&assets.core, &assets.cc, &StumpsConfig::default());
    if let Some(n) = cfg.threads {
        session.set_threads(n);
    }
    if cfg.sequential {
        session.sequential();
    }
    session.set_kernel_program(job.kernel.clone());
    session.set_drop_after(job.spec.drop_after);
    let faults = job.faults.as_ref().clone();
    let batches = job.spec.batches as usize;
    match job.spec.model {
        ModelTag::StuckAt => session.run_stuck_at_controlled(faults, batches, control),
        ModelTag::Transition => {
            let window = CaptureWindow::all_domains(assets.core.netlist.num_domains().max(1));
            session.run_transition_controlled(faults, window, batches, control)
        }
    }
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(sp) = payload.downcast_ref::<ShardPanic>() {
        return format!(
            "shard {} died after {} attempts: {}",
            sp.shard,
            sp.attempts,
            sp.message().unwrap_or("non-string payload")
        );
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return format!("slice panicked: {s}");
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return format!("slice panicked: {s}");
    }
    "slice panicked with an opaque payload".to_string()
}
