//! The one batch simulator every fault model grades through.
//!
//! [`FaultSim`] owns everything grading does the same way under every
//! model: the level-ordered active-fault list, per-fault detection
//! counts and the n-detect drop budget, the pattern counter, the worker
//! budget and cancel token, the phase timers, the compiled kernel
//! program with its replay plan (both built at the first batch unless a
//! program is installed), the sharded dispatch on the persistent
//! `lbist-exec` work-stealing pool, the serial merge with swap-remove
//! compaction, checkpoint restore and coverage.
//!
//! A [`FaultModel`] supplies only what differs between models: which
//! faults it grades, the nodes its kernel plan reads, the fault-free
//! evaluation of a batch, the kernel's per-shard grader, the serial
//! gate-level reference the kernel is diffed against, and the word the
//! scan unload reads.
//! The two models are [`crate::StuckAt`] (PPSFP over one frame) and
//! [`crate::Transition`] (launch-on-capture across the double-capture
//! window).

use crate::coverage::CoverageReport;
use crate::kernel::KernelScratch;
use crate::phases::SimPhaseMetrics;
use crate::{grading_keep_set, Fault};
use engine::Batch;
use lbist_exec::{CancelToken, LaneWord, RetryPolicy};
use lbist_netlist::NodeId;
use lbist_sim::{CompiledCircuit, KernelProgram};
use std::sync::Arc;

/// How many faults a shard grades between cancellation polls: frequent
/// enough that a fired token unwinds within microseconds of work, rare
/// enough that the atomic load is invisible in profiles.
pub(crate) const CANCEL_POLL_STRIDE: usize = 64;

/// A fault model [`FaultSim`] grades.
///
/// Sealed: the grading machinery a model plugs into [`FaultSim`] is
/// crate-internal, so [`crate::StuckAt`] and [`crate::Transition`] are
/// the only implementations.
pub trait FaultModel: engine::Engine {
    /// `true` when this model grades `fault`. The simulator constructors
    /// assert it for every fault; a service screening untrusted fault
    /// lists calls it to reject what the simulator would refuse.
    fn accepts(fault: &Fault) -> bool;
}

/// The model-specific half of grading, called by [`FaultSim`]. Public
/// only nominally (the module is private), which seals [`FaultModel`].
pub(crate) mod engine {
    use crate::kernel::KernelScratch;
    use crate::Fault;
    use lbist_exec::{CancelToken, LaneWord};
    use lbist_netlist::NodeId;
    use lbist_sim::{CompiledCircuit, KernelProgram};
    use std::fmt::Debug;

    /// Read-only inputs every grader of one batch shares.
    #[derive(Clone, Copy)]
    pub struct Batch<'b, W> {
        /// The circuit under test.
        pub cc: &'b CompiledCircuit,
        /// The whole fault list (active indices point into it).
        pub faults: &'b [Fault],
        /// The caller's batch frame after [`Engine::evaluate`].
        pub frame: &'b [W],
        /// The model's own fault-free frames.
        pub good: &'b [Vec<W>],
        /// Lanes carrying real patterns.
        pub lane_mask: W,
        /// Polled every [`super::CANCEL_POLL_STRIDE`] faults of a kernel
        /// shard.
        pub cancel: Option<&'b CancelToken>,
    }

    /// What a fault model contributes to the shared simulator.
    pub trait Engine: Sized + Send + Sync {
        /// The caller's batch input: a frame the model evaluates in
        /// place (`&mut [W]`) or only reads (`&[W]`).
        type Frame<'f, W: LaneWord + 'f>;
        /// Kernel replay plan, built once per (program, fault list).
        type Plan: Send + Sync + Debug;
        /// Minimum faults per worker shard before another worker is
        /// engaged in auto mode: below it, dispatch costs more than the
        /// grading it spreads.
        const MIN_SHARD_FAULTS: usize;

        /// Lends a caller-owned frame as this model's batch input.
        fn batch_frame<W: LaneWord>(frame: &mut [W]) -> Self::Frame<'_, W>;
        /// Fault-free frames the model keeps per batch.
        fn good_frames(&self) -> usize;
        /// Nodes the kernel plan reads beyond what
        /// [`crate::grading_keep_set`] keeps for the fault list itself:
        /// the lowering [`super::FaultSim`] does at its first batch keeps
        /// them materialized.
        fn plan_reads(&self) -> Vec<NodeId>;
        /// Runs the batch's fault-free evaluation — on the compiled
        /// program unless the interpreter is selected — and returns the
        /// caller frame as the graders read it.
        fn evaluate<'f, W: LaneWord + 'f>(
            &self,
            cc: &CompiledCircuit,
            kernel: Option<&KernelProgram>,
            frame: Self::Frame<'f, W>,
            good: &mut [Vec<W>],
        ) -> &'f [W];
        /// Builds the kernel replay plan, panicking when `prog` does not
        /// materialize a node grading reads.
        fn plan(&self, prog: &KernelProgram, cc: &CompiledCircuit, faults: &[Fault]) -> Self::Plan;
        /// The gate-level reference the kernel is diffed against:
        /// grades every `active` fault on the calling thread, writing
        /// each one's detection word into `out`.
        fn reference<W: LaneWord>(&self, batch: &Batch<'_, W>, active: &[u32], out: &mut [W]);
        /// The kernel's grader for one shard of the active list,
        /// bit-identical to [`Engine::reference`]; returns early when
        /// the batch is cancelled.
        fn kernel_grade_shard<W: LaneWord>(
            &self,
            prog: &KernelProgram,
            plan: &Self::Plan,
            batch: &Batch<'_, W>,
            shard: &[u32],
            scratch: &mut KernelScratch<W>,
            out: &mut [W],
        );
        /// The fault-free word scan cell `cell` unloads after a batch.
        fn response<W: LaneWord>(
            cc: &CompiledCircuit,
            frame: &[W],
            good: &[Vec<W>],
            cell: NodeId,
        ) -> W;
    }
}

/// Parallel-pattern fault simulator for one [`FaultModel`], generic over
/// the lane width (64/128/256/512 patterns per pass for
/// `u64`/`u128`/`[u64; 4]`/`[u64; 8]` frames).
///
/// Each [`FaultSim::run_batch`] grades up to `W::LANES` patterns at once:
/// the model runs the fault-free evaluation, then every still-active
/// fault is graded against it and its per-lane detection word recorded.
/// Detected faults are dropped once their n-detect budget is met.
///
/// Grading runs on the compiled kernel: the first batch lowers a
/// [`KernelProgram`] for this fault list unless one was installed with
/// [`FaultSim::set_kernel`], and `set_kernel(None)` selects the serial
/// gate-level reference the kernel is diffed against.
///
/// # Parallel grading
///
/// Faults are graded independently against the shared fault-free
/// evaluation, so the kernel path shards the **active-fault list** across the
/// persistent `lbist-exec` work-stealing pool. Each worker owns a
/// thread-local scratch (reused across batches) and writes detection
/// words into its own slice of the batch result; the serial merge then
/// updates n-detect counts and compacts the active list (swap-remove on
/// drop) so later batches stop scanning dead faults. The active list is
/// ordered by logic level so each shard walks a cache-friendly cone of
/// the circuit.
///
/// Because every fault's detection word depends only on the fault-free
/// evaluation — never on other faults or on scheduling — parallel and
/// serial grading (`set_threads(1)`) produce **bit-identical** detection
/// counts and coverage, as do wide and 64-lane runs over the same
/// pattern stream (property-tested in the bench crate).
#[derive(Debug)]
pub struct FaultSim<'a, M: FaultModel, W: LaneWord = u64> {
    cc: &'a CompiledCircuit,
    model: M,
    faults: Vec<Fault>,
    /// Indices into `faults` still being graded, ordered by logic level
    /// (then node) for shard locality; swap-removed as faults drop.
    active: Vec<u32>,
    detections: Vec<u32>,
    drop_after: u32,
    patterns_run: u64,
    /// Worker budget for a batch (1 = serial).
    threads: usize,
    /// `true` until [`FaultSim::set_threads`] is called: in auto mode the
    /// worker count also respects the model's minimum shard size; an
    /// explicit budget is honoured exactly (tests force sharding on tiny
    /// lists).
    threads_auto: bool,
    /// The model's fault-free frames of the last batch.
    good: Vec<Vec<W>>,
    /// Compiled kernel program: installed by [`FaultSim::set_kernel`] or
    /// lowered at the first batch; always `None` on the reference.
    kernel: Option<Arc<KernelProgram>>,
    /// `true` once `set_kernel(None)` selected the reference.
    interpreter: bool,
    /// Replay plan for the kernel path, built lazily at the first batch.
    kplan: Option<M::Plan>,
    /// One kernel replay scratch per worker.
    kscratch: Vec<KernelScratch<W>>,
    /// Per-active-fault detection words of the current batch (aligned
    /// with `active`, swap-removed in lockstep during the merge).
    batch_det: Vec<W>,
    /// Cooperative cancellation: polled at batch entry, every
    /// [`CANCEL_POLL_STRIDE`] faults within a kernel shard, and before the
    /// merge. A cancelled batch is never merged, so the simulator state
    /// stays at the last completed batch — clean to checkpoint.
    cancel: Option<CancelToken>,
    /// Per-batch phase timers (no-op unless a session installs real
    /// handles via [`FaultSim::set_phase_metrics`]).
    phases: SimPhaseMetrics,
}

impl<'a, M: FaultModel, W: LaneWord> FaultSim<'a, M, W> {
    /// Creates a simulator for `model` over `faults`. Grading uses every
    /// available hardware thread; see [`FaultSim::set_threads`].
    ///
    /// # Panics
    ///
    /// Panics if the model does not accept some fault.
    pub(crate) fn with_model(cc: &'a CompiledCircuit, model: M, faults: Vec<Fault>) -> Self {
        if let Some(f) = faults.iter().find(|f| !M::accepts(f)) {
            panic!("{} does not grade fault {f}", std::any::type_name::<M>());
        }
        let n = faults.len();
        let active = level_order(cc, &faults, (0..n as u32).collect());
        FaultSim {
            good: std::iter::repeat_with(|| cc.new_wide_frame())
                .take(model.good_frames())
                .collect(),
            cc,
            model,
            faults,
            active,
            detections: vec![0; n],
            drop_after: 1,
            patterns_run: 0,
            threads: lbist_exec::current_num_threads(),
            threads_auto: true,
            kernel: None,
            interpreter: false,
            kplan: None,
            kscratch: Vec::new(),
            batch_det: Vec::new(),
            cancel: None,
            phases: SimPhaseMetrics::default(),
        }
    }

    /// Sets the worker-thread budget for subsequent kernel batches (`1`
    /// = serial, the determinism escape hatch). Capped shard-wise by the
    /// number of active faults. The reference always grades serially.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn set_threads(&mut self, n: usize) {
        assert!(n > 0, "at least one grading thread is required");
        self.threads = n;
        self.threads_auto = false;
    }

    /// Sets the n-detect budget: faults are graded until detected by `n`
    /// patterns (default 1), then dropped.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn set_drop_after(&mut self, n: u32) {
        assert!(n > 0, "drop budget must be at least 1");
        self.drop_after = n;
    }

    /// Chooses the grading engine. `Some(program)` installs a shared
    /// compiled program — e.g. one cached across simulators on the same
    /// netlist — instead of the one the first batch would lower. `None`
    /// selects the gate-level reference the kernel is diffed against: a
    /// serial per-gate interpreter that ignores [`FaultSim::set_threads`].
    /// Results are bit-identical either way (property-tested in the bench
    /// crate).
    ///
    /// An installed program must have been lowered from this simulator's
    /// circuit with a keep set covering this fault list and observation
    /// set — use [`crate::grading_keep_set`]. Violations panic at the
    /// next batch, never misgrade silently.
    ///
    /// # Panics
    ///
    /// Panics if the program's node count differs from the circuit's.
    pub fn set_kernel(&mut self, kernel: Option<Arc<KernelProgram>>) {
        if let Some(k) = &kernel {
            assert_eq!(
                k.num_nodes(),
                self.cc.num_nodes(),
                "kernel program was lowered from a different circuit"
            );
        }
        self.interpreter = kernel.is_none();
        self.kernel = kernel;
        self.kplan = None;
        self.kscratch.clear();
    }

    /// `true` unless `set_kernel(None)` selected the reference.
    pub fn uses_kernel(&self) -> bool {
        !self.interpreter
    }

    /// Number of faults still actively graded (shrinks as faults drop —
    /// the compaction that keeps late batches cheap).
    pub fn active_faults(&self) -> usize {
        self.active.len()
    }

    /// Installs (or clears) a cancellation token polled by subsequent
    /// batches; see [`FaultSim::try_run_batch`].
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// Installs phase timers: each batch records its fault-free
    /// evaluation time into `phases.sim_ns` and its sharded grading and
    /// merge time into `phases.detect_ns`. Timing is observational only —
    /// grading results are bit-identical with or without it.
    pub fn set_phase_metrics(&mut self, phases: SimPhaseMetrics) {
        self.phases = phases;
    }

    /// Grades one batch. `frame` carries the batch's source words
    /// (inputs, flip-flop states, X-source substitutes); `num_patterns`
    /// (1..=`W::LANES`) marks how many lanes carry real patterns.
    /// Stuck-at takes `&mut [W]` and leaves the fault-free evaluation in
    /// it; transition takes `&[W]` as the capture window's first frame.
    ///
    /// Returns the number of faults newly dropped by this batch.
    ///
    /// # Panics
    ///
    /// Panics if `num_patterns` is 0 or exceeds `W::LANES`, or if a
    /// cancellation token installed via [`FaultSim::set_cancel`] has
    /// fired (use [`FaultSim::try_run_batch`] on cancellable paths).
    pub fn run_batch(&mut self, frame: M::Frame<'_, W>, num_patterns: usize) -> usize {
        self.try_run_batch(frame, num_patterns)
            .expect("batch cancelled: cancellable callers must use try_run_batch")
    }

    /// Cancellable [`FaultSim::run_batch`]: returns `None` — with the
    /// batch **discarded, not merged** — once the installed token fires.
    /// Counts, the active list, and `patterns_run` then still describe
    /// the last completed batch, so the simulator is in a clean state to
    /// checkpoint or resume.
    ///
    /// Kernel shards are graded under panic containment (bounded
    /// retries, then serial degrade) and poll the token every 64 faults;
    /// the serial reference is polled at batch entry and before the
    /// merge only.
    pub fn try_run_batch(&mut self, frame: M::Frame<'_, W>, num_patterns: usize) -> Option<usize> {
        let cancel = self.cancel.as_ref();
        if cancel.is_some_and(|c| c.is_cancelled()) {
            return None;
        }
        if !self.interpreter && self.kplan.is_none() {
            // One-time lowering and replay-plan construction are
            // detection machinery — charged to the detect span so the
            // phase trace still accounts for the batch wall time.
            let _plan_span = self.phases.detect_ns.start();
            let (cc, faults, model) = (self.cc, &self.faults, &self.model);
            let prog = self.kernel.get_or_insert_with(|| {
                let keep = grading_keep_set(cc, &[faults], &model.plan_reads());
                Arc::new(KernelProgram::lower(cc, &keep))
            });
            self.kplan = Some(model.plan(prog, cc, faults));
        }
        let lane_mask = W::mask_lanes(num_patterns);
        let frame = {
            let _sim_span = self.phases.sim_ns.start();
            self.model.evaluate(self.cc, self.kernel.as_deref(), frame, &mut self.good)
        };

        let n_active = self.active.len();
        self.batch_det.clear();
        self.batch_det.resize(n_active, W::zero());
        if n_active == 0 {
            self.patterns_run += num_patterns as u64;
            return Some(0);
        }

        // One detect span covers dispatch, retries, and the serial merge
        // below (it records on every exit path, cancelled included — a
        // discarded batch still spent the time).
        let _detect_span = self.phases.detect_ns.start();
        let cc = self.cc;
        let model = &self.model;
        let batch = Batch { cc, faults: &self.faults, frame, good: &self.good, lane_mask, cancel };
        if let (Some(prog), Some(plan)) = (&self.kernel, &self.kplan) {
            // In auto mode each worker must own a meaningful shard:
            // dispatching pool tasks for a handful of survivors (late
            // batches after compaction) would cost more than the grading
            // itself. An explicit budget is honoured exactly.
            let min_shard = self.threads_auto.then_some(M::MIN_SHARD_FAULTS);
            let workers = lbist_exec::worker_budget(self.threads, n_active, min_shard);
            lbist_exec::resilient_chunks_with_scratch(
                &self.active,
                &mut self.batch_det,
                workers,
                &mut self.kscratch,
                || KernelScratch::new(prog, cc),
                |shard, out, scratch| {
                    model.kernel_grade_shard(prog, plan, &batch, shard, scratch, out)
                },
                &RetryPolicy::default(),
                cancel,
            );
        } else {
            model.reference(&batch, &self.active, &mut self.batch_det);
        }
        if cancel.is_some_and(|c| c.is_cancelled()) {
            // Unwind cleanly: the half-graded batch is discarded whole.
            return None;
        }
        self.patterns_run += num_patterns as u64;

        // Serial merge: order-independent counts, then swap-remove
        // compaction of (active, batch_det) in lockstep.
        let mut newly_dropped = 0usize;
        let mut pos = 0usize;
        while pos < self.active.len() {
            let detected = self.batch_det[pos];
            if detected.is_zero() {
                pos += 1;
                continue;
            }
            let fault_idx = self.active[pos] as usize;
            self.detections[fault_idx] =
                self.detections[fault_idx].saturating_add(detected.count_ones());
            if self.detections[fault_idx] >= self.drop_after {
                self.active.swap_remove(pos);
                self.batch_det.swap_remove(pos);
                newly_dropped += 1;
            } else {
                pos += 1;
            }
        }
        Some(newly_dropped)
    }

    /// The fault-free word scan cell `cell` unloads into the MISRs after
    /// the last graded batch, given that batch's `frame`: the cell's
    /// captured `D` word for stuck-at, its end-of-window state for
    /// transition (which ignores `frame`).
    pub fn response(&self, frame: &[W], cell: NodeId) -> W {
        M::response(self.cc, frame, &self.good, cell)
    }

    /// Restores the simulator to a checkpointed position: per-fault
    /// detection counts plus the pattern counter. The active list is
    /// rebuilt as every fault with `detections < drop_after`, in the
    /// constructor's level-major order — the resulting per-batch counts,
    /// detected sets, and drop decisions are bit-identical to a run that
    /// was never interrupted, because the batch merge is
    /// order-independent (enforced by the resume property tests in the
    /// bench crate).
    ///
    /// Call after [`FaultSim::set_drop_after`] so the rebuilt active list
    /// honours the run's drop budget.
    ///
    /// # Panics
    ///
    /// Panics if `detections` does not match the fault-list length.
    pub fn restore(&mut self, detections: &[u32], patterns_run: u64) {
        assert_eq!(
            detections.len(),
            self.faults.len(),
            "restored detections must match the fault list"
        );
        self.detections = detections.to_vec();
        self.patterns_run = patterns_run;
        let below = (0..self.faults.len() as u32)
            .filter(|&i| self.detections[i as usize] < self.drop_after)
            .collect();
        self.active = level_order(self.cc, &self.faults, below);
        self.batch_det.clear();
    }

    /// The last batch's detection words as `(fault index, word)` pairs,
    /// over the faults still active after it: complete only while the
    /// drop budget keeps every fault active.
    pub(crate) fn batch_words(&self) -> impl Iterator<Item = (u32, W)> + '_ {
        self.active.iter().copied().zip(self.batch_det.iter().copied())
    }

    /// Patterns graded so far (the counter captured by checkpoints).
    pub fn patterns_run(&self) -> u64 {
        self.patterns_run
    }

    /// The faults being graded, in index order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Per-fault detection counts (saturating at the drop budget).
    pub fn detections(&self) -> &[u32] {
        &self.detections
    }

    /// Faults not yet detected, in index order.
    pub fn undetected(&self) -> Vec<Fault> {
        self.faults
            .iter()
            .zip(&self.detections)
            .filter(|&(_, &d)| d == 0)
            .map(|(f, _)| *f)
            .collect()
    }

    /// Indices of faults not yet detected.
    pub fn undetected_indices(&self) -> Vec<usize> {
        (0..self.faults.len()).filter(|&i| self.detections[i] == 0).collect()
    }

    /// Current coverage over the graded fault list.
    pub fn coverage(&self) -> CoverageReport {
        CoverageReport::from_detections(&self.faults, &self.detections, self.patterns_run)
    }
}

/// Sorts fault indices level-major (then by node): a shard of consecutive
/// entries then touches a band of adjacent logic levels (fanout-cone
/// locality) instead of striding the whole netlist.
fn level_order(cc: &CompiledCircuit, faults: &[Fault], mut idx: Vec<u32>) -> Vec<u32> {
    idx.sort_unstable_by_key(|&i| {
        let f = &faults[i as usize];
        (cc.level(f.node), f.node.index())
    });
    idx
}
