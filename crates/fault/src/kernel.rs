//! Kernel-backed fault grading: replaying faults as patched instructions
//! over the lowered program.
//!
//! Every [`crate::FaultSim`] grades on a compiled [`KernelProgram`] —
//! lowered at its first batch, or shared through
//! [`crate::FaultSim::set_kernel`]. Fault-free evaluation runs the flat
//! bytecode, and per-fault replay is patched-instruction execution
//! instead of the netlist-walking [`crate::propagate::Propagator`] (kept
//! for the serial gate-level reference and TPI's reach profile), in the
//! shape that fits each fault model:
//!
//! * **Stuck-at** faults replay as a **patched suffix re-execution**.
//!   Each worker keeps a *shadow frame*; injecting a fault writes the
//!   forced word over the site instruction's slot and linearly re-runs
//!   only the instructions after the patch point — a branch-free
//!   [`KernelProgram::execute_range`] with no overlay checks, no queue,
//!   and no per-gate dispatch. Because the active-fault list is level
//!   sorted, consecutive patch points are non-decreasing and restoring
//!   the shadow frame between faults costs one pass over the program per
//!   shard, amortized. PPSFP words make this the right shape: with 64+
//!   patterns per word an excited fault's difference word almost never
//!   dies, so sparse propagation revisits most of the suffix anyway —
//!   at a much higher cost per instruction.
//! * **Transition** faults replay **event-driven** over [`EventEdges`]
//!   (a slot → consumer-instruction CSR derived from the program's own
//!   operands): only instructions an actually-changed word feeds are
//!   re-evaluated, level-ordered, against an epoch-stamped overlay.
//!   Window replay re-simulates every frame for every fault, and most
//!   frames carry no difference at all — there the `Propagator`'s
//!   early-dying events are the right shape, minus its `GateKind` match
//!   and fanin gather, with fused NOT/BUF chains costing zero events.
//!
//! Both paths are bit-identical to [`KernelProgram::execute_patched`]
//! (and to the serial reference), at a fraction of the work.
//!
//! The plans here are built once per (program, fault list, observation
//! set) and validated up front: every node the replay reads — fault
//! sites, branch-gate fanins, observed nodes, capture `D` sources — must
//! be materialized by the program, which is exactly what lowering with
//! [`grading_keep_set`] guarantees. A program lowered with a smaller keep
//! set fails loudly at plan build, never silently misgrades.

use crate::model::Fault;
use crate::sim::engine::Batch;
use crate::sim::CANCEL_POLL_STRIDE;
use crate::transition::{activation, CaptureWindow};
use lbist_exec::{CancelToken, LaneWord};
use lbist_netlist::{GateKind, NodeId};
use lbist_sim::{eval_gate, CompiledCircuit, KernelProgram, SlotState};
use std::collections::HashMap;

/// The keep set grading needs: every node whose frame slot the fault
/// simulators read must stay materialized when lowering the kernel
/// program. That is the observed nodes, every flip-flop `D` source
/// (captures and MISR absorption read them), every fault site (faulty
/// values are seeded there and excitation compares against the good
/// word), and the fanins of branch-fault gates (branch injection
/// re-evaluates the gate with one pin forced).
///
/// Pass the result to [`KernelProgram::lower`]; grade stuck-at and
/// transition faults with one program by passing both fault lists.
pub fn grading_keep_set(
    cc: &CompiledCircuit,
    faults: &[&[Fault]],
    observed: &[NodeId],
) -> Vec<bool> {
    let mut keep = vec![false; cc.num_nodes()];
    for &o in observed {
        keep[o.index()] = true;
    }
    for &ff in cc.dffs() {
        keep[cc.fanins(ff)[0].index()] = true;
    }
    for list in faults {
        for f in *list {
            keep[f.node.index()] = true;
            if !f.is_stem() {
                for &fi in cc.fanins(f.node) {
                    keep[fi.index()] = true;
                }
            }
        }
    }
    keep
}

/// Slot → consumer-instruction event edges of a lowered program, packed
/// as `(level << 32) | instruction index` so the replay drain reads one
/// word per edge. Derived purely from instruction operands: a slot's
/// edge list is exactly the set of instructions whose result could
/// change when that slot's word changes.
#[derive(Debug)]
struct EventEdges {
    /// CSR starts per slot, one past-the-end entry.
    start: Vec<u32>,
    edges: Vec<u64>,
}

impl EventEdges {
    fn build(prog: &KernelProgram, cc: &CompiledCircuit) -> EventEdges {
        let n = prog.num_nodes();
        let mut start = vec![0u32; n + 1];
        for idx in 0..prog.num_instrs() {
            prog.for_each_operand(idx, |s| start[s + 1] += 1);
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut cursor: Vec<u32> = start[..n].to_vec();
        let mut edges = vec![0u64; start[n] as usize];
        for idx in 0..prog.num_instrs() {
            let dst = NodeId::from_index(prog.instr_dst(idx));
            let packed = (u64::from(cc.level(dst)) << 32) | idx as u64;
            prog.for_each_operand(idx, |s| {
                edges[cursor[s] as usize] = packed;
                cursor[s] += 1;
            });
        }
        EventEdges { start, edges }
    }

    #[inline]
    fn of(&self, slot: usize) -> &[u64] {
        &self.edges[self.start[slot] as usize..self.start[slot + 1] as usize]
    }
}

/// Per-worker replay scratch for the kernel path: the stuck-at shadow
/// frame, the epoch-stamped faulty-slot overlay and level-bucketed event
/// queue of the transition drain, plus the transition window state —
/// reused across faults and batches.
#[derive(Debug)]
pub struct KernelScratch<W: LaneWord> {
    /// Stuck-at suffix-execution frame: equals the fault-free frame on
    /// every slot an instruction before the current patch point writes,
    /// stale after it (the next injection restores exactly the gap).
    shadow: Vec<W>,
    /// Stuck-at cone-replay frame, fully restored after every replay so
    /// it always equals the fault-free frame on entry — cone instruction
    /// operands may read *outside* the cone, where the suffix frame
    /// could be stale, so the two modes never share a frame.
    cone_shadow: Vec<W>,
    /// Second cone frame, same invariant: paired replay walks one cone
    /// over two shadows at once.
    cone_shadow2: Vec<W>,
    /// Second suffix frame with its own stale region: paired suffix
    /// replay re-executes one shared suffix over both.
    shadow_b: Vec<W>,
    /// Faulty slot words, valid where `mark` holds the current epoch.
    vals: Vec<W>,
    mark: Vec<u32>,
    /// Queued-instruction stamps (event dedup), same epoch domain.
    queued: Vec<u32>,
    epoch: u32,
    /// Pending instruction indices per level; always drained empty.
    buckets: Vec<Vec<u32>>,
    /// Flip-flops holding faulty state across window frames.
    overlay: HashMap<NodeId, W>,
    /// Per-frame overlay seeds that differ from the fault-free frame.
    dirty: Vec<(NodeId, W)>,
    /// Per-at-speed-frame activation words of the fault under replay.
    activation: Vec<W>,
    /// Branch-injection fanin gather buffer.
    fanin_buf: Vec<W>,
}

impl<W: LaneWord> KernelScratch<W> {
    pub(crate) fn new(prog: &KernelProgram, cc: &CompiledCircuit) -> Self {
        KernelScratch {
            shadow: Vec::new(),
            cone_shadow: Vec::new(),
            cone_shadow2: Vec::new(),
            shadow_b: Vec::new(),
            vals: vec![W::zero(); prog.num_nodes()],
            mark: vec![0; prog.num_nodes()],
            queued: vec![0; prog.num_instrs()],
            epoch: 0,
            buckets: vec![Vec::new(); cc.max_level() as usize + 2],
            overlay: HashMap::new(),
            dirty: Vec::new(),
            activation: Vec::new(),
            fanin_buf: Vec::new(),
        }
    }

    /// Starts a fresh overlay epoch (O(1); stamps invalidate lazily).
    #[inline]
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.queued.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `slot` as holding the faulty word `word` and queues its
    /// consumer instructions, widening the `[lo, hi]` level range the
    /// drain must walk.
    #[inline]
    fn seed(&mut self, edges: &EventEdges, slot: usize, word: W, lo: &mut usize, hi: &mut usize) {
        self.vals[slot] = word;
        self.mark[slot] = self.epoch;
        for &e in edges.of(slot) {
            let idx = e as u32 as usize;
            if self.queued[idx] != self.epoch {
                self.queued[idx] = self.epoch;
                let lvl = (e >> 32) as usize;
                self.buckets[lvl].push(idx as u32);
                if lvl < *lo {
                    *lo = lvl;
                }
                if lvl > *hi {
                    *hi = lvl;
                }
            }
        }
    }

    /// Drains the event queue in level order: each queued instruction is
    /// re-evaluated against the overlay; a changed result is stamped into
    /// the overlay and queues its consumers, an unchanged result kills
    /// the event. Level order makes single-fault propagation exact (all
    /// operands are final before a consumer runs), mirroring
    /// `Propagator::run`. A `pin`ned slot keeps its seeded word even when
    /// reached by other events (`usize::MAX` pins nothing). The caller
    /// reads results through `mark`/`vals` (capture) afterwards.
    #[inline]
    fn drain(
        &mut self,
        prog: &KernelProgram,
        edges: &EventEdges,
        frame: &[W],
        pin: usize,
        lo: usize,
        mut hi: usize,
    ) {
        let epoch = self.epoch;
        let KernelScratch { vals, mark, queued, buckets, .. } = self;
        let mut level = lo;
        while level <= hi {
            // Edges always target strictly higher levels, so this bucket
            // cannot grow while draining — but `hi` can.
            let mut i = 0;
            while i < buckets[level].len() {
                let idx = buckets[level][i] as usize;
                i += 1;
                let dst = prog.instr_dst(idx);
                if dst == pin {
                    continue; // the seeded site stays authoritative
                }
                let v = prog.eval_instr(idx, |s| {
                    let s = s as usize;
                    if mark[s] == epoch {
                        vals[s]
                    } else {
                        frame[s]
                    }
                });
                let good = frame[dst];
                if v != good {
                    vals[dst] = v;
                    mark[dst] = epoch;
                    for &e in edges.of(dst) {
                        let j = e as u32 as usize;
                        if queued[j] != epoch {
                            queued[j] = epoch;
                            let lvl = (e >> 32) as usize;
                            buckets[lvl].push(j as u32);
                            if lvl > hi {
                                hi = lvl;
                            }
                        }
                    }
                }
                // v == good: the event dies (no overlay entry needed —
                // un-stamped slots read the fault-free frame).
            }
            buckets[level].clear();
            level += 1;
        }
    }
}

/// Floor of the cone-size ceiling. The ceiling itself scales with the
/// program (`num_instrs / 8`, at least this): a cone entry costs more
/// than a sequential suffix instruction (random `instrs[]` access plus
/// a restore pass), so small programs want small cones, while on large
/// programs even a many-hundred-entry cone beats a multi-thousand
/// instruction suffix. The cap also bounds plan-build time (an aborted
/// traversal costs its whole budget) and arena memory.
const CONE_BUDGET_FLOOR: usize = 128;

/// How a patched site's downstream effect is recomputed, chosen per
/// fault at plan build by comparing the two costs.
#[derive(Debug, Clone, Copy)]
enum Replay {
    /// Re-execute every instruction after the patch point (branch-free
    /// linear [`KernelProgram::execute_range`]): cheapest when the
    /// fault's cone covers much of the remaining program, or sits so
    /// late that the suffix is short.
    Suffix,
    /// Walk the precomputed forward-cone instruction list (a range of
    /// [`StuckKernelPlan::cone_arena`], ascending = dependency order):
    /// cheapest for the common shallow fault whose cone is a sliver of
    /// the suffix. Cone replays restore every slot they wrote, so they
    /// leave the shadow frame exactly as they found it. Detection scans
    /// only the observed slots the cone can reach (`obs_start`/
    /// `obs_len` into [`StuckKernelPlan::cone_obs_arena`]) — everything
    /// else provably equals the fault-free frame. (An event-skipping
    /// variant that stamp-checks operands was measured slower here:
    /// with 64+ patterns per word the difference word almost never
    /// dies, so the stamp loads are pure overhead.)
    Cone { start: u32, len: u32, obs_start: u32, obs_len: u32 },
}

/// How one stuck-at fault is injected on the kernel path, resolved once
/// at plan build (the per-fault twin of `inject_stuck_at`). `replay`
/// indexes [`StuckKernelPlan::replays`].
#[derive(Debug, Clone, Copy)]
enum Inject {
    /// The injection site is a flip-flop (stem on Q, or a branch on the
    /// D pin): the forced value is captured directly, detection compares
    /// it against the fault-free `D` source. `excite_site` carries the
    /// stem case's excitation check at the Q slot (the reference skips
    /// a stem fault whose site already holds the forced word).
    DPin { site: u32, d_src: u32, force1: bool, excite_site: bool },
    /// No observed slot is forward-reachable from the site (and the site
    /// itself is unobserved): the detection word is identically zero for
    /// every pattern, on the reference as much as here, so the fault
    /// costs nothing per batch. Resolved by a single reverse
    /// reachability pass at plan build.
    Dead,
    /// Output-stem fault at a materialized instruction: overwrite the
    /// instruction's slot with the forced word and replay downstream.
    PatchInstr { instr: u32, dst: u32, force1: bool, replay: u32 },
    /// Output-stem fault at a frame source (a primary input): force the
    /// source slot and replay from the top of the program.
    SourceStem { site: u32, force1: bool, observed: bool, replay: u32 },
    /// Input-branch fault on a logic gate: re-evaluate the gate with one
    /// pin forced, patch the gate's instruction slot with the result and
    /// replay downstream.
    Branch { instr: u32, dst: u32, pin: u8, force1: bool, replay: u32 },
}

// One entry per graded fault: the `replay` index into
// [`StuckKernelPlan::replays`] keeps it at 16 bytes.
const _: () = assert!(std::mem::size_of::<Inject>() == 16);

/// The per-(program, faults, observation) stuck-at replay plan.
#[derive(Debug)]
pub struct StuckKernelPlan {
    /// Aligned with the simulator's fault list.
    injects: Vec<Inject>,
    /// One replay decision per patched slot, shared by every fault on it.
    replays: Vec<Replay>,
    /// `(instruction index, dst slot)` of every observed instruction-
    /// computed slot, in instruction order: the detection scan walks the
    /// entries at or after the patch point (slots before it equal the
    /// fault-free frame by the shadow invariant; observed *source* slots
    /// never change — only the source-stem site itself, handled
    /// explicitly).
    obs_scan: Vec<(u32, u32)>,
    /// Concatenated [`Replay::Cone`] instruction lists, each entry
    /// packed as `(dst slot << 32) | instruction index` so the eval and
    /// restore loops never reload the instruction for its destination;
    /// faults on the same gate share one list.
    cone_arena: Vec<u64>,
    /// Concatenated per-cone observed-slot lists (the patched slot
    /// itself when observed, plus every observed cone destination).
    cone_obs_arena: Vec<u32>,
}

impl StuckKernelPlan {
    /// Builds the plan, validating that the program materializes every
    /// node grading reads.
    ///
    /// # Panics
    ///
    /// Panics when a fault site, branch-gate fanin, or observed node has
    /// no valid slot — i.e. the program was lowered without
    /// [`grading_keep_set`] for this fault list and observation set.
    pub(crate) fn build(
        prog: &KernelProgram,
        cc: &CompiledCircuit,
        faults: &[Fault],
        observed: &[bool],
    ) -> StuckKernelPlan {
        for (i, &obs) in observed.iter().enumerate() {
            let node = NodeId::from_index(i);
            assert!(
                !obs || prog.has_slot(node),
                "observed node {node} is not materialized: lower the kernel \
                 program with grading_keep_set"
            );
        }
        for f in faults {
            let site = f.node;
            assert!(
                prog.has_slot(site),
                "fault site {site} is not materialized: lower the kernel \
                 program with grading_keep_set"
            );
            if cc.kind(site) == GateKind::Dff {
                let d_src = cc.fanins(site)[0];
                assert!(
                    prog.has_slot(d_src),
                    "capture source {d_src} is not materialized: lower the \
                     kernel program with grading_keep_set"
                );
            } else if !f.is_stem() {
                for &fi in cc.fanins(site) {
                    assert!(
                        prog.has_slot(fi),
                        "branch-gate fanin {fi} is not materialized: lower \
                         the kernel program with grading_keep_set"
                    );
                }
            }
        }
        // Observability closure: `reaches[s]` ⇔ some observed slot is
        // forward-reachable from `s` (or `s` is observed itself). One
        // reverse pass suffices because operands are defined at strictly
        // lower instruction indices. Faults below an unreachable site
        // can never be detected — the reference's diff scan over
        // observed slots is identically zero for them — so they are
        // planned as [`Inject::Dead`] and skipped per batch.
        let mut reaches = observed.to_vec();
        for idx in (0..prog.num_instrs()).rev() {
            if reaches[prog.instr_dst(idx)] {
                prog.for_each_operand(idx, |s| reaches[s] = true);
            }
        }
        let mut cones = ConeBuilder::new(prog, cc, observed);
        let injects: Vec<Inject> = faults
            .iter()
            .map(|f| {
                let site = f.node;
                let force1 = f.kind.faulty_value();
                if cc.kind(site) != GateKind::Dff && !reaches[site.index()] {
                    return Inject::Dead;
                }
                if cc.kind(site) == GateKind::Dff {
                    Inject::DPin {
                        site: site.index() as u32,
                        d_src: cc.fanins(site)[0].index() as u32,
                        force1,
                        excite_site: f.is_stem(),
                    }
                } else if f.is_stem() {
                    match prog.slot_state(site) {
                        SlotState::Instr(idx) => Inject::PatchInstr {
                            instr: idx as u32,
                            dst: site.index() as u32,
                            force1,
                            replay: cones.replay_of(site.index(), idx),
                        },
                        SlotState::Source => Inject::SourceStem {
                            site: site.index() as u32,
                            force1,
                            observed: observed[site.index()],
                            replay: cones.replay_of(site.index(), 0),
                        },
                        // `has_slot` was asserted above.
                        state => unreachable!("stem site {site} lowered as {state:?}"),
                    }
                } else {
                    let SlotState::Instr(idx) = prog.slot_state(site) else {
                        // Branch sites are scheduled gates; kept gates
                        // always materialize as instructions.
                        unreachable!("branch gate {site} has no instruction")
                    };
                    Inject::Branch {
                        instr: idx as u32,
                        dst: site.index() as u32,
                        pin: f.pin.expect("branch faults carry a pin"),
                        force1,
                        replay: cones.replay_of(site.index(), idx),
                    }
                }
            })
            .collect();
        let obs_scan = (0..prog.num_instrs())
            .filter(|&idx| observed[prog.instr_dst(idx)])
            .map(|idx| (idx as u32, prog.instr_dst(idx) as u32))
            .collect();
        StuckKernelPlan {
            injects,
            replays: cones.replays,
            obs_scan,
            cone_arena: cones.arena,
            cone_obs_arena: cones.obs_arena,
        }
    }
}

/// Plan-build helper: discovers the forward-cone instruction list of
/// each patched slot (memoized — every fault on a gate shares one cone)
/// and decides [`Replay`] per fault by cost; the traversal aborts as
/// soon as the cone budget is exceeded.
struct ConeBuilder<'a> {
    prog: &'a KernelProgram,
    observed: &'a [bool],
    edges: EventEdges,
    arena: Vec<u64>,
    obs_arena: Vec<u32>,
    /// The decisions made so far, indexed by [`Inject`]'s `replay`.
    replays: Vec<Replay>,
    /// Patched slot → index of its memoized decision.
    memo: HashMap<usize, u32>,
    /// Traversal epoch stamps per instruction.
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
    cone: Vec<u32>,
}

impl<'a> ConeBuilder<'a> {
    fn new(prog: &'a KernelProgram, cc: &CompiledCircuit, observed: &'a [bool]) -> Self {
        ConeBuilder {
            prog,
            observed,
            edges: EventEdges::build(prog, cc),
            arena: Vec::new(),
            obs_arena: Vec::new(),
            replays: Vec::new(),
            memo: HashMap::new(),
            stamp: vec![0; prog.num_instrs()],
            epoch: 0,
            stack: Vec::new(),
            cone: Vec::new(),
        }
    }

    /// The index of the replay mode for a fault patched at `slot`, whose
    /// suffix execution would start after instruction `p` (0 for
    /// sources).
    fn replay_of(&mut self, slot: usize, p: usize) -> u32 {
        if let Some(&r) = self.memo.get(&slot) {
            return r;
        }
        // A cone entry costs roughly an eval plus a restore (~1.5x a
        // linear suffix instruction), so the cone must be under two
        // thirds of the suffix to win. The constant cap bounds what a
        // budget-aborted traversal can waste at plan build (discovering
        // a too-big cone costs the whole budget before aborting — the
        // uncapped build spent more time probing doomed cones than the
        // fitting ones took to store) and keeps the arena small.
        let n = self.prog.num_instrs();
        let budget = (2 * (n - p) / 3).min((n / 8).max(CONE_BUDGET_FLOOR));
        self.epoch += 1;
        self.cone.clear();
        self.stack.clear();
        self.stack.extend(self.edges.of(slot).iter().map(|&e| e as u32));
        let mut fits = true;
        while let Some(idx) = self.stack.pop() {
            if self.stamp[idx as usize] == self.epoch {
                continue;
            }
            self.stamp[idx as usize] = self.epoch;
            self.cone.push(idx);
            if self.cone.len() > budget {
                fits = false;
                break;
            }
            let dst = self.prog.instr_dst(idx as usize);
            self.stack.extend(self.edges.of(dst).iter().map(|&e| e as u32));
        }
        let replay =
            if fits {
                // Ascending instruction order is dependency order: every
                // cone operand that changes is produced by an earlier cone
                // instruction (or is the patched slot itself).
                self.cone.sort_unstable();
                let start = self.arena.len() as u32;
                self.arena.extend(self.cone.iter().map(|&idx| {
                    ((self.prog.instr_dst(idx as usize) as u64) << 32) | u64::from(idx)
                }));
                let obs_start = self.obs_arena.len() as u32;
                // A materialized patched slot contributes its own detection
                // word; source sites are handled by the caller's explicit
                // site-observed check.
                if self.observed[slot]
                    && matches!(self.prog.slot_state(NodeId::from_index(slot)), SlotState::Instr(_))
                {
                    self.obs_arena.push(slot as u32);
                }
                for &idx in &self.cone {
                    let d = self.prog.instr_dst(idx as usize);
                    if self.observed[d] {
                        self.obs_arena.push(d as u32);
                    }
                }
                Replay::Cone {
                    start,
                    len: self.cone.len() as u32,
                    obs_start,
                    obs_len: (self.obs_arena.len() as u32) - obs_start,
                }
            } else {
                Replay::Suffix
            };
        let idx = self.replays.len() as u32;
        self.replays.push(replay);
        self.memo.insert(slot, idx);
        idx
    }
}

/// The stuck-at kernel grader: grades one shard of the active-fault list
/// against the shared fault-free frame using precomputed injections and
/// patched replay, bit-identical to the serial reference's detection
/// words.
///
/// Injection resolution and replay are split so adjacent faults that
/// share a replay can run it **paired**: the level-sorted active list
/// puts a gate's sa0/sa1 stems and branch faults next to each other, all
/// patching the same destination slot with the same memoized cone or the
/// same suffix patch point, so one [`KernelProgram::eval_instr2`] /
/// [`KernelProgram::execute_range2`] pass grades two of them for a
/// single instruction fetch, dispatch and restore sweep.
pub(crate) fn kernel_grade_shard<W: LaneWord>(
    prog: &KernelProgram,
    plan: &StuckKernelPlan,
    batch: &Batch<'_, W>,
    shard: &[u32],
    scratch: &mut KernelScratch<W>,
    out: &mut [W],
) {
    debug_assert_eq!(shard.len(), out.len());
    let Batch { cc, frame, lane_mask, cancel, .. } = *batch;
    scratch.shadow.clear();
    scratch.shadow.extend_from_slice(frame);
    scratch.shadow_b.clear();
    scratch.shadow_b.extend_from_slice(frame);
    scratch.cone_shadow.clear();
    scratch.cone_shadow.extend_from_slice(frame);
    scratch.cone_shadow2.clear();
    scratch.cone_shadow2.extend_from_slice(frame);
    // Instruction destinations in `[last_p, n_instrs)` are stale in the
    // corresponding shadow frame; everything else equals `frame`.
    let mut last_p = prog.num_instrs();
    let mut last_p_b = prog.num_instrs();
    let mut i = 0usize;
    // A replay prepared while hunting for the previous replay's partner,
    // waiting its own turn.
    let mut carry: Option<(usize, Prepared<W>)> = None;
    loop {
        let (ci, cur) = match carry.take() {
            Some(held) => held,
            None => {
                match next_replay(plan, cc, shard, frame, lane_mask, scratch, out, &mut i, cancel) {
                    Scan::Found(idx, job) => (idx, job),
                    Scan::End => break,
                    Scan::Cancelled => return,
                }
            }
        };
        let partner =
            match next_replay(plan, cc, shard, frame, lane_mask, scratch, out, &mut i, cancel) {
                Scan::Found(idx, job) => Some((idx, job)),
                Scan::End => None,
                Scan::Cancelled => return,
            };
        match (cur, partner) {
            (Prepared::Cone(a), Some((pi, Prepared::Cone(b))))
                if b.start == a.start && b.dst == a.dst =>
            {
                let (d1, d2) = dual_cone_patch_and_scan(prog, plan, frame, scratch, &a, b.word);
                out[ci] = finish(&a, frame, d1).and(lane_mask);
                out[pi] = finish(&b, frame, d2).and(lane_mask);
            }
            (Prepared::Suffix(a), Some((pi, Prepared::Suffix(b)))) => {
                let (d1, d2) = dual_patch_and_scan(
                    prog,
                    plan,
                    frame,
                    scratch,
                    &mut last_p,
                    &mut last_p_b,
                    &a,
                    &b,
                );
                out[ci] = finish(&a, frame, d1).and(lane_mask);
                out[pi] = finish(&b, frame, d2).and(lane_mask);
            }
            (cur, partner) => {
                let diff = match &cur {
                    Prepared::Cone(a) => {
                        finish(a, frame, cone_patch_and_scan(prog, plan, frame, scratch, a))
                    }
                    Prepared::Suffix(a) => {
                        finish(a, frame, patch_and_scan(prog, plan, frame, scratch, &mut last_p, a))
                    }
                    Prepared::Done(_) => unreachable!("next_replay never yields Done"),
                };
                out[ci] = diff.and(lane_mask);
                carry = partner;
            }
        }
    }
}

/// One step of the replay scan: the next fault whose replay is still
/// owed, or why the scan stopped.
enum Scan<W> {
    Found(usize, Prepared<W>),
    End,
    Cancelled,
}

/// Advances the shard cursor to the next fault whose injection leaves a
/// replay owed, resolving (and writing out) every `Done` fault passed
/// over. Skipping completed faults this way keeps replay jobs adjacent,
/// so the pairing in [`kernel_grade_shard`] is not broken by the
/// unexcited and dead faults interleaved with them.
#[allow(clippy::too_many_arguments)]
#[inline]
fn next_replay<W: LaneWord>(
    plan: &StuckKernelPlan,
    cc: &CompiledCircuit,
    shard: &[u32],
    frame: &[W],
    lane_mask: W,
    scratch: &mut KernelScratch<W>,
    out: &mut [W],
    i: &mut usize,
    cancel: Option<&CancelToken>,
) -> Scan<W> {
    while *i < shard.len() {
        if (*i).is_multiple_of(CANCEL_POLL_STRIDE) && cancel.is_some_and(|c| c.is_cancelled()) {
            return Scan::Cancelled;
        }
        let idx = *i;
        *i += 1;
        match prepare(plan, cc, shard[idx], frame, scratch) {
            Prepared::Done(diff) => {
                out[idx] = diff.and(lane_mask);
            }
            job => return Scan::Found(idx, job),
        }
    }
    Scan::End
}

/// A replay still owed after injection resolution, in one of the two
/// shapes that pair across adjacent faults. `word` is the patched word;
/// `site_obs` carries a source stem's own observation contribution
/// (instruction sites get theirs from the observed-slot scans).
struct ConeJob<W> {
    dst: u32,
    word: W,
    site_obs: bool,
    start: u32,
    len: u32,
    obs_start: u32,
    obs_len: u32,
}

/// An owed suffix re-execution: patch `dst` with `word`, re-run
/// `[exec_lo, n_instrs)`. `p` is the patch point (the scan cut and the
/// pairing key); `exec_lo` is `p + 1` for instruction sites and `0` for
/// source stems (nothing executes before a source, and the source slot
/// itself is restored right after the run).
struct SuffixJob<W> {
    p: u32,
    exec_lo: u32,
    dst: u32,
    word: W,
    site_obs: bool,
}

/// [`prepare`]'s result: either the detection word is already final
/// (dead, unexcited, or `D`-pin compare), or a replay remains.
enum Prepared<W> {
    Done(W),
    Cone(ConeJob<W>),
    Suffix(SuffixJob<W>),
}

/// The source-stem site contribution, applied per fault after a
/// (possibly shared) replay.
#[inline]
fn finish_site<W: LaneWord>(site_obs: bool, dst: u32, word: W, frame: &[W], diff: W) -> W {
    if site_obs {
        diff.or(word.xor(frame[dst as usize]))
    } else {
        diff
    }
}

/// [`finish_site`] keyed off either job shape.
#[inline]
fn finish<W: LaneWord>(job: &impl ReplayJob<W>, frame: &[W], diff: W) -> W {
    finish_site(job.site_obs(), job.dst(), job.word(), frame, diff)
}

trait ReplayJob<W: Copy> {
    fn site_obs(&self) -> bool;
    fn dst(&self) -> u32;
    fn word(&self) -> W;
}

impl<W: Copy> ReplayJob<W> for ConeJob<W> {
    fn site_obs(&self) -> bool {
        self.site_obs
    }
    fn dst(&self) -> u32 {
        self.dst
    }
    fn word(&self) -> W {
        self.word
    }
}

impl<W: Copy> ReplayJob<W> for SuffixJob<W> {
    fn site_obs(&self) -> bool {
        self.site_obs
    }
    fn dst(&self) -> u32 {
        self.dst
    }
    fn word(&self) -> W {
        self.word
    }
}

/// Resolves one fault's injection: excitation checks and direct `D`-pin
/// compares complete here; cone and suffix replays are returned as jobs
/// so the caller can pair them.
#[inline]
fn prepare<W: LaneWord>(
    plan: &StuckKernelPlan,
    cc: &CompiledCircuit,
    fault_idx: u32,
    frame: &[W],
    scratch: &mut KernelScratch<W>,
) -> Prepared<W> {
    match plan.injects[fault_idx as usize] {
        Inject::Dead => Prepared::Done(W::zero()),
        Inject::DPin { site, d_src, force1, excite_site } => {
            let forced = if force1 { W::ones() } else { W::zero() };
            // A stem fault on the flip-flop is skipped whole when its
            // Q word already equals the forced value (the
            // reference's word-level excitation check); the D-pin
            // branch needs no check — an unexcited pin XORs to zero.
            if excite_site && forced == frame[site as usize] {
                Prepared::Done(W::zero())
            } else {
                Prepared::Done(forced.xor(frame[d_src as usize]))
            }
        }
        Inject::PatchInstr { instr, dst, force1, replay } => {
            let forced = if force1 { W::ones() } else { W::zero() };
            if forced == frame[dst as usize] {
                return Prepared::Done(W::zero());
            }
            replay_job(instr, dst, forced, false, plan.replays[replay as usize])
        }
        Inject::SourceStem { site, force1, observed, replay } => {
            let forced = if force1 { W::ones() } else { W::zero() };
            if forced == frame[site as usize] {
                return Prepared::Done(W::zero());
            }
            match plan.replays[replay as usize] {
                Replay::Suffix => Prepared::Suffix(SuffixJob {
                    p: 0,
                    exec_lo: 0,
                    dst: site,
                    word: forced,
                    site_obs: observed,
                }),
                Replay::Cone { start, len, obs_start, obs_len } => Prepared::Cone(ConeJob {
                    dst: site,
                    word: forced,
                    site_obs: observed,
                    start,
                    len,
                    obs_start,
                    obs_len,
                }),
            }
        }
        Inject::Branch { instr, dst, pin, force1, replay } => {
            let site = NodeId::from_index(dst as usize);
            let forced = if force1 { W::ones() } else { W::zero() };
            scratch.fanin_buf.clear();
            scratch.fanin_buf.extend(cc.fanins(site).iter().map(|f| frame[f.index()]));
            scratch.fanin_buf[pin as usize] = forced;
            let val = eval_gate(cc.kind(site), &scratch.fanin_buf);
            if val == frame[dst as usize] {
                return Prepared::Done(W::zero());
            }
            replay_job(instr, dst, val, false, plan.replays[replay as usize])
        }
    }
}

/// An instruction-site replay job in either shape.
#[inline]
fn replay_job<W: LaneWord>(
    instr: u32,
    dst: u32,
    word: W,
    site_obs: bool,
    replay: Replay,
) -> Prepared<W> {
    match replay {
        Replay::Suffix => {
            Prepared::Suffix(SuffixJob { p: instr, exec_lo: instr + 1, dst, word, site_obs })
        }
        Replay::Cone { start, len, obs_start, obs_len } => {
            Prepared::Cone(ConeJob { dst, word, site_obs, start, len, obs_start, obs_len })
        }
    }
}

/// One suffix replay on the shadow frame: restore the gap the previous
/// patch left (`p <= last_p` needs none — the suffix execution
/// recomputes the whole stale region), overwrite the patched slot with
/// the forced word, re-execute `[exec_lo, n)` branch-free, and OR the
/// differences of observed instruction slots at or after `p` (slots
/// before `p` equal the fault-free frame by the shadow invariant, so
/// they cannot contribute). Source stems execute the whole program and
/// restore their slot immediately — no instruction writes it.
#[inline]
fn patch_and_scan<W: LaneWord>(
    prog: &KernelProgram,
    plan: &StuckKernelPlan,
    frame: &[W],
    scratch: &mut KernelScratch<W>,
    last_p: &mut usize,
    job: &SuffixJob<W>,
) -> W {
    let p = job.p as usize;
    let dst = job.dst as usize;
    for j in *last_p..p {
        let d = prog.instr_dst(j);
        scratch.shadow[d] = frame[d];
    }
    scratch.shadow[dst] = job.word;
    prog.execute_range(&mut scratch.shadow, job.exec_lo as usize, prog.num_instrs());
    *last_p = p;
    if job.exec_lo == 0 {
        scratch.shadow[dst] = frame[dst];
    }
    let k0 = plan.obs_scan.partition_point(|&(idx, _)| (idx as usize) < p);
    let mut diff = W::zero();
    for &(_, d) in &plan.obs_scan[k0..] {
        let d = d as usize;
        diff = diff.or(scratch.shadow[d].xor(frame[d]));
    }
    diff
}

/// [`patch_and_scan`] for two suffix replays at once — any two, not
/// just a gate's sibling faults: each shadow frame restores its own
/// stale gap down to the shared execution start, patches its own slot,
/// and one [`KernelProgram::execute_range2_skip`] pass re-executes the
/// union suffix over both frames for a single instruction fetch and
/// dispatch. The skip indices protect each frame's patched instruction
/// from being recomputed when it lies inside the shared range (the
/// partner's suffix may start earlier). One walk of the observed slots
/// scans both; the partner with the later patch point contributes
/// nothing below it (those slots recompute fault-free), so the shared
/// scan stays exact.
#[allow(clippy::too_many_arguments)]
#[inline]
fn dual_patch_and_scan<W: LaneWord>(
    prog: &KernelProgram,
    plan: &StuckKernelPlan,
    frame: &[W],
    scratch: &mut KernelScratch<W>,
    last_p: &mut usize,
    last_p_b: &mut usize,
    a: &SuffixJob<W>,
    b: &SuffixJob<W>,
) -> (W, W) {
    let exec_lo = (a.exec_lo as usize).min(b.exec_lo as usize);
    let dst_a = a.dst as usize;
    let dst_b = b.dst as usize;
    for j in *last_p..exec_lo {
        let d = prog.instr_dst(j);
        scratch.shadow[d] = frame[d];
    }
    for j in *last_p_b..exec_lo {
        let d = prog.instr_dst(j);
        scratch.shadow_b[d] = frame[d];
    }
    scratch.shadow[dst_a] = a.word;
    scratch.shadow_b[dst_b] = b.word;
    let skip = |job: &SuffixJob<W>| {
        if job.exec_lo == 0 {
            usize::MAX
        } else {
            job.p as usize
        }
    };
    prog.execute_range2_skip(
        &mut scratch.shadow,
        &mut scratch.shadow_b,
        exec_lo,
        prog.num_instrs(),
        skip(a),
        skip(b),
    );
    *last_p = a.p as usize;
    *last_p_b = b.p as usize;
    if a.exec_lo == 0 {
        scratch.shadow[dst_a] = frame[dst_a];
    }
    if b.exec_lo == 0 {
        scratch.shadow_b[dst_b] = frame[dst_b];
    }
    let p_scan = (a.p as usize).min(b.p as usize);
    let k0 = plan.obs_scan.partition_point(|&(idx, _)| (idx as usize) < p_scan);
    let mut diff1 = W::zero();
    let mut diff2 = W::zero();
    for &(_, d) in &plan.obs_scan[k0..] {
        let d = d as usize;
        let good = frame[d];
        diff1 = diff1.or(scratch.shadow[d].xor(good));
        diff2 = diff2.or(scratch.shadow_b[d].xor(good));
    }
    (diff1, diff2)
}

/// The [`Replay::Cone`] injection: patch the slot, evaluate only the
/// precomputed forward-cone instructions (ascending = dependency
/// order), scan the cone's own observed slots, then restore every
/// written slot — the shadow frame leaves exactly as it came, so cone
/// replays never perturb the suffix protocol's stale region.
#[inline]
fn cone_patch_and_scan<W: LaneWord>(
    prog: &KernelProgram,
    plan: &StuckKernelPlan,
    frame: &[W],
    scratch: &mut KernelScratch<W>,
    job: &ConeJob<W>,
) -> W {
    let dst = job.dst as usize;
    let cone = &plan.cone_arena[job.start as usize..(job.start + job.len) as usize];
    let shadow = &mut scratch.cone_shadow;
    shadow[dst] = job.word;
    for &e in cone {
        let idx = (e as u32) as usize;
        let v = prog.eval_instr(idx, |s| shadow[s as usize]);
        shadow[(e >> 32) as usize] = v;
    }
    let obs = &plan.cone_obs_arena[job.obs_start as usize..(job.obs_start + job.obs_len) as usize];
    let mut diff = W::zero();
    for &d in obs {
        let d = d as usize;
        diff = diff.or(shadow[d].xor(frame[d]));
    }
    shadow[dst] = frame[dst];
    for &e in cone {
        let d = (e >> 32) as usize;
        shadow[d] = frame[d];
    }
    diff
}

/// [`cone_patch_and_scan`] for two faults patching the same slot with
/// the same memoized cone: one instruction fetch and dispatch per cone
/// entry serves both shadow frames, the observed scan and the restore
/// pass read the cone (and the fault-free words) once.
#[inline]
fn dual_cone_patch_and_scan<W: LaneWord>(
    prog: &KernelProgram,
    plan: &StuckKernelPlan,
    frame: &[W],
    scratch: &mut KernelScratch<W>,
    job: &ConeJob<W>,
    word_b: W,
) -> (W, W) {
    let dst = job.dst as usize;
    let cone = &plan.cone_arena[job.start as usize..(job.start + job.len) as usize];
    let s1 = &mut scratch.cone_shadow;
    let s2 = &mut scratch.cone_shadow2;
    s1[dst] = job.word;
    s2[dst] = word_b;
    for &e in cone {
        let idx = (e as u32) as usize;
        let (v1, v2) = prog.eval_instr2(idx, |s| s1[s as usize], |s| s2[s as usize]);
        let d = (e >> 32) as usize;
        s1[d] = v1;
        s2[d] = v2;
    }
    let obs = &plan.cone_obs_arena[job.obs_start as usize..(job.obs_start + job.obs_len) as usize];
    let mut diff1 = W::zero();
    let mut diff2 = W::zero();
    for &d in obs {
        let d = d as usize;
        let good = frame[d];
        diff1 = diff1.or(s1[d].xor(good));
        diff2 = diff2.or(s2[d].xor(good));
    }
    let good = frame[dst];
    s1[dst] = good;
    s2[dst] = good;
    for &e in cone {
        let d = (e >> 32) as usize;
        let good = frame[d];
        s1[d] = good;
        s2[d] = good;
    }
    (diff1, diff2)
}

/// The per-(program, faults) transition replay plan: the event edges
/// plus the up-front validation that every site and capture source is
/// materialized.
#[derive(Debug)]
pub struct TransitionKernelPlan {
    edges: EventEdges,
}

impl TransitionKernelPlan {
    /// Builds the plan; panics (like [`StuckKernelPlan::build`]) when a
    /// fault site or capture source is not materialized.
    pub(crate) fn build(
        prog: &KernelProgram,
        cc: &CompiledCircuit,
        faults: &[Fault],
    ) -> TransitionKernelPlan {
        for f in faults {
            assert!(
                prog.has_slot(f.node),
                "fault site {} is not materialized: lower the kernel program \
                 with grading_keep_set",
                f.node
            );
        }
        for &ff in cc.dffs() {
            let d_src = cc.fanins(ff)[0];
            assert!(
                prog.has_slot(d_src),
                "capture source {d_src} is not materialized: lower the kernel \
                 program with grading_keep_set"
            );
        }
        TransitionKernelPlan { edges: EventEdges::build(prog, cc) }
    }
}

/// The transition kernel grader: replays one shard of transition faults
/// across the capture window. Fault state crosses frames through the
/// flip-flop overlay exactly as in the serial reference; within a frame the
/// dirty flip-flops and (when the launch activates it) the pinned site
/// seed the event queue, and only instructions an actually-changed word
/// feeds are re-evaluated.
pub(crate) fn kernel_replay_shard<W: LaneWord>(
    prog: &KernelProgram,
    plan: &TransitionKernelPlan,
    window: &CaptureWindow,
    batch: &Batch<'_, W>,
    shard: &[u32],
    scratch: &mut KernelScratch<W>,
    out: &mut [W],
) {
    debug_assert_eq!(shard.len(), out.len());
    let Batch { cc, faults, good: good_frames, lane_mask, cancel, .. } = *batch;
    let nframes = window.num_frames();
    for (i, (&fault_idx, slot)) in shard.iter().zip(out.iter_mut()).enumerate() {
        if i % CANCEL_POLL_STRIDE == 0 && cancel.is_some_and(|c| c.is_cancelled()) {
            return;
        }
        let fault = faults[fault_idx as usize];
        let site = fault.node;
        let site_slot = site.index();
        scratch.overlay.clear();

        // Activation precompute — the reference's activation rule: where
        // each at-speed frame's launch creates the slow transition.
        scratch.activation.clear();
        scratch.activation.resize(nframes, W::zero());
        let mut first_active = usize::MAX;
        let mut last_active = 0usize;
        for frame in 0..nframes {
            if !window.is_at_speed_frame(frame) {
                continue;
            }
            let prev = good_frames[frame - 1][site_slot];
            let act = activation(fault.kind, prev, good_frames[frame][site_slot]).and(lane_mask);
            if !act.is_zero() {
                scratch.activation[frame] = act;
                first_active = first_active.min(frame);
                last_active = frame;
            }
        }
        if first_active == usize::MAX {
            *slot = W::zero();
            continue;
        }

        for frame in first_active..nframes {
            let act = scratch.activation[frame];
            if act.is_zero() && frame > last_active && scratch.overlay.is_empty() {
                break;
            }

            let good = &good_frames[frame];
            scratch.dirty.clear();
            for (&ff, &word) in &scratch.overlay {
                if word != good[ff.index()] {
                    scratch.dirty.push((ff, word));
                }
            }
            if act.is_zero() && scratch.dirty.is_empty() {
                continue;
            }

            scratch.begin();
            let (mut lo, mut hi) = (usize::MAX, 0);
            for k in 0..scratch.dirty.len() {
                let (ff, word) = scratch.dirty[k];
                scratch.seed(&plan.edges, ff.index(), word, &mut lo, &mut hi);
            }
            let mut pin = usize::MAX;
            if !act.is_zero() {
                // Seed the site after the flip-flop overlay so a dirty
                // site reads its faulty word (the reference's
                // `prop.value` order); the pin keeps the injected value
                // authoritative in the drain.
                let cur = if scratch.mark[site_slot] == scratch.epoch {
                    scratch.vals[site_slot]
                } else {
                    good[site_slot]
                };
                scratch.seed(&plan.edges, site_slot, cur.xor(act), &mut lo, &mut hi);
                pin = site_slot;
            }
            scratch.drain(prog, &plan.edges, good, pin, lo, hi);

            // Frame boundary: capture.
            if let Some(dom) = window.capturing_domain(frame) {
                let epoch = scratch.epoch;
                for (di, &ff) in cc.dffs().iter().enumerate() {
                    if cc.dff_domain(di) != dom {
                        continue;
                    }
                    let d_src = cc.fanins(ff)[0].index();
                    let faulty_d = if scratch.mark[d_src] == epoch {
                        scratch.vals[d_src]
                    } else {
                        good[d_src]
                    };
                    let good_next = good_frames[frame + 1][ff.index()];
                    if faulty_d != good_next {
                        scratch.overlay.insert(ff, faulty_d);
                    } else {
                        scratch.overlay.remove(&ff);
                    }
                }
            }
        }

        let final_frame = &good_frames[nframes - 1];
        let mut detected = W::zero();
        for (&ff, &word) in &scratch.overlay {
            detected = detected.or(word.xor(final_frame[ff.index()]).and(lane_mask));
        }
        *slot = detected;
    }
}
