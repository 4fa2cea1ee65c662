//! Launch-on-capture transition-fault simulation across the paper's
//! double-capture window.
//!
//! The capture window (Fig. 2) issues, for each clock domain in `d3`-spaced
//! sequence, a pair of pulses `d2`/`d4` apart — the functional period. The
//! first pulse *launches* transitions (flip-flop outputs change from the
//! scanned-in state to captured functional data); the second pulse
//! *captures* the response one functional period later. A transition fault
//! is detected when the launched transition at its site fails to settle in
//! time and the resulting wrong value is captured into some flip-flop that
//! the unload then observes.
//!
//! The simulator models the whole window frame by frame:
//!
//! ```text
//! F0 (scan state) --C1(dom0)--> F1 --C2(dom0)--> F2 --C1(dom1)--> F3 ...
//! ```
//!
//! Odd frames (between a domain's two pulses) last one functional period —
//! only there can a slow transition be "caught". Even frames are the long
//! `d3`/`d5` intervals, where every transition has time to settle; fault
//! effects cross them only as wrong *values* already captured into
//! flip-flops, which the simulator carries in a per-fault state overlay.
//!
//! The [`Transition`] model plugs into the same [`FaultSim`] engine as
//! stuck-at, at any lane width (64/128/256/512 patterns per pass for
//! `u64`/`u128`/`[u64; 4]`/`[u64; 8]` frames): the fault-free window
//! frames are computed once per batch and shared read-only; each worker
//! replays faults from its shard over the compiled kernel with its own
//! flip-flop overlay, so parallel and serial coverage are bit-identical.
//! The [`Propagator`] replay here is the interpreter reference the
//! kernel replay is diffed against.

use crate::kernel::{kernel_replay_shard, KernelScratch, TransitionKernelPlan};
use crate::propagate::Propagator;
use crate::sim::engine::{Batch, Engine};
use crate::sim::{FaultModel, FaultSim, CANCEL_POLL_STRIDE};
use crate::Fault;
use lbist_exec::LaneWord;
use lbist_netlist::{DomainId, NodeId};
use lbist_sim::{CompiledCircuit, KernelProgram};
use std::collections::HashMap;

/// Launch-on-capture transition-fault simulator at lane width `W`:
/// grades `W::LANES` scan patterns per batch. The caller loads the scan
/// state (flip-flop words) and primary-input words of the base frame;
/// the simulator replays the whole double-capture window for the
/// fault-free circuit and then for every active fault, and compares
/// final flip-flop states — exactly what the unload-into-MISR observes.
pub type WideTransitionSim<'a, W = u64> = FaultSim<'a, Transition, W>;

/// The default 64-lane launch-on-capture simulator —
/// [`WideTransitionSim`] at the `u64` frame width every existing call
/// site uses.
pub type TransitionSim<'a> = WideTransitionSim<'a, u64>;

/// The capture-window schedule: which domains pulse, in which order.
///
/// Each listed domain receives two pulses; the `d3` gap orders domains so
/// inter-domain skew cannot corrupt capture (the paper sets `d3` larger
/// than the worst-case skew — the timing side of that argument lives in
/// `lbist-clock`).
///
/// # Example
///
/// ```
/// use lbist_fault::CaptureWindow;
/// use lbist_netlist::DomainId;
/// let w = CaptureWindow::all_domains(3);
/// assert_eq!(w.order().len(), 3);
/// assert_eq!(w.num_frames(), 7); // F0 + 2 per domain
/// let custom = CaptureWindow::new(vec![DomainId::new(1), DomainId::new(0)]);
/// assert_eq!(custom.order()[0], DomainId::new(1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaptureWindow {
    order: Vec<DomainId>,
}

impl CaptureWindow {
    /// A window pulsing the given domains in the given order.
    ///
    /// # Panics
    ///
    /// Panics if `order` is empty or repeats a domain.
    pub fn new(order: Vec<DomainId>) -> Self {
        assert!(!order.is_empty(), "a capture window pulses at least one domain");
        let mut seen = std::collections::HashSet::new();
        for d in &order {
            assert!(seen.insert(*d), "domain {d} pulsed twice in one window");
        }
        CaptureWindow { order }
    }

    /// Domains `0..n` in index order.
    pub fn all_domains(n: usize) -> Self {
        CaptureWindow::new((0..n).map(|i| DomainId::new(i as u16)).collect())
    }

    /// The pulse order.
    pub fn order(&self) -> &[DomainId] {
        &self.order
    }

    /// Number of evaluation frames the window spans (`1 + 2·domains`).
    pub fn num_frames(&self) -> usize {
        1 + 2 * self.order.len()
    }

    /// The domain captured between frame `f` and `f + 1`, if any.
    pub(crate) fn capturing_domain(&self, frame: usize) -> Option<DomainId> {
        // Captures happen after F0..F(2n-1): domain k pulses at boundaries
        // 2k (its launch C1) and 2k+1 (its capture C2).
        if frame >= 2 * self.order.len() {
            None
        } else {
            Some(self.order[frame / 2])
        }
    }

    /// `true` when the frame (by index) is an at-speed frame — between a
    /// domain's launch and capture pulses.
    pub fn is_at_speed_frame(&self, frame: usize) -> bool {
        frame > 0 && frame % 2 == 1 && frame < self.num_frames()
    }
}

/// Thread-local replay scratch for one worker: event-driven propagation
/// state plus the per-fault flip-flop overlay, reused across faults and
/// batches.
#[derive(Debug)]
pub struct ReplayScratch<W: LaneWord> {
    prop: Propagator<W>,
    /// Flip-flops currently holding a faulty word for the fault being
    /// replayed.
    overlay: HashMap<NodeId, W>,
    /// Per-frame seed of overlay flip-flops that differ from the
    /// fault-free frame (rebuilt each frame without allocating).
    dirty: Vec<(NodeId, W)>,
    /// Per-at-speed-frame activation words of the fault being replayed
    /// (indexed by frame, reused across faults without allocating).
    activation: Vec<W>,
}

/// The launch-on-capture transition model across a [`CaptureWindow`]:
/// stem slow-to-rise / slow-to-fall faults, detected when a launched
/// transition at the site is caught late and the wrong value reaches a
/// flip-flop state the unload observes.
#[derive(Debug)]
pub struct Transition {
    window: CaptureWindow,
}

impl<'a, W: LaneWord> FaultSim<'a, Transition, W> {
    /// Creates a simulator for `faults` (transition kinds only) under the
    /// given capture window. Grading uses every available hardware
    /// thread; see [`FaultSim::set_threads`].
    ///
    /// # Panics
    ///
    /// Panics if any fault is not a transition kind, or any fault is a
    /// branch fault (transition grading here is stem-based, the standard
    /// model granularity).
    pub fn new(cc: &'a CompiledCircuit, faults: Vec<Fault>, window: CaptureWindow) -> Self {
        FaultSim::with_model(cc, Transition { window }, faults)
    }
}

impl FaultModel for Transition {
    fn accepts(fault: &Fault) -> bool {
        fault.kind.is_transition() && fault.is_stem()
    }
}

impl Engine for Transition {
    type Frame<'f, W: LaneWord + 'f> = &'f [W];
    type Scratch<W: LaneWord> = ReplayScratch<W>;
    type Plan = TransitionKernelPlan;
    /// Window replay is heavier per fault than single-frame PPSFP, so
    /// the threshold is lower than stuck-at's.
    const MIN_SHARD_FAULTS: usize = 16;

    fn batch_frame<W: LaneWord>(frame: &mut [W]) -> &[W] {
        frame
    }

    fn good_frames(&self) -> usize {
        self.window.num_frames()
    }

    /// Nothing beyond the keep set: it already covers every capture `D`
    /// source the window replay reads.
    fn plan_reads(&self) -> Vec<NodeId> {
        Vec::new()
    }

    /// Evaluates the fault-free window: `base` (scan state + held PIs)
    /// becomes frame F0, and every later frame captures the pulsed
    /// domain's flip-flops from the previous one.
    fn evaluate<'f, W: LaneWord + 'f>(
        &self,
        cc: &CompiledCircuit,
        kernel: Option<&KernelProgram>,
        base: &'f [W],
        good: &mut [Vec<W>],
    ) -> &'f [W] {
        match kernel {
            Some(prog) => prog.execute_into(base, &mut good[0]),
            None => cc.eval2_into(base, &mut good[0]),
        }
        for frame in 1..good.len() {
            let (prev_slice, rest) = good.split_at_mut(frame);
            let prev = &prev_slice[frame - 1];
            let cur = &mut rest[0];
            cur.copy_from_slice(prev);
            let dom = self
                .window
                .capturing_domain(frame - 1)
                .expect("every non-final frame boundary captures");
            for (i, &ff) in cc.dffs().iter().enumerate() {
                if cc.dff_domain(i) == dom {
                    let d_src = cc.fanins(ff)[0];
                    cur[ff.index()] = prev[d_src.index()];
                }
            }
            match kernel {
                Some(prog) => prog.execute(cur),
                None => cc.eval2(cur),
            }
        }
        base
    }

    fn plan(
        &self,
        prog: &KernelProgram,
        cc: &CompiledCircuit,
        faults: &[Fault],
    ) -> TransitionKernelPlan {
        TransitionKernelPlan::build(prog, cc, faults)
    }

    fn scratch<W: LaneWord>(cc: &CompiledCircuit) -> ReplayScratch<W> {
        ReplayScratch {
            prop: Propagator::new(cc),
            overlay: HashMap::new(),
            dirty: Vec::new(),
            activation: Vec::new(),
        }
    }

    /// Replays one shard of active faults across the capture window,
    /// writing each fault's multi-lane detection word into `out`. Reads
    /// only the shared fault-free frames; all mutable state is the
    /// worker's own scratch, so shard scheduling cannot affect results.
    fn grade_shard<W: LaneWord>(
        &self,
        batch: &Batch<'_, W>,
        shard: &[u32],
        scratch: &mut ReplayScratch<W>,
        out: &mut [W],
    ) {
        debug_assert_eq!(shard.len(), out.len());
        let Batch { cc, faults, good: good_frames, lane_mask, cancel, .. } = *batch;
        let window = &self.window;
        let nframes = window.num_frames();
        for (i, (&fault_idx, slot)) in shard.iter().zip(out.iter_mut()).enumerate() {
            if i % CANCEL_POLL_STRIDE == 0 && cancel.is_some_and(|c| c.is_cancelled()) {
                return;
            }
            let fault = faults[fault_idx as usize];
            let site = fault.node;
            // Per-fault overlay of flip-flop states (faulty words).
            scratch.overlay.clear();

            // Precompute the activation word of every at-speed frame: where
            // the launch pulse actually creates the fault's slow transition
            // at the site. Frames belonging to clock domains whose launch
            // never touches the site are inert for this fault, so the replay
            // can skip straight to the first active frame, and stop after the
            // last one once no faulty flip-flop state is left to carry — the
            // common case where only one domain is dirty then replays a
            // couple of frames instead of the whole window.
            scratch.activation.clear();
            scratch.activation.resize(nframes, W::zero());
            let mut first_active = usize::MAX;
            let mut last_active = 0usize;
            for frame in 0..nframes {
                if !window.is_at_speed_frame(frame) {
                    continue;
                }
                let prev = good_frames[frame - 1][site.index()];
                let cur = good_frames[frame][site.index()];
                let act = (match fault.kind {
                    crate::FaultKind::SlowToRise => prev.not().and(cur),
                    crate::FaultKind::SlowToFall => prev.and(cur.not()),
                    _ => unreachable!(),
                })
                .and(lane_mask);
                if !act.is_zero() {
                    scratch.activation[frame] = act;
                    first_active = first_active.min(frame);
                    last_active = frame;
                }
            }
            if first_active == usize::MAX {
                // No launch excites the fault anywhere in the window.
                *slot = W::zero();
                continue;
            }

            for frame in first_active..nframes {
                let act = scratch.activation[frame];
                if act.is_zero() && frame > last_active && scratch.overlay.is_empty() {
                    // Every remaining frame is activation-free and no faulty
                    // state survives: the rest of the window is fault-free.
                    break;
                }

                scratch.dirty.clear();
                for (&ff, &word) in &scratch.overlay {
                    let good = good_frames[frame][ff.index()];
                    if word != good {
                        scratch.dirty.push((ff, word));
                    }
                }
                if act.is_zero() && scratch.dirty.is_empty() {
                    continue; // nothing differs in this frame
                }

                scratch.prop.begin();
                for &(ff, word) in &scratch.dirty {
                    scratch.prop.set(ff, word);
                    scratch.prop.enqueue_fanouts(cc, ff);
                }
                if !act.is_zero() {
                    // The site's faulty value: good with the launched
                    // transition undone on activated lanes. (If the site is
                    // also downstream of a dirty FF the propagation below may
                    // reach it; injecting before running keeps level order
                    // intact because the site's level precedes its fanouts,
                    // and the pin below keeps the injected value
                    // authoritative.)
                    let cur = scratch.prop.value(site, &good_frames[frame]);
                    scratch.prop.set(site, cur.xor(act));
                    scratch.prop.enqueue_fanouts(cc, site);
                }
                let good = &good_frames[frame];
                let pin = if act.is_zero() { None } else { Some(site) };
                scratch.prop.run(cc, good, pin, |_, _| {});

                // Frame boundary: capture.
                if let Some(dom) = window.capturing_domain(frame) {
                    for (i, &ff) in cc.dffs().iter().enumerate() {
                        if cc.dff_domain(i) != dom {
                            continue;
                        }
                        let d_src = cc.fanins(ff)[0];
                        let faulty_d = scratch.prop.value(d_src, good);
                        let good_next = good_frames[frame + 1][ff.index()];
                        if faulty_d != good_next {
                            scratch.overlay.insert(ff, faulty_d);
                        } else {
                            scratch.overlay.remove(&ff);
                        }
                    }
                }
            }

            // Detection: any flip-flop whose final state differs is shifted
            // out through the MISR.
            let final_frame = &good_frames[nframes - 1];
            let mut detected = W::zero();
            for (&ff, &word) in &scratch.overlay {
                detected = detected.or(word.xor(final_frame[ff.index()]).and(lane_mask));
            }
            *slot = detected;
        }
    }

    fn kernel_grade_shard<W: LaneWord>(
        &self,
        prog: &KernelProgram,
        plan: &TransitionKernelPlan,
        batch: &Batch<'_, W>,
        shard: &[u32],
        scratch: &mut KernelScratch<W>,
        out: &mut [W],
    ) {
        kernel_replay_shard(prog, plan, &self.window, batch, shard, scratch, out);
    }

    /// The end-of-window flip-flop state the unload shifts out.
    fn response<W: LaneWord>(_: &CompiledCircuit, _: &[W], good: &[Vec<W>], cell: NodeId) -> W {
        good.last().expect("a capture window spans at least one frame")[cell.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;
    use lbist_netlist::{DomainId, GateKind, Netlist};

    /// ff_a -> NOT -> ff_b, both domain 0. Scan in ff_a=0: C1 captures
    /// ff_b=NOT(0)=1 while ff_a reloads its own D... build with explicit
    /// feedback so values are controlled.
    fn inv_pipe() -> (Netlist, NodeId, NodeId, NodeId, NodeId) {
        let mut nl = Netlist::new("pipe");
        let pi = nl.add_input("pi");
        let ff_a = nl.add_dff(pi, DomainId::new(0));
        let inv = nl.add_gate(GateKind::Not, &[ff_a]);
        let ff_b = nl.add_dff(inv, DomainId::new(0));
        nl.add_output("q", ff_b);
        (nl, pi, ff_a, inv, ff_b)
    }

    #[test]
    fn single_capture_cannot_detect_transitions() {
        // With only ONE pulse (model: window where the domain appears but we
        // check after frame 1 semantics), a slow transition launched by the
        // pulse is never sampled again. Our window always double-pulses, so
        // emulate single capture by checking that detection requires the
        // at-speed frame: a fault whose site never transitions in the
        // window is undetected.
        let (nl, pi, ff_a, inv, _ff_b) = inv_pipe();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let w = CaptureWindow::all_domains(1);
        let faults = vec![Fault::stem(inv, FaultKind::SlowToRise)];
        let mut sim = TransitionSim::new(&cc, faults, w);
        let mut base = cc.new_frame();
        // pi=0 and ff_a=0: inv=1 stays 1 all window -> no rising transition
        // at inv; STR cannot be excited.
        base[pi.index()] = 0;
        base[ff_a.index()] = 0;
        sim.run_batch(&base, 4);
        assert_eq!(sim.detections()[0], 0);
    }

    #[test]
    fn launch_on_capture_detects_slow_to_rise() {
        let (nl, pi, ff_a, inv, _ff_b) = inv_pipe();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let w = CaptureWindow::all_domains(1);
        let faults = vec![Fault::stem(inv, FaultKind::SlowToRise)];
        let mut sim = TransitionSim::new(&cc, faults, w);
        let mut base = cc.new_frame();
        // Scan state: ff_a=1 (inv=0). PI=0, so C1 captures ff_a=0, making
        // inv rise 0->1 in the at-speed frame; C2 should capture ff_b=1 but
        // the slow-to-rise keeps inv at 0 -> ff_b captures 0. Detected.
        base[pi.index()] = 0;
        base[ff_a.index()] = !0;
        sim.run_batch(&base, 8);
        assert_eq!(sim.detections()[0], 8, "STR detected in every lane");
    }

    #[test]
    fn slow_to_fall_needs_falling_launch() {
        let (nl, pi, ff_a, inv, _ff_b) = inv_pipe();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let w = CaptureWindow::all_domains(1);
        let faults =
            vec![Fault::stem(inv, FaultKind::SlowToFall), Fault::stem(inv, FaultKind::SlowToRise)];
        let mut sim = TransitionSim::new(&cc, faults, w);
        let mut base = cc.new_frame();
        // ff_a=0 (inv=1), PI=1: C1 captures ff_a=1, inv falls 1->0.
        base[pi.index()] = !0;
        base[ff_a.index()] = 0;
        sim.run_batch(&base, 8);
        assert_eq!(sim.detections()[0], 8, "STF detected");
        assert_eq!(sim.detections()[1], 0, "STR not excited by a falling launch");
    }

    #[test]
    fn cross_domain_effect_carries_through_later_capture() {
        // dom0: ff_a -> inv -> ff_b(dom0); ff_b -> buf -> ff_c(dom1).
        // A fault detected into ff_b at dom0's C2 then propagates into
        // ff_c when dom1 captures later in the same window.
        let mut nl = Netlist::new("xdom");
        let pi = nl.add_input("pi");
        let ff_a = nl.add_dff(pi, DomainId::new(0));
        let inv = nl.add_gate(GateKind::Not, &[ff_a]);
        let ff_b = nl.add_dff(inv, DomainId::new(0));
        let buf = nl.add_gate(GateKind::Buf, &[ff_b]);
        let ff_c = nl.add_dff(buf, DomainId::new(1));
        nl.add_output("q", ff_c);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let w = CaptureWindow::all_domains(2);
        let faults = vec![Fault::stem(inv, FaultKind::SlowToRise)];
        let mut sim = TransitionSim::new(&cc, faults, w);
        let mut base = cc.new_frame();
        base[pi.index()] = 0;
        base[ff_a.index()] = !0; // launch a rise at inv
        sim.run_batch(&base, 1);
        assert_eq!(sim.detections()[0], 1);
    }

    /// A fault activated only by the *last* domain's launch is still
    /// graded correctly when the replay fast-forwards over the earlier
    /// domains' inert frames.
    #[test]
    fn late_domain_activation_survives_frame_skipping() {
        let mut nl = Netlist::new("late");
        let pi = nl.add_input("pi");
        // Domain 0 has unrelated state so its frames exist in the window.
        let idle = nl.add_dff(pi, DomainId::new(0));
        nl.add_output("q0", idle);
        // The fault cone lives entirely in domain 1.
        let ff_a = nl.add_dff(pi, DomainId::new(1));
        let inv = nl.add_gate(GateKind::Not, &[ff_a]);
        let ff_b = nl.add_dff(inv, DomainId::new(1));
        nl.add_output("q1", ff_b);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let w = CaptureWindow::all_domains(2);
        let faults =
            vec![Fault::stem(inv, FaultKind::SlowToRise), Fault::stem(inv, FaultKind::SlowToFall)];
        let mut sim = TransitionSim::new(&cc, faults, w);
        let mut base = cc.new_frame();
        // ff_a=1 (inv=0), pi=0: domain 1's launch captures ff_a=0, so inv
        // rises 0->1 only in domain 1's at-speed frame (the window's last).
        base[pi.index()] = 0;
        base[ff_a.index()] = !0;
        sim.run_batch(&base, 8);
        assert_eq!(sim.detections()[0], 8, "STR detected despite inert domain-0 frames");
        assert_eq!(sim.detections()[1], 0, "STF never excited anywhere in the window");
    }

    #[test]
    fn domain_order_respects_schedule() {
        let w = CaptureWindow::new(vec![DomainId::new(2), DomainId::new(0)]);
        assert_eq!(w.capturing_domain(0), Some(DomainId::new(2)));
        assert_eq!(w.capturing_domain(1), Some(DomainId::new(2)));
        assert_eq!(w.capturing_domain(2), Some(DomainId::new(0)));
        assert_eq!(w.capturing_domain(3), Some(DomainId::new(0)));
        assert_eq!(w.capturing_domain(4), None);
        assert!(w.is_at_speed_frame(1));
        assert!(!w.is_at_speed_frame(2));
        assert!(w.is_at_speed_frame(3));
    }

    #[test]
    #[should_panic(expected = "pulsed twice")]
    fn duplicate_domain_rejected() {
        CaptureWindow::new(vec![DomainId::new(0), DomainId::new(0)]);
    }

    #[test]
    fn transition_coverage_reported() {
        let (nl, pi, ff_a, inv, _) = inv_pipe();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let faults =
            vec![Fault::stem(inv, FaultKind::SlowToRise), Fault::stem(inv, FaultKind::SlowToFall)];
        let mut sim = TransitionSim::new(&cc, faults, CaptureWindow::all_domains(1));
        let mut base = cc.new_frame();
        base[pi.index()] = 0;
        base[ff_a.index()] = !0;
        sim.run_batch(&base, 2);
        let cov = sim.coverage();
        assert_eq!(cov.total, 2);
        assert_eq!(cov.detected, 1);
        assert!((cov.percent() - 50.0).abs() < 1e-9);
    }

    /// One wide transition batch grades exactly like the stack of
    /// 64-lane batches it packs (no dropping → exact counts; the
    /// detected set is batch-granularity-invariant either way).
    #[test]
    fn wide_transition_batch_equals_stacked_64_lane_batches() {
        fn check<W: LaneWord>() {
            let (nl, pi, _ff_a, inv, _ff_b) = inv_pipe();
            let cc = CompiledCircuit::compile(&nl).unwrap();
            let faults = vec![
                Fault::stem(inv, FaultKind::SlowToRise),
                Fault::stem(inv, FaultKind::SlowToFall),
            ];
            let word = |k: usize, node: usize| -> u64 {
                0xBF58_476D_1CE4_E5B9u64.rotate_left((k * 13 + node * 29) as u32)
            };

            let mut narrow = TransitionSim::new(&cc, faults.clone(), CaptureWindow::all_domains(1));
            narrow.set_drop_after(u32::MAX);
            for k in 0..W::WORDS {
                let mut base = cc.new_frame();
                base[pi.index()] = word(k, 0);
                for (i, &ff) in cc.dffs().iter().enumerate() {
                    base[ff.index()] = word(k, 1 + i);
                }
                narrow.run_batch(&base, 64);
            }

            let mut wide: WideTransitionSim<'_, W> =
                WideTransitionSim::new(&cc, faults.clone(), CaptureWindow::all_domains(1));
            wide.set_drop_after(u32::MAX);
            let mut base: Vec<W> = cc.new_wide_frame();
            for k in 0..W::WORDS {
                base[pi.index()].set_word(k, word(k, 0));
                for (i, &ff) in cc.dffs().iter().enumerate() {
                    base[ff.index()].set_word(k, word(k, 1 + i));
                }
            }
            wide.run_batch(&base, W::LANES);

            assert_eq!(wide.detections(), narrow.detections(), "{} lanes", W::LANES);
            assert_eq!(wide.coverage(), narrow.coverage(), "{} lanes", W::LANES);
            assert!(wide.detections().iter().any(|&d| d > 0), "scenario must detect something");
        }
        check::<u128>();
        check::<[u64; 4]>();
    }

    /// The kernel path replays the capture window bit-identically to the
    /// interpreter: same detections, coverage, and compaction across a
    /// two-domain design whose overlay state carries between frames.
    #[test]
    fn kernel_transition_grading_matches_interpreter_bit_for_bit() {
        let mut nl = Netlist::new("kpar");
        let pi = nl.add_input("pi");
        let mut prev = nl.add_dff(pi, DomainId::new(0));
        let mut sites = Vec::new();
        for i in 0..6 {
            let inv = nl.add_gate(GateKind::Not, &[prev]);
            sites.push(inv);
            prev = nl.add_dff(inv, DomainId::new((i % 2) as u16));
        }
        nl.add_output("q", prev);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let faults: Vec<Fault> = sites
            .iter()
            .flat_map(|&s| {
                [Fault::stem(s, FaultKind::SlowToRise), Fault::stem(s, FaultKind::SlowToFall)]
            })
            .collect();
        let observed = crate::WideStuckAtSim::<u64>::observe_all_captures(&cc);
        let keep = crate::grading_keep_set(&cc, &[&faults], &observed);
        let prog = std::sync::Arc::new(lbist_sim::KernelProgram::lower(&cc, &keep));

        let run = |kernel: bool, threads: usize| {
            let mut sim = TransitionSim::new(&cc, faults.clone(), CaptureWindow::all_domains(2));
            sim.set_threads(threads);
            sim.set_kernel(kernel.then(|| prog.clone()));
            assert_eq!(sim.uses_kernel(), kernel);
            for seed in 0..4u64 {
                let mut base = cc.new_frame();
                base[pi.index()] = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for (i, &ff) in cc.dffs().iter().enumerate() {
                    base[ff.index()] = (seed ^ i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                }
                sim.run_batch(&base, 64);
            }
            (sim.detections().to_vec(), sim.coverage(), sim.active_faults())
        };

        let reference = run(false, 1);
        assert!(reference.1.detected > 0, "scenario must detect something");
        for threads in [1, 4] {
            let kernel = run(true, threads);
            assert_eq!(kernel.0, reference.0, "kernel detections differ ({threads} threads)");
            assert_eq!(kernel.1, reference.1, "kernel coverage differs ({threads} threads)");
            assert_eq!(kernel.2, reference.2, "kernel active count differs ({threads} threads)");
        }
    }

    /// Parallel transition grading (forced to several shards) reports the
    /// serial detection counts bit-for-bit, and compaction tracks drops.
    #[test]
    fn parallel_and_serial_transition_grading_agree() {
        let mut nl = Netlist::new("par");
        let pi = nl.add_input("pi");
        let mut prev = nl.add_dff(pi, DomainId::new(0));
        let mut sites = Vec::new();
        // A chain of inverters and flops across two domains gives a
        // fault list with varied excitation.
        for i in 0..6 {
            let inv = nl.add_gate(GateKind::Not, &[prev]);
            sites.push(inv);
            prev = nl.add_dff(inv, DomainId::new((i % 2) as u16));
        }
        nl.add_output("q", prev);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let faults: Vec<Fault> = sites
            .iter()
            .flat_map(|&s| {
                [Fault::stem(s, FaultKind::SlowToRise), Fault::stem(s, FaultKind::SlowToFall)]
            })
            .collect();

        let run = |threads: usize| {
            let mut sim = TransitionSim::new(&cc, faults.clone(), CaptureWindow::all_domains(2));
            sim.set_threads(threads);
            for seed in 0..4u64 {
                let mut base = cc.new_frame();
                base[pi.index()] = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for (i, &ff) in cc.dffs().iter().enumerate() {
                    base[ff.index()] = (seed ^ i as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                }
                sim.run_batch(&base, 64);
            }
            (sim.detections().to_vec(), sim.coverage(), sim.active_faults())
        };

        let serial = run(1);
        assert!(serial.1.detected > 0, "scenario must detect something");
        for threads in [2, 5] {
            let parallel = run(threads);
            assert_eq!(parallel.0, serial.0, "{threads}-thread detections differ");
            assert_eq!(parallel.1, serial.1, "{threads}-thread coverage differs");
            assert_eq!(parallel.2, serial.2, "{threads}-thread active count differs");
        }
        let undetected = serial.0.iter().filter(|&&d| d == 0).count();
        assert_eq!(serial.2, undetected, "active list holds exactly the undetected faults");
    }
}
