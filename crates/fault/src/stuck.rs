//! The single-stuck-at model: PPSFP over one frame, 64/128/256/512
//! patterns per pass (`u64`/`u128`/`[u64; 4]`/`[u64; 8]` frames),
//! graded by the shared [`FaultSim`] engine.

use crate::kernel::{kernel_grade_shard, KernelScratch, StuckKernelPlan};
use crate::propagate::Propagator;
use crate::sim::engine::{Batch, Engine};
use crate::sim::{FaultModel, FaultSim};
use crate::Fault;
use lbist_exec::LaneWord;
use lbist_netlist::{GateKind, NodeId};
use lbist_sim::{CompiledCircuit, KernelProgram};

/// Parallel-pattern single-fault-propagation (PPSFP) simulator for
/// stuck-at faults at lane width `W`: the caller fills a value frame
/// with source words (PIs + scan state), the simulator evaluates it in
/// place, then every still-active fault is injected and propagated
/// event-driven; a fault is *detected* in a pattern when its effect
/// reaches an observed node.
///
/// Observation follows the paper's BIST-ready core: responses are
/// whatever the scan capture sees — every flip-flop `D` source, every
/// primary output marker, plus any observation test points the DFT step
/// added.
pub type WideStuckAtSim<'a, W = u64> = FaultSim<'a, StuckAt, W>;

/// The default 64-lane PPSFP simulator — [`WideStuckAtSim`] at the
/// `u64` frame width every existing call site uses.
pub type StuckAtSim<'a> = WideStuckAtSim<'a, u64>;

/// The single-stuck-at fault model: a fault is graded against one
/// fault-free frame and detected where its effect reaches an observed
/// node. Stem and branch faults, including flip-flop `D`-pin branches,
/// are all graded.
#[derive(Debug)]
pub struct StuckAt {
    /// Per-node observation flags.
    observed: Vec<bool>,
}

impl<'a, W: LaneWord> FaultSim<'a, StuckAt, W> {
    /// Creates a simulator over the given fault list (use
    /// [`crate::FaultUniverse::representatives`] for collapsed grading)
    /// and observed nodes. Grading uses every available hardware thread;
    /// see [`FaultSim::set_threads`].
    ///
    /// # Panics
    ///
    /// Panics if a fault is not a stuck-at kind.
    pub fn new(cc: &'a CompiledCircuit, faults: Vec<Fault>, observed: Vec<NodeId>) -> Self {
        let mut flags = vec![false; cc.num_nodes()];
        for o in observed {
            flags[o.index()] = true;
        }
        FaultSim::with_model(cc, StuckAt { observed: flags }, faults)
    }

    /// The standard full-scan observation set: every flip-flop's `D` source
    /// (captured into the chain), every primary output marker (captured by
    /// the PO scan cells the paper inserts), in deterministic order.
    pub fn observe_all_captures(cc: &CompiledCircuit) -> Vec<NodeId> {
        let mut obs = Vec::new();
        for &ff in cc.dffs() {
            obs.push(cc.fanins(ff)[0]);
        }
        obs.extend_from_slice(cc.outputs());
        obs.sort_unstable();
        obs.dedup();
        obs
    }
}

impl FaultModel for StuckAt {
    fn accepts(fault: &Fault) -> bool {
        fault.kind.is_stuck_at()
    }
}

impl Engine for StuckAt {
    type Frame<'f, W: LaneWord + 'f> = &'f mut [W];
    type Plan = StuckKernelPlan;
    const MIN_SHARD_FAULTS: usize = 64;

    fn batch_frame<W: LaneWord>(frame: &mut [W]) -> &mut [W] {
        frame
    }

    fn good_frames(&self) -> usize {
        0
    }

    /// The observation points: detection scans their slots.
    fn plan_reads(&self) -> Vec<NodeId> {
        (0..self.observed.len()).filter(|&i| self.observed[i]).map(NodeId::from_index).collect()
    }

    fn evaluate<'f, W: LaneWord + 'f>(
        &self,
        cc: &CompiledCircuit,
        kernel: Option<&KernelProgram>,
        frame: &'f mut [W],
        _good: &mut [Vec<W>],
    ) -> &'f [W] {
        match kernel {
            Some(prog) => prog.execute(frame),
            None => cc.eval2(frame),
        }
        frame
    }

    fn plan(
        &self,
        prog: &KernelProgram,
        cc: &CompiledCircuit,
        faults: &[Fault],
    ) -> StuckKernelPlan {
        StuckKernelPlan::build(prog, cc, faults, &self.observed)
    }

    /// Injects and propagates each fault with the same [`Propagator`]
    /// routine TPI's [`crate::propagate_fault`] runs, ORing the diffs
    /// that reach an observed node or a flip-flop site (a `D`-pin fault,
    /// captured directly) into its detection word.
    fn reference<W: LaneWord>(&self, batch: &Batch<'_, W>, active: &[u32], out: &mut [W]) {
        let Batch { cc, faults, frame, lane_mask, .. } = *batch;
        let mut prop = Propagator::new(cc);
        for (&fault_idx, slot) in active.iter().zip(out.iter_mut()) {
            let mut detected = W::zero();
            prop.stuck_at(cc, &faults[fault_idx as usize], frame, |node, diff| {
                if self.observed[node.index()] || cc.kind(node) == GateKind::Dff {
                    detected = detected.or(diff);
                }
            });
            *slot = detected.and(lane_mask);
        }
    }

    fn kernel_grade_shard<W: LaneWord>(
        &self,
        prog: &KernelProgram,
        plan: &StuckKernelPlan,
        batch: &Batch<'_, W>,
        shard: &[u32],
        scratch: &mut KernelScratch<W>,
        out: &mut [W],
    ) {
        kernel_grade_shard(prog, plan, batch, shard, scratch, out);
    }

    /// The captured response: the word on the cell's `D` pin.
    fn response<W: LaneWord>(cc: &CompiledCircuit, frame: &[W], _: &[Vec<W>], cell: NodeId) -> W {
        frame[cc.fanins(cell)[0].index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultUniverse};
    use lbist_netlist::{DomainId, Netlist};

    fn and_or() -> (Netlist, [NodeId; 3]) {
        let mut nl = Netlist::new("ao");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_gate(GateKind::And, &[a, b]);
        let g2 = nl.add_gate(GateKind::Or, &[g1, c]);
        nl.add_output("y", g2);
        (nl, [a, b, c])
    }

    /// Brute-force reference: a (stem) fault is detected by a pattern iff
    /// the faulty circuit's observed outputs differ from the good
    /// circuit's, evaluated with the fault site held at its stuck value.
    fn reference_detected(nl: &Netlist, fault: &Fault, assignments: &[(NodeId, bool)]) -> bool {
        assert!(fault.is_stem(), "reference supports stem faults");
        let cc = CompiledCircuit::compile(nl).unwrap();
        let forced = if fault.kind.faulty_value() { !0u64 } else { 0 };
        let eval = |faulty: bool| -> Vec<bool> {
            let mut frame = cc.new_frame();
            for &(n, v) in assignments {
                frame[n.index()] = if v { !0 } else { 0 };
            }
            if faulty {
                cc.eval2_forced(&mut frame, fault.node, forced);
            } else {
                cc.eval2(&mut frame);
            }
            cc.outputs().iter().map(|&o| frame[o.index()] & 1 == 1).collect()
        };
        eval(false) != eval(true)
    }

    #[test]
    fn matches_brute_force_on_small_circuit() {
        let (nl, ins) = and_or();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        // Grade every stem fault against every input pattern, one per lane.
        let stems: Vec<Fault> = nl
            .ids()
            .filter(|&n| nl.kind(n).is_logic() || nl.kind(n) == GateKind::Input)
            .flat_map(|n| {
                [Fault::stem(n, FaultKind::StuckAt0), Fault::stem(n, FaultKind::StuckAt1)]
            })
            .collect();
        let mut sim = StuckAtSim::new(&cc, stems.clone(), StuckAtSim::observe_all_captures(&cc));
        sim.set_drop_after(u32::MAX); // never drop: count every detection

        let mut frame = cc.new_frame();
        for p in 0..8u64 {
            for (bit, &input) in ins.iter().enumerate() {
                if (p >> bit) & 1 == 1 {
                    frame[input.index()] |= 1 << p;
                }
            }
        }
        sim.run_batch(&mut frame, 8);

        for (idx, fault) in stems.iter().enumerate() {
            let mut expect = 0u32;
            for p in 0..8u64 {
                let assignments: Vec<(NodeId, bool)> =
                    ins.iter().enumerate().map(|(bit, &i)| (i, (p >> bit) & 1 == 1)).collect();
                if reference_detected(&nl, fault, &assignments) {
                    expect += 1;
                }
            }
            assert_eq!(sim.detections()[idx], expect, "fault {fault}");
        }
    }

    #[test]
    fn exhaustive_patterns_detect_all_collapsed_faults() {
        let (nl, ins) = and_or();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        let mut sim =
            StuckAtSim::new(&cc, universe.representatives(), StuckAtSim::observe_all_captures(&cc));
        let mut frame = cc.new_frame();
        for p in 0..8u64 {
            for (bit, &input) in ins.iter().enumerate() {
                if (p >> bit) & 1 == 1 {
                    frame[input.index()] |= 1 << p;
                }
            }
        }
        sim.run_batch(&mut frame, 8);
        let cov = sim.coverage();
        assert_eq!(cov.detected, cov.total, "all faults detectable: {:?}", sim.undetected());
        assert!((cov.fault_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lane_mask_ignores_unused_lanes() {
        let (nl, ins) = and_or();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        let mut sim =
            StuckAtSim::new(&cc, universe.representatives(), StuckAtSim::observe_all_captures(&cc));
        let mut frame = cc.new_frame();
        // Only lane 0 is "real" (all zeros); lanes 1..63 contain garbage
        // that would detect faults if counted.
        for &i in &ins {
            frame[i.index()] = !1;
        }
        sim.run_batch(&mut frame, 1);
        // With a=b=c=0, only a handful of faults are detectable (those whose
        // effect makes y=1): g2/SA1, c/SA1, g1/SA1-class...
        let detected = sim.detections().iter().filter(|&&d| d > 0).count();
        assert!(detected > 0);
        assert!(detected < sim.faults().len() / 2, "garbage lanes leaked into grading");
    }

    #[test]
    fn dropped_faults_are_skipped() {
        let (nl, ins) = and_or();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        let mut sim =
            StuckAtSim::new(&cc, universe.representatives(), StuckAtSim::observe_all_captures(&cc));
        let mut frame = cc.new_frame();
        for (bit, &input) in ins.iter().enumerate() {
            frame[input.index()] = if bit == 0 { !0 } else { 0 };
        }
        let active_before = sim.active_faults();
        let dropped_first = sim.run_batch(&mut frame, 64);
        let mut frame2 = frame.clone();
        let dropped_second = sim.run_batch(&mut frame2, 64);
        assert!(dropped_first > 0);
        assert_eq!(dropped_second, 0, "same patterns cannot drop new faults");
        assert_eq!(
            sim.active_faults(),
            active_before - dropped_first,
            "active list compacts by exactly the dropped count"
        );
    }

    #[test]
    fn dff_d_pin_branch_fault_detected_when_excited() {
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let ff = nl.add_dff(a, DomainId::new(0));
        nl.add_output("q", ff);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let fault = Fault::branch(ff, 0, FaultKind::StuckAt0);
        let mut sim = StuckAtSim::new(&cc, vec![fault], StuckAtSim::observe_all_captures(&cc));
        let mut frame = cc.new_frame();
        frame[a.index()] = 0b1; // excites SA0 in lane 0
        sim.run_batch(&mut frame, 1);
        assert_eq!(sim.detections()[0], 1);
    }

    #[test]
    fn observation_points_increase_coverage() {
        // XOR cone where one branch is masked from the PO by an AND with 0.
        let mut nl = Netlist::new("obs");
        let a = nl.add_input("a");
        let zero = nl.add_input("tie"); // held 0 in patterns below
        let hidden = nl.add_gate(GateKind::Not, &[a]);
        let masked = nl.add_gate(GateKind::And, &[hidden, zero]);
        nl.add_output("y", masked);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let faults = vec![Fault::stem(hidden, FaultKind::StuckAt0)];

        let run = |observe_hidden: bool| {
            let mut obs = StuckAtSim::observe_all_captures(&cc);
            if observe_hidden {
                obs.push(hidden);
            }
            let mut sim = StuckAtSim::new(&cc, faults.clone(), obs);
            let mut frame = cc.new_frame();
            frame[a.index()] = 0; // hidden = 1, SA0 excited
            frame[zero.index()] = 0; // masks the PO path
            sim.run_batch(&mut frame, 4);
            sim.detections()[0]
        };
        assert_eq!(run(false), 0, "masked fault invisible at PO");
        assert!(run(true) > 0, "observation point reveals it");
    }

    /// The headline determinism contract: parallel grading (forced to
    /// several shards) reports exactly the serial detection counts.
    #[test]
    fn parallel_and_serial_detections_are_bit_identical() {
        let (nl, ins) = and_or();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        let observed = StuckAtSim::observe_all_captures(&cc);

        let run = |threads: usize| {
            let mut sim = StuckAtSim::new(&cc, universe.representatives(), observed.clone());
            sim.set_threads(threads);
            sim.set_drop_after(2);
            let mut frame = cc.new_frame();
            for p in 0..8u64 {
                for (bit, &input) in ins.iter().enumerate() {
                    if (p >> bit) & 1 == 1 {
                        frame[input.index()] |= 1 << p;
                    }
                }
            }
            sim.run_batch(&mut frame, 8);
            let mut frame2 = cc.new_frame();
            for &i in &ins {
                frame2[i.index()] = 0x0F;
            }
            sim.run_batch(&mut frame2, 8);
            (sim.detections().to_vec(), sim.coverage(), sim.active_faults())
        };

        let serial = run(1);
        for threads in [2, 3, 8] {
            let parallel = run(threads);
            assert_eq!(parallel.0, serial.0, "{threads}-thread detections differ");
            assert_eq!(parallel.1, serial.1, "{threads}-thread coverage differs");
            assert_eq!(parallel.2, serial.2, "{threads}-thread active count differs");
        }
    }

    /// One wide batch grades exactly like the stack of 64-lane batches
    /// it packs: identical detection counts without dropping, and the
    /// identical detected-fault set under the usual drop-after-1 flow
    /// (drop *timing* is batch-granular, so raw counts legitimately
    /// differ once faults drop mid-stream).
    #[test]
    fn wide_batch_equals_stacked_64_lane_batches() {
        fn check<W: LaneWord>() {
            let (nl, ins) = and_or();
            let cc = CompiledCircuit::compile(&nl).unwrap();
            let universe = FaultUniverse::stuck_at(&nl);
            let observed = StuckAtSim::observe_all_captures(&cc);
            // Distinct input words per 64-lane sub-batch.
            let word = |k: usize, bit: usize| -> u64 {
                0x9E37_79B9_7F4A_7C15u64.rotate_left((k * 23 + bit * 7) as u32)
            };

            let run = |drop_after: u32| {
                let mut narrow = StuckAtSim::new(&cc, universe.representatives(), observed.clone());
                narrow.set_drop_after(drop_after);
                for k in 0..W::WORDS {
                    let mut frame = cc.new_frame();
                    for (bit, &i) in ins.iter().enumerate() {
                        frame[i.index()] = word(k, bit);
                    }
                    narrow.run_batch(&mut frame, 64);
                }

                let mut wide: WideStuckAtSim<'_, W> =
                    WideStuckAtSim::new(&cc, universe.representatives(), observed.clone());
                wide.set_drop_after(drop_after);
                let mut frame: Vec<W> = cc.new_wide_frame();
                for (bit, &i) in ins.iter().enumerate() {
                    for k in 0..W::WORDS {
                        frame[i.index()].set_word(k, word(k, bit));
                    }
                }
                wide.run_batch(&mut frame, W::LANES);
                (narrow, wide)
            };

            // No dropping: every count is exact and must match.
            let (narrow, wide) = run(u32::MAX);
            assert_eq!(wide.detections(), narrow.detections(), "{} lanes", W::LANES);
            assert_eq!(wide.coverage(), narrow.coverage(), "{} lanes", W::LANES);

            // Drop-after-1 (the production flow): the detected *set* and
            // the compacted active list must match.
            let (narrow, wide) = run(1);
            assert_eq!(
                wide.undetected_indices(),
                narrow.undetected_indices(),
                "{} lanes: detected sets diverged under dropping",
                W::LANES
            );
            assert_eq!(wide.active_faults(), narrow.active_faults(), "{} lanes", W::LANES);
            assert_eq!(wide.coverage().detected, narrow.coverage().detected);
        }
        check::<u128>();
        check::<[u64; 4]>();
    }

    /// The kernel path (compiled program + event-driven replay) reports exactly
    /// the interpreter's per-fault detection words across a circuit
    /// mixing inverter chains, inverting gates, flip-flops, stem,
    /// branch, and D-pin faults — serial and sharded.
    #[test]
    fn kernel_grading_matches_interpreter_bit_for_bit() {
        let mut nl = Netlist::new("kern");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let n1 = nl.add_gate(GateKind::Not, &[a]);
        let n2 = nl.add_gate(GateKind::Not, &[n1]);
        let g1 = nl.add_gate(GateKind::And, &[n2, b]);
        let g2 = nl.add_gate(GateKind::Nor, &[g1, c]);
        let g3 = nl.add_gate(GateKind::Xor, &[g2, a, b]);
        let ff = nl.add_dff(g3, DomainId::new(0));
        let g4 = nl.add_gate(GateKind::Or, &[ff, c]);
        nl.add_output("y", g4);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        let faults = universe.representatives();
        let observed = StuckAtSim::observe_all_captures(&cc);
        let keep = crate::grading_keep_set(&cc, &[&faults], &observed);
        let prog = std::sync::Arc::new(lbist_sim::KernelProgram::lower(&cc, &keep));

        let inputs = [a, b, c, ff];
        let word = |k: u64, bit: usize| -> u64 {
            (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left((bit * 11) as u32)
        };
        let run = |kernel: bool, threads: usize| {
            let mut sim = StuckAtSim::new(&cc, faults.clone(), observed.clone());
            sim.set_threads(threads);
            sim.set_drop_after(2);
            sim.set_kernel(kernel.then(|| prog.clone()));
            assert_eq!(sim.uses_kernel(), kernel);
            for k in 0..4u64 {
                let mut frame = cc.new_frame();
                for (bit, &i) in inputs.iter().enumerate() {
                    frame[i.index()] = word(k, bit);
                }
                sim.run_batch(&mut frame, 64);
            }
            (sim.detections().to_vec(), sim.coverage(), sim.active_faults())
        };

        let reference = run(false, 1);
        assert!(reference.1.detected > 0, "scenario must detect something");
        for threads in [1, 3] {
            let kernel = run(true, threads);
            assert_eq!(kernel.0, reference.0, "kernel detections differ ({threads} threads)");
            assert_eq!(kernel.1, reference.1, "kernel coverage differs ({threads} threads)");
            assert_eq!(kernel.2, reference.2, "kernel active count differs ({threads} threads)");
        }
    }

    /// A kernel program lowered without the grading keep set fails
    /// loudly at the first batch instead of silently misgrading.
    #[test]
    #[should_panic(expected = "grading_keep_set")]
    fn kernel_without_keep_set_panics() {
        // a -> NOT -> NOT -> y: with only the output kept, the chain
        // interiors fuse into operand flags, so a fault site on one of
        // them has no slot to seed.
        let mut nl = Netlist::new("fused");
        let a = nl.add_input("a");
        let n1 = nl.add_gate(GateKind::Not, &[a]);
        let n2 = nl.add_gate(GateKind::Not, &[n1]);
        nl.add_output("y", n2);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut keep = vec![false; cc.num_nodes()];
        for &o in cc.outputs() {
            keep[o.index()] = true;
        }
        let prog = std::sync::Arc::new(lbist_sim::KernelProgram::lower(&cc, &keep));
        let faults = vec![Fault::stem(n1, FaultKind::StuckAt0)];
        let mut sim = StuckAtSim::new(&cc, faults, vec![]);
        sim.set_kernel(Some(prog));
        let mut frame = cc.new_frame();
        frame[a.index()] = 1;
        sim.run_batch(&mut frame, 1);
    }

    /// Compaction bookkeeping: a dropped fault leaves the active list but
    /// every undetected fault stays in it, across several batches.
    #[test]
    fn compaction_never_loses_undetected_faults() {
        let (nl, ins) = and_or();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        let mut sim =
            StuckAtSim::new(&cc, universe.representatives(), StuckAtSim::observe_all_captures(&cc));
        sim.set_threads(2);
        // One input pattern per batch, walking the 8 combinations.
        for p in 0..8u64 {
            let mut frame = cc.new_frame();
            for (bit, &input) in ins.iter().enumerate() {
                frame[input.index()] = if (p >> bit) & 1 == 1 { 1 } else { 0 };
            }
            sim.run_batch(&mut frame, 1);
            let undetected = sim.undetected_indices().len();
            assert_eq!(
                sim.active_faults(),
                undetected,
                "after batch {p}: active list must hold exactly the undetected faults"
            );
        }
        assert_eq!(sim.active_faults(), 0, "exhaustive patterns detect everything");
    }
}
