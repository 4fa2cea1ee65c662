//! Fault dictionaries: pattern → detected-fault maps for diagnosis.
//!
//! Once interval diagnosis (MISR snapshots, see `lbist-core`) brackets the
//! first failing pattern window, a *fault dictionary* turns the bracketing
//! into candidate defects: for each pattern, which faults would have been
//! detected — so an observed first-failing pattern index intersects down
//! to a small suspect list. Building the full dictionary is a bounded
//! extra fault-simulation pass; it is how 2005-era flows did
//! "downloading internal states for fault diagnosis" (§1) one better.

use crate::{Fault, StuckAtSim, WideStuckAtSim};
use lbist_exec::LaneWord;
use lbist_netlist::NodeId;
use lbist_sim::CompiledCircuit;

/// A pattern-indexed fault dictionary.
///
/// `entry(p)` lists the indices (into the fault list) of every fault
/// pattern `p` detects. Built without fault dropping: diagnosis needs the
/// *complete* per-pattern detection sets.
#[derive(Clone, Debug)]
pub struct FaultDictionary {
    faults: Vec<Fault>,
    /// detections[p] = sorted fault indices detected by pattern p.
    detections: Vec<Vec<u32>>,
}

impl FaultDictionary {
    /// Builds the dictionary over `faults` for a sequence of pattern
    /// batches, at any lane width. `batches` yields filled source frames
    /// (as for [`crate::FaultSim::run_batch`]) plus the live pattern count per
    /// batch; pattern indices advance by `num_patterns` per batch, so a
    /// 256-lane batch contributes the same dictionary columns as four
    /// 64-lane batches over the same stream.
    pub fn build<W: LaneWord>(
        cc: &CompiledCircuit,
        faults: Vec<Fault>,
        observed: Vec<NodeId>,
        batches: impl IntoIterator<Item = (Vec<W>, usize)>,
    ) -> Self {
        let mut sim: WideStuckAtSim<'_, W> = WideStuckAtSim::new(cc, faults.clone(), observed);
        sim.set_drop_after(u32::MAX);
        let mut detections: Vec<Vec<u32>> = Vec::new();
        for (mut frame, num_patterns) in batches {
            sim.run_batch(&mut frame, num_patterns);
            let base = detections.len();
            detections.resize_with(base + num_patterns, Vec::new);
            // Lane iteration through `LaneWord` instead of an open-coded
            // `u64` trailing-zeros walk, which would silently drop lanes
            // 64+ of a wide batch.
            for (fi, word) in sim.batch_words() {
                word.for_each_set_lane(|lane| detections[base + lane].push(fi));
            }
            // The simulator grades in level order; entries list faults
            // in index order.
            for entry in &mut detections[base..] {
                entry.sort_unstable();
            }
        }
        FaultDictionary { faults, detections }
    }

    /// The fault list the indices refer to.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of patterns covered.
    pub fn num_patterns(&self) -> usize {
        self.detections.len()
    }

    /// Fault indices detected by pattern `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn entry(&self, p: usize) -> &[u32] {
        &self.detections[p]
    }

    /// Diagnosis: the candidate faults consistent with an observed
    /// pass/fail pattern signature — faults detected by *every* failing
    /// pattern and *no* passing pattern in the observed range.
    pub fn candidates(&self, failing: &[usize], passing: &[usize]) -> Vec<Fault> {
        let mut suspect: Option<Vec<u32>> = None;
        for &p in failing {
            let set = &self.detections[p];
            suspect = Some(match suspect {
                None => set.clone(),
                Some(prev) => prev.iter().copied().filter(|f| set.contains(f)).collect(),
            });
        }
        let mut suspects = suspect.unwrap_or_default();
        for &p in passing {
            let set = &self.detections[p];
            suspects.retain(|f| !set.contains(f));
        }
        suspects.into_iter().map(|f| self.faults[f as usize]).collect()
    }
}

/// Convenience: builds the standard full-capture observation dictionary
/// (any lane width).
pub fn build_dictionary<W: LaneWord>(
    cc: &CompiledCircuit,
    faults: Vec<Fault>,
    batches: impl IntoIterator<Item = (Vec<W>, usize)>,
) -> FaultDictionary {
    FaultDictionary::build(cc, faults, StuckAtSim::observe_all_captures(cc), batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, FaultUniverse};
    use lbist_netlist::{GateKind, Netlist};

    fn circuit() -> (Netlist, [NodeId; 3]) {
        let mut nl = Netlist::new("dict");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_gate(GateKind::And, &[a, b]);
        let g2 = nl.add_gate(GateKind::Or, &[g1, c]);
        nl.add_output("y", g2);
        (nl, [a, b, c])
    }

    fn exhaustive_batch(cc: &CompiledCircuit, ins: &[NodeId; 3]) -> (Vec<u64>, usize) {
        let mut frame = cc.new_frame();
        for p in 0..8u64 {
            for (bit, &i) in ins.iter().enumerate() {
                if (p >> bit) & 1 == 1 {
                    frame[i.index()] |= 1 << p;
                }
            }
        }
        (frame, 8)
    }

    #[test]
    fn dictionary_matches_simulator_detections() {
        let (nl, ins) = circuit();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        let dict = build_dictionary(&cc, universe.representatives(), [exhaustive_batch(&cc, &ins)]);
        assert_eq!(dict.num_patterns(), 8);
        // Cross-check against StuckAtSim with no dropping.
        let mut sim =
            StuckAtSim::new(&cc, universe.representatives(), StuckAtSim::observe_all_captures(&cc));
        sim.set_drop_after(u32::MAX);
        let (mut frame, n) = exhaustive_batch(&cc, &ins);
        sim.run_batch(&mut frame, n);
        for (fi, &d) in sim.detections().iter().enumerate() {
            let dict_count =
                (0..8).filter(|&p| dict.entry(p).contains(&(fi as u32))).count() as u32;
            assert_eq!(dict_count, d, "fault {}", sim.faults()[fi]);
        }
    }

    /// Lane iteration is width-true: patterns living in lanes 64+ of a
    /// `u128` batch land in the right dictionary columns (an open-coded
    /// `u64` walk would silently drop them).
    #[test]
    fn wide_batches_fill_high_lane_columns() {
        let (nl, ins) = circuit();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        // The 8 exhaustive patterns in lanes 0..8 AND again in 64..72.
        let mut frame: Vec<u128> = cc.new_wide_frame();
        for p in 0..8usize {
            for (bit, &i) in ins.iter().enumerate() {
                if (p >> bit) & 1 == 1 {
                    frame[i.index()] |= (1u128 << p) | (1u128 << (64 + p));
                }
            }
        }
        let wide = build_dictionary(&cc, universe.representatives(), [(frame, 72)]);
        assert_eq!(wide.num_patterns(), 72);
        let narrow =
            build_dictionary(&cc, universe.representatives(), [exhaustive_batch(&cc, &ins)]);
        for p in 0..8 {
            assert_eq!(wide.entry(p), narrow.entry(p), "low lane {p}");
            assert_eq!(wide.entry(64 + p), narrow.entry(p), "high lane {p}");
        }
        // Lanes 8..64 carry all-zero inputs — exactly pattern 0's column.
        for p in 8..64 {
            assert_eq!(wide.entry(p), narrow.entry(0), "all-zero lane {p}");
        }
    }

    #[test]
    fn candidates_localise_an_injected_fault() {
        let (nl, ins) = circuit();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        let reps = universe.representatives();
        let dict = build_dictionary(&cc, reps.clone(), [exhaustive_batch(&cc, &ins)]);

        // Pretend fault #0 is the real defect: its pass/fail signature is
        // exactly its dictionary column.
        let truth = 0u32;
        let failing: Vec<usize> = (0..8).filter(|&p| dict.entry(p).contains(&truth)).collect();
        let passing: Vec<usize> = (0..8).filter(|&p| !dict.entry(p).contains(&truth)).collect();
        assert!(!failing.is_empty());
        let candidates = dict.candidates(&failing, &passing);
        assert!(
            candidates.contains(&reps[truth as usize]),
            "the true defect must survive the intersection"
        );
        // Equivalence classes aside, the suspect list is small.
        assert!(candidates.len() <= 4, "suspects: {candidates:?}");
    }

    #[test]
    fn empty_failing_set_yields_no_candidates() {
        let (nl, ins) = circuit();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let dict = build_dictionary(
            &cc,
            vec![Fault::stem(ins[0], FaultKind::StuckAt0)],
            [exhaustive_batch(&cc, &ins)],
        );
        assert!(dict.candidates(&[], &[0, 1, 2]).is_empty());
    }
}
