//! Property-based tests over the core data structures and invariants.

use lbist::fault::{CaptureWindow, Fault, FaultKind, FaultUniverse, StuckAtSim, TransitionSim};
use lbist::netlist::{parse_bench, to_bench, DomainId, GateKind, Netlist, NodeId};
use lbist::sim::{CompiledCircuit, Logic};
use lbist::tpg::{Lfsr, LfsrPoly, Misr, PhaseShifter, SpaceCompactor, SpaceExpander};
use proptest::prelude::*;

/// Strategy: a random small combinational netlist (acyclic by
/// construction: gates only read earlier nodes).
fn arb_comb_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..6, proptest::collection::vec((0usize..5, 0usize..100, 0usize..100), 1..40)).prop_map(
        |(num_inputs, gate_specs)| {
            let mut nl = Netlist::new("prop");
            let mut pool: Vec<NodeId> =
                (0..num_inputs).map(|i| nl.add_input(&format!("i{i}"))).collect();
            for (kind_sel, a, b) in gate_specs {
                let kind = match kind_sel {
                    0 => GateKind::And,
                    1 => GateKind::Or,
                    2 => GateKind::Xor,
                    3 => GateKind::Nand,
                    _ => GateKind::Not,
                };
                let fa = pool[a % pool.len()];
                let fb = pool[b % pool.len()];
                let g = if kind == GateKind::Not {
                    nl.add_gate(kind, &[fa])
                } else {
                    nl.add_gate(kind, &[fa, fb])
                };
                pool.push(g);
            }
            let out = *pool.last().unwrap();
            nl.add_output("y", out);
            nl
        },
    )
}

/// Strategy: a random small *sequential* netlist — gates interleaved with
/// flip-flops across two clock domains (acyclic by construction).
fn arb_seq_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..5, proptest::collection::vec((0usize..6, 0usize..100, 0usize..100), 4..32)).prop_map(
        |(num_inputs, specs)| {
            let mut nl = Netlist::new("seqprop");
            let mut pool: Vec<NodeId> =
                (0..num_inputs).map(|i| nl.add_input(&format!("i{i}"))).collect();
            for (sel, a, b) in specs {
                let fa = pool[a % pool.len()];
                let fb = pool[b % pool.len()];
                let node = match sel {
                    0 => nl.add_gate(GateKind::And, &[fa, fb]),
                    1 => nl.add_gate(GateKind::Or, &[fa, fb]),
                    2 => nl.add_gate(GateKind::Xor, &[fa, fb]),
                    3 => nl.add_gate(GateKind::Not, &[fa]),
                    4 => nl.add_dff(fa, DomainId::new(0)),
                    _ => nl.add_dff(fa, DomainId::new(1)),
                };
                pool.push(node);
            }
            // Guarantee both domains exist (the capture window pulses both)
            // and something is observed.
            let last = *pool.last().unwrap();
            let ff0 = nl.add_dff(last, DomainId::new(0));
            let ff1 = nl.add_dff(ff0, DomainId::new(1));
            nl.add_output("y", ff1);
            nl
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-trip: serialise to `.bench`, reparse, identical structure and
    /// identical simulation behaviour on a probe pattern.
    #[test]
    fn bench_round_trip_preserves_function(nl in arb_comb_netlist(), stim: u64) {
        let text = to_bench(&nl);
        let re = parse_bench(&text).unwrap();
        prop_assert_eq!(re.gate_count(), nl.gate_count());
        let run = |n: &Netlist| -> Vec<u64> {
            let cc = CompiledCircuit::compile(n).unwrap();
            let mut frame = cc.new_frame();
            let mut s = stim;
            for &pi in cc.inputs() {
                frame[pi.index()] = s;
                s = s.rotate_left(7) ^ 0x9E37_79B9_7F4A_7C15;
            }
            cc.eval2(&mut frame);
            cc.outputs().iter().map(|&o| frame[o.index()]).collect()
        };
        prop_assert_eq!(run(&nl), run(&re));
    }

    /// 3-valued simulation is a sound abstraction of 2-valued simulation:
    /// wherever it reports a definite value, 2-valued agrees.
    #[test]
    fn ternary_sim_is_conservative(nl in arb_comb_netlist(), stim: u64) {
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame2 = cc.new_frame();
        let mut frame3 = lbist::sim::Frame3::new(&cc);
        let mut s = stim;
        for &pi in cc.inputs() {
            frame2[pi.index()] = s;
            frame3.set_words(pi, s, 0);
            s = s.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(11);
        }
        cc.eval2(&mut frame2);
        cc.eval3(&mut frame3);
        for id in nl.ids() {
            let x = frame3.xmask_of(id);
            prop_assert_eq!(frame3.value_of(id) & !x, frame2[id.index()] & !x,
                            "definite bits must agree at {}", id);
        }
    }

    /// Every fault the PPSFP engine — compiled kernel or interpreter
    /// reference — reports detected is confirmed by brute-force forced
    /// evaluation, and vice versa (single pattern).
    #[test]
    fn ppsfp_matches_forced_evaluation(nl in arb_comb_netlist(), stim: u64, interpreter: bool) {
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let observed = StuckAtSim::observe_all_captures(&cc);
        // Pick stem faults over all logic nodes.
        let faults: Vec<Fault> = nl.ids()
            .filter(|&n| nl.kind(n).is_logic() || nl.kind(n) == GateKind::Input)
            .flat_map(|n| [Fault::stem(n, FaultKind::StuckAt0), Fault::stem(n, FaultKind::StuckAt1)])
            .collect();
        let mut sim = StuckAtSim::new(&cc, faults.clone(), observed);
        if interpreter {
            sim.set_kernel(None);
        }
        prop_assert_eq!(sim.uses_kernel(), !interpreter);
        let mut frame = cc.new_frame();
        let mut s = stim;
        let mut stims = Vec::new();
        for &pi in cc.inputs() {
            stims.push((pi, s & 1 == 1));
            frame[pi.index()] = s & 1; // single-lane pattern
            s >>= 1;
        }
        sim.run_batch(&mut frame, 1);
        for (idx, fault) in faults.iter().enumerate() {
            // Forced evaluation reference.
            let forced = if fault.kind.faulty_value() { !0u64 } else { 0 };
            let eval = |faulty: bool| -> Vec<bool> {
                let mut fr = cc.new_frame();
                for &(pi, v) in &stims {
                    fr[pi.index()] = if v { !0 } else { 0 };
                }
                if faulty {
                    cc.eval2_forced(&mut fr, fault.node, forced);
                } else {
                    cc.eval2(&mut fr);
                }
                cc.outputs().iter().map(|&o| fr[o.index()] & 1 == 1).collect()
            };
            let expect = eval(false) != eval(true);
            prop_assert_eq!(sim.detections()[idx] > 0, expect, "fault {}", fault);
        }
    }

    /// Sharded stuck-at grading reports coverage bit-identical to serial
    /// grading on arbitrary netlists — the determinism contract of the
    /// parallel fault-simulation engine.
    #[test]
    fn parallel_stuck_at_coverage_equals_serial(nl in arb_comb_netlist(), stim: u64) {
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        let observed = StuckAtSim::observe_all_captures(&cc);
        let run = |threads: usize| {
            let mut sim = StuckAtSim::new(&cc, universe.representatives(), observed.clone());
            sim.set_threads(threads);
            let mut s = stim | 1;
            for batch in 0..2u64 {
                let mut frame = cc.new_frame();
                for &pi in cc.inputs() {
                    frame[pi.index()] = s ^ batch.wrapping_mul(0xA5A5_A5A5_A5A5_A5A5);
                    s = s.rotate_left(9) ^ 0x0123_4567_89AB_CDEF;
                }
                sim.run_batch(&mut frame, 64);
            }
            (sim.detections().to_vec(), sim.coverage(), sim.active_faults())
        };
        let serial = run(1);
        for threads in [2, 5] {
            let parallel = run(threads);
            prop_assert_eq!(&parallel.0, &serial.0, "detections differ at {} threads", threads);
            prop_assert_eq!(&parallel.1, &serial.1, "coverage differs at {} threads", threads);
            prop_assert_eq!(parallel.2, serial.2, "active counts differ at {} threads", threads);
        }
    }

    /// The same contract for launch-on-capture transition grading on
    /// random sequential netlists with two clock domains.
    #[test]
    fn parallel_transition_coverage_equals_serial(nl in arb_seq_netlist(), stim: u64) {
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let faults: Vec<Fault> = nl
            .ids()
            .filter(|&n| nl.kind(n).is_logic())
            .flat_map(|n| {
                [Fault::stem(n, FaultKind::SlowToRise), Fault::stem(n, FaultKind::SlowToFall)]
            })
            .collect();
        if faults.is_empty() {
            return;
        }
        let window = CaptureWindow::all_domains(2);
        let run = |threads: usize| {
            let mut sim = TransitionSim::new(&cc, faults.clone(), window.clone());
            sim.set_threads(threads);
            let mut s = stim | 1;
            for _ in 0..2 {
                let mut base = cc.new_frame();
                for &pi in cc.inputs() {
                    base[pi.index()] = s;
                    s = s.rotate_left(17) ^ 0xFEDC_BA98_7654_3210;
                }
                for &ff in cc.dffs() {
                    base[ff.index()] = s;
                    s = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
                }
                sim.run_batch(&base, 64);
            }
            (sim.detections().to_vec(), sim.coverage(), sim.active_faults())
        };
        let serial = run(1);
        for threads in [2, 5] {
            let parallel = run(threads);
            prop_assert_eq!(&parallel.0, &serial.0, "detections differ at {} threads", threads);
            prop_assert_eq!(&parallel.1, &serial.1, "coverage differs at {} threads", threads);
            prop_assert_eq!(parallel.2, serial.2, "active counts differ at {} threads", threads);
        }
    }

    /// MISR superposition: sig(a ⊕ b) = sig(a) ⊕ sig(b) for any streams.
    #[test]
    fn misr_superposition(width in 3usize..20, stream_a: Vec<u8>, stream_b: Vec<u8>) {
        let poly = LfsrPoly::nearest_maximal(width);
        let inputs = poly.degree().min(8);
        let len = stream_a.len().min(stream_b.len()).min(64);
        let bits = |bytes: &[u8], t: usize, i: usize| (bytes[t] >> (i % 8)) & 1 == 1;
        let run = |f: &dyn Fn(usize, usize) -> bool| {
            let mut m = Misr::new(poly.clone(), inputs);
            for t in 0..len {
                let v: Vec<bool> = (0..inputs).map(|i| f(t, i)).collect();
                m.clock(&v);
            }
            m.signature().clone()
        };
        let sa = run(&|t, i| bits(&stream_a, t, i));
        let sb = run(&|t, i| bits(&stream_b, t, i));
        let sx = run(&|t, i| bits(&stream_a, t, i) ^ bits(&stream_b, t, i));
        let mut sum = sa.clone();
        sum.xor_assign(&sb);
        prop_assert_eq!(sum, sx);
    }

    /// Phase shifter: channel c equals the raw LFSR stream delayed by
    /// c × separation, for arbitrary degree/channels/separation.
    #[test]
    fn phase_shifter_shift_property(
        deg in 4usize..14,
        channels in 1usize..5,
        sep in 1u64..200,
        steps in 1usize..80,
    ) {
        let poly = LfsrPoly::maximal(deg).unwrap();
        let ps = PhaseShifter::synthesize(&poly, channels, sep);
        let horizon = steps as u64 + channels as u64 * sep + 1;
        let mut reference = Lfsr::with_ones_seed(poly.clone());
        let stream: Vec<bool> = (0..horizon).map(|_| reference.step()).collect();
        let mut lfsr = Lfsr::with_ones_seed(poly);
        for t in 0..steps {
            let outs = ps.outputs(lfsr.state());
            for (c, &bit) in outs.iter().enumerate() {
                prop_assert_eq!(bit, stream[t + c * sep as usize]);
            }
            lfsr.step();
        }
    }

    /// Space expander and compactor are exact inverses of nothing — but
    /// both are linear, and compaction preserves single-error visibility:
    /// flipping exactly one chain bit always flips exactly one compactor
    /// output.
    #[test]
    fn compactor_single_error_visibility(chains in 2usize..24, outputs in 1usize..8, flip in 0usize..24) {
        let outputs = outputs.min(chains);
        let c = SpaceCompactor::balanced(chains, outputs);
        let clean = vec![false; chains];
        let mut dirty = clean.clone();
        dirty[flip % chains] = true;
        let a = c.compact(&clean);
        let b = c.compact(&dirty);
        let diff = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        prop_assert_eq!(diff, 1);
    }

    /// The expander never hands two chains identical streams (distinct
    /// linear combinations), for any legal sizing.
    #[test]
    fn expander_combos_distinct(channels in 2usize..8, extra in 0usize..10) {
        let max = channels + channels * (channels - 1) / 2;
        let chains = (channels + extra).min(max);
        let e = SpaceExpander::new(channels, chains);
        prop_assert!(e.combos_distinct());
    }

    /// Collapsing never loses detection power: grading the collapsed set
    /// and the full set over the same patterns yields the same coverage
    /// *fraction* for equivalence-closed sets... (weaker, well-defined
    /// check: every collapsed class detected implies at least one member
    /// of the class is detected in the full run and vice versa).
    #[test]
    fn collapsed_and_full_grading_agree(nl in arb_comb_netlist(), stim: u64) {
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = FaultUniverse::stuck_at(&nl);
        let observed = StuckAtSim::observe_all_captures(&cc);
        let mut full = StuckAtSim::new(&cc, universe.faults().to_vec(), observed.clone());
        let mut reps = StuckAtSim::new(&cc, universe.representatives(), observed);
        let mut frame = cc.new_frame();
        let mut s = stim | 1;
        for &pi in cc.inputs() {
            frame[pi.index()] = s;
            s = s.rotate_left(13) ^ 0xABCD_EF01_2345_6789;
        }
        let mut frame2 = frame.clone();
        full.set_drop_after(u32::MAX);
        reps.set_drop_after(u32::MAX);
        full.run_batch(&mut frame, 64);
        reps.run_batch(&mut frame2, 64);
        // Class-level agreement.
        let mut class_detected_full = vec![false; universe.num_collapsed()];
        for (i, &d) in full.detections().iter().enumerate() {
            if d > 0 {
                class_detected_full[universe.class_of(i) as usize] = true;
            }
        }
        for (ci, &d) in reps.detections().iter().enumerate() {
            prop_assert_eq!(
                d > 0,
                class_detected_full[ci],
                "class {} rep detection disagrees with members", ci
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PODEM is sound on every stuck-at representative: a `Test` cube
    /// detects its fault under every random fill, and an `Untestable`
    /// verdict survives exhaustive simulation of all 2^n input vectors.
    #[test]
    fn podem_verdicts_are_sound(nl in arb_comb_netlist(), fill_seed: u64) {
        use lbist::atpg::{AtpgOutcome, Podem};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let cc = CompiledCircuit::compile(&nl).unwrap();
        let observed = StuckAtSim::observe_all_captures(&cc);
        let mut podem = Podem::new(&cc, observed.clone());
        let mut rng = SmallRng::seed_from_u64(fill_seed);
        let mut untestable = Vec::new();
        for fault in FaultUniverse::stuck_at(&nl).representatives() {
            match podem.generate(&fault) {
                AtpgOutcome::Test(cube) => {
                    for _ in 0..4 {
                        let mut frame = cc.new_frame();
                        cube.fill(&cc, &mut rng).load_into_lane(&cc, &mut frame, 0);
                        let mut sim = StuckAtSim::new(&cc, vec![fault], observed.clone());
                        sim.run_batch(&mut frame, 1);
                        prop_assert!(sim.detections()[0] > 0, "cube misses {}", fault);
                    }
                }
                AtpgOutcome::Untestable => untestable.push(fault),
                AtpgOutcome::Aborted => {}
            }
        }
        // At most 5 inputs: every input vector fits in one 64-lane frame,
        // lane k carrying vector k.
        let vectors = 1usize << cc.inputs().len();
        let mut frame = cc.new_frame();
        for (j, &pi) in cc.inputs().iter().enumerate() {
            frame[pi.index()] =
                (0..vectors).filter(|k| k >> j & 1 == 1).fold(0u64, |w, k| w | 1 << k);
        }
        let mut sim = StuckAtSim::new(&cc, untestable.clone(), observed);
        sim.run_batch(&mut frame, vectors);
        for (fault, &d) in untestable.iter().zip(sim.detections()) {
            prop_assert_eq!(d, 0, "{} called untestable but a vector detects it", fault);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Ternary scalar algebra is associative/commutative where it should
    /// be — the 5-valued PODEM algebra builds on this.
    #[test]
    fn ternary_algebra_laws(a in 0u8..3, b in 0u8..3, c in 0u8..3) {
        let lift = |x: u8| match x { 0 => Logic::Zero, 1 => Logic::One, _ => Logic::X };
        let (a, b, c) = (lift(a), lift(b), lift(c));
        prop_assert_eq!(a & b, b & a);
        prop_assert_eq!(a | b, b | a);
        prop_assert_eq!(a ^ b, b ^ a);
        prop_assert_eq!((a & b) & c, a & (b & c));
        prop_assert_eq!((a | b) | c, a | (b | c));
        prop_assert_eq!(!(a & b), !a | !b); // De Morgan holds in Kleene logic
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hybrid-BIST reseeding through the facade: a seed the GF(2) solver
    /// produces for a random cube, expanded by the real PRPG → phase
    /// shifter → expander → shift pipeline, reproduces every care bit;
    /// stored fallbacks keep the care bits in the pattern instead.
    #[test]
    fn reseed_solver_round_trips_through_real_pipeline(
        ffs in 6usize..30,
        n_chains in 1usize..5,
        separation in 1u64..64,
        care in proptest::collection::vec((0usize..1000, proptest::prelude::any::<bool>()), 1..14),
    ) {
        use lbist::dft::ScanChains;
        use lbist::reseed::{CubeFate, DomainChannel, ReseedPlanner, ScanLinearMap};
        use lbist::tpg::{LfsrPoly, Prpg, SpaceExpander};

        let mut nl = Netlist::new("reseed-prop");
        let a = nl.add_input("a");
        let mut prev = a;
        let mut cells = Vec::new();
        for _ in 0..ffs {
            prev = nl.add_dff(prev, DomainId::new(0));
            cells.push(prev);
        }
        nl.add_output("y", prev);
        let chains = ScanChains::stitch(&nl, n_chains.min(ffs));
        let n_chains = chains.chains().len();
        let poly = LfsrPoly::maximal(13).unwrap();
        let mut channels = 1usize;
        while channels + channels * (channels - 1) / 2 < n_chains {
            channels += 1;
        }
        let shifter = PhaseShifter::synthesize(&poly, channels, separation);
        let expander = SpaceExpander::new(channels, n_chains);
        let shift_cycles = chains.max_chain_length();
        let lfsr = Lfsr::with_ones_seed(poly.clone());
        let map = ScanLinearMap::build(
            &[DomainChannel {
                lfsr: &lfsr,
                shifter: &shifter,
                expander: Some(&expander),
                chains: chains.chains(),
            }],
            shift_cycles,
        );

        let mut cube = lbist::atpg::TestCube::new();
        for &(sel, value) in &care {
            cube.assign(cells[sel % cells.len()], value);
        }
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let plan = ReseedPlanner::new(&map).plan(std::slice::from_ref(&cube), &cc, 0xCAFE);

        match &plan.fates[0] {
            CubeFate::Seeded { group } => {
                let seed = plan.seeds[*group][0].clone().unwrap();
                // Real pipeline: scalar PRPG stepping, bits shifted into
                // chain cells exactly as the session loads them.
                let mut prpg = Prpg::with_expander(
                    Lfsr::new(poly.clone(), seed),
                    shifter.clone(),
                    expander.clone(),
                );
                let mut state = std::collections::HashMap::new();
                for t in 0..shift_cycles {
                    let bits = prpg.step_vector();
                    for (c, chain) in chains.chains().iter().enumerate() {
                        if let Some(&cell) = chain.cells.get(shift_cycles - 1 - t) {
                            state.insert(cell, bits[c]);
                        }
                    }
                }
                for &(cell, want) in cube.assignments() {
                    prop_assert_eq!(state[&cell], want, "care bit on {}", cell);
                }
            }
            CubeFate::Stored { index } => {
                let pattern = &plan.stored[*index];
                for &(cell, want) in cube.assignments() {
                    let pos = cc.dffs().iter().position(|&n| n == cell).unwrap();
                    prop_assert_eq!(pattern.ff_values[pos], want);
                }
            }
            CubeFate::Infeasible => prop_assert!(false, "scan-only cube cannot be infeasible"),
        }
    }
}
