//! Pinned PODEM and top-up output on a small multi-domain generated core.
//!
//! PODEM's search order (decision order, implication order, D-frontier
//! tie-breaks) decides every cube it emits, and so every top-up pattern
//! and reseed downstream of it. These digests pin that output: a change
//! to the search engine that is meant to be a pure speed-up must leave
//! them unchanged.

use lbist::atpg::{AtpgOutcome, Podem, TestCube, TopUpAtpg, TopUpReport};
use lbist::ckpt::Fnv64;
use lbist::cores::{CoreProfile, CpuCoreGenerator};
use lbist::dft::{prepare_core, BistReadyCore, PrepConfig, TpiMethod};
use lbist::fault::{Fault, FaultUniverse, StuckAtSim};
use lbist::sim::CompiledCircuit;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Core Y's 8-domain profile at 1/2048, prepared without test points,
/// with the survivors of 512 random patterns (`test_mode` held high).
fn core_and_survivors() -> (BistReadyCore, CompiledCircuit, Vec<Fault>) {
    let netlist = CpuCoreGenerator::new(CoreProfile::core_y().scaled(2048), 48).generate();
    let core = prepare_core(
        &netlist,
        &PrepConfig { obs_budget: 0, tpi: TpiMethod::None, ..PrepConfig::default() },
    );
    let cc = CompiledCircuit::compile(&core.netlist).unwrap();
    let faults = FaultUniverse::stuck_at(&core.netlist).representatives();
    let mut sim = StuckAtSim::new(&cc, faults, StuckAtSim::observe_all_captures(&cc));
    let mut rng = SmallRng::seed_from_u64(17);
    let mut frame = cc.new_frame();
    for _ in 0..8 {
        for &n in cc.inputs().iter().chain(cc.dffs()) {
            frame[n.index()] = rng.gen();
        }
        frame[core.test_mode().index()] = !0;
        sim.run_batch(&mut frame, 64);
    }
    let survivors = sim.undetected();
    (core, cc, survivors)
}

fn write_cube(h: &mut Fnv64, cube: &TestCube) {
    h.write_usize(cube.specified());
    for &(node, value) in cube.assignments() {
        h.write_usize(node.index());
        h.write(&[value as u8]);
    }
}

/// Digest of every survivor's outcome under the top-up schedule (24
/// backtracks, then 512 for the aborts), plus the outcome-class counts.
fn outcome_digest(cc: &CompiledCircuit, survivors: &[Fault]) -> (u64, [usize; 3]) {
    let mut podem = Podem::new(cc, StuckAtSim::observe_all_captures(cc));
    let mut h = Fnv64::new();
    let mut counts = [0usize; 3];
    for fault in survivors {
        podem.set_backtrack_limit(24);
        let outcome = match podem.generate(fault) {
            AtpgOutcome::Aborted => {
                podem.set_backtrack_limit(512);
                podem.generate(fault)
            }
            done => done,
        };
        match &outcome {
            AtpgOutcome::Test(cube) => {
                counts[0] += 1;
                h.write(&[0]);
                write_cube(&mut h, cube);
            }
            AtpgOutcome::Untestable => {
                counts[1] += 1;
                h.write(&[1]);
            }
            AtpgOutcome::Aborted => {
                counts[2] += 1;
                h.write(&[2]);
            }
        }
    }
    (h.finish(), counts)
}

fn report_digest(report: &TopUpReport) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(report.patterns.len());
    for p in &report.patterns {
        for &b in p.pi_values.iter().chain(&p.ff_values) {
            h.write(&[b as u8]);
        }
    }
    h.write_usize(report.cubes.len());
    for cube in &report.cubes {
        write_cube(&mut h, cube);
    }
    h.write_usize(report.faults_detected);
    h.write_usize(report.untestable);
    h.write_usize(report.aborted);
    h.finish()
}

#[test]
fn podem_outcomes_and_top_up_report_are_pinned() {
    let (core, cc, survivors) = core_and_survivors();
    assert_eq!(survivors.len(), 240);
    let (digest, counts) = outcome_digest(&cc, &survivors);
    // Every outcome class is exercised: tests, proofs and aborts at 512.
    assert_eq!(counts, [11, 205, 24]);
    assert_eq!(digest, 0x3aac_598e_f329_81e8, "PODEM outcomes changed");

    for threads in [1, 2] {
        let mut atpg = TopUpAtpg::new(&cc, StuckAtSim::observe_all_captures(&cc));
        atpg.pin(core.test_mode(), true);
        atpg.set_threads(threads);
        let report = atpg.run(&survivors, 5);
        assert_eq!(
            (report.patterns.len(), report.faults_detected, report.untestable, report.aborted),
            (10, 7, 205, 24),
            "{threads}-thread report counts changed"
        );
        assert_eq!(
            report_digest(&report),
            0x35e7_1ae6_e176_ba58,
            "{threads}-thread TopUpReport changed"
        );
    }
}
