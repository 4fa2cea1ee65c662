//! Property test: killing a grading run at any batch boundary and
//! resuming from its checkpoint is bit-identical to never having been
//! killed — detected sets, coverage, and accumulated MISR signatures —
//! across randomly generated cores, chain counts, kill points, and both
//! fault models (the session runs them through one controlled loop).
//!
//! The deterministic kill point is the per-invocation batch budget
//! ([`RunControl::with_budget`]); the core crate's unit tests cover
//! every kill point on one fixed core, this property test covers random
//! cores.

use lbist_core::{CheckpointSpec, RunControl, RunStatus, StumpsConfig, WideGradingSession};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{prepare_core, PrepConfig, TpiMethod};
use lbist_fault::{CaptureWindow, Fault, FaultUniverse};
use lbist_sim::CompiledCircuit;
use proptest::prelude::*;
use std::path::PathBuf;

fn scratch_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lbist-bench-killresume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.ckpt"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn kill_at_any_batch_then_resume_matches_uninterrupted(
        gen_seed in 0u64..512,
        chains in 3usize..7,
        kill_after in 0u64..4,
        transition in any::<bool>(),
    ) {
        let netlist =
            CpuCoreGenerator::new(CoreProfile::core_x().scaled(800), gen_seed).generate();
        let core = prepare_core(
            &netlist,
            &PrepConfig {
                total_chains: chains,
                obs_budget: 0,
                tpi: TpiMethod::None,
                ..PrepConfig::default()
            },
        );
        let cc = CompiledCircuit::compile(&core.netlist).unwrap();
        let faults: Vec<Fault> = if transition {
            FaultUniverse::transition(&core.netlist)
                .representatives()
                .into_iter()
                .filter(|f| f.is_stem())
                .collect()
        } else {
            FaultUniverse::stuck_at(&core.netlist).representatives()
        };
        let window = CaptureWindow::all_domains(core.netlist.num_domains().max(1));
        let batches = 4usize;
        let run = |session: &mut WideGradingSession<'_, u64>, control: &RunControl| {
            if transition {
                session.run_transition_controlled(faults.clone(), window.clone(), batches, control)
            } else {
                session.run_stuck_at_controlled(faults.clone(), batches, control)
            }
            .unwrap()
        };

        // Uninterrupted reference, parallel.
        let mut reference: WideGradingSession<'_, u64> =
            WideGradingSession::new(&core, &cc, &StumpsConfig::default());
        reference.set_threads(2);
        let want = run(&mut reference, &RunControl::new()).outcome;

        // Killed run: budget = kill point, checkpointing every batch.
        let path = scratch_path(&format!("s{gen_seed}-c{chains}-k{kill_after}-t{transition}"));
        let mut kill = RunControl::with_budget(kill_after);
        kill.checkpoint = Some(CheckpointSpec::new(path.clone(), 1));
        let mut killed: WideGradingSession<'_, u64> =
            WideGradingSession::new(&core, &cc, &StumpsConfig::default());
        killed.set_threads(2);
        let partial = run(&mut killed, &kill);
        prop_assert_eq!(partial.status, RunStatus::BudgetExhausted);
        prop_assert_eq!(partial.batches_done, kill_after);

        // Resume to completion.
        let mut resume = RunControl::new();
        resume.checkpoint = Some(CheckpointSpec::new(path.clone(), 0));
        resume.resume = true;
        let mut resumed_session: WideGradingSession<'_, u64> =
            WideGradingSession::new(&core, &cc, &StumpsConfig::default());
        resumed_session.set_threads(2);
        let resumed = run(&mut resumed_session, &resume);
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(resumed.status, RunStatus::Completed);
        prop_assert_eq!(resumed.resumed_from, Some(kill_after));
        prop_assert_eq!(resumed.batches_done, batches as u64);
        prop_assert_eq!(&resumed.outcome.detections, &want.detections);
        prop_assert_eq!(&resumed.outcome.signatures, &want.signatures);
        prop_assert_eq!(resumed.outcome.coverage, want.coverage);
        prop_assert_eq!(resumed.outcome.patterns, want.patterns);
    }
}
