//! `grade_x`: a `WideGradingSession<u64>` on Core X at 1/64 on the
//! default compiled-kernel path — stuck-at over the collapsed universe,
//! then launch-on-capture transition over the stems.

use crate::harness::{
    median, min_passes, record_peak_rss, time_setup, timed, Args, ExecCounters, Ledger,
};
use lbist_core::{GradingMetrics, StumpsConfig, WideGradingOutcome, WideGradingSession};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{prepare_core, BistReadyCore, PrepConfig, TpiMethod};
use lbist_fault::{CaptureWindow, Fault, FaultUniverse};
use lbist_sim::CompiledCircuit;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Scale divisor of Core X.
pub const SCALE: usize = 64;
/// Generator seed of the graded core (the `table1` binary's Core X
/// seed); the run's `--seed` drives the PRPG seed.
pub const CORE_SEED: u64 = 42;
/// Scan chains (the paper's Core X count).
pub const CHAINS: usize = 100;
/// Stuck-at batches (64 patterns each) per pass.
pub const STUCK_BATCHES: usize = 256;
/// Transition batches (64 launch/capture pairs each) per pass.
pub const TRANSITION_BATCHES: usize = 64;

/// The prepared design and its fault lists.
struct Design {
    core: BistReadyCore,
    cc: CompiledCircuit,
    stuck: Vec<Fault>,
    transition: Vec<Fault>,
    stumps: StumpsConfig,
}

/// One grading pass's outcomes and timings.
struct Pass {
    stuck: WideGradingOutcome,
    transition: WideGradingOutcome,
    stuck_s: f64,
    transition_s: f64,
}

impl Pass {
    fn digests(&self) -> (u64, u64) {
        (self.stuck.digest(), self.transition.digest())
    }
}

/// Generates, prepares and compiles the design, with the PRPG seeded
/// from the run's seed; returns it with the generate / prepare /
/// compile times.
fn set_up(seed: u64) -> (Design, [f64; 3]) {
    let profile = CoreProfile::core_x().scaled(SCALE);
    let (netlist, gen_s) = timed(|| CpuCoreGenerator::new(profile, CORE_SEED).generate());
    let (core, prep_s) = timed(|| {
        prepare_core(
            &netlist,
            &PrepConfig {
                total_chains: CHAINS,
                wrap_ios: true,
                obs_budget: 0,
                tpi: TpiMethod::None,
                ..PrepConfig::default()
            },
        )
    });
    let (cc, compile_s) =
        timed(|| CompiledCircuit::compile(&core.netlist).expect("prepared core compiles"));
    let stuck = FaultUniverse::stuck_at(&core.netlist).representatives();
    // Transition grading is stem-based.
    let transition: Vec<Fault> = FaultUniverse::transition(&core.netlist)
        .representatives()
        .into_iter()
        .filter(|f| f.is_stem())
        .collect();
    let stumps =
        StumpsConfig { seed: SmallRng::seed_from_u64(seed).gen(), ..StumpsConfig::default() };
    (Design { core, cc, stuck, transition, stumps }, [gen_s, prep_s, compile_s])
}

/// One pass: stuck-at then transition on a fresh session.
fn grade(d: &Design, threads: usize, interpreter: bool, metrics: Option<GradingMetrics>) -> Pass {
    let mut session: WideGradingSession<'_, u64> =
        WideGradingSession::new(&d.core, &d.cc, &d.stumps);
    session.set_threads(threads);
    if interpreter {
        session.use_interpreter();
    }
    if let Some(m) = metrics {
        session.set_metrics(m);
    }
    let (stuck, stuck_s) = timed(|| session.run_stuck_at(d.stuck.clone(), STUCK_BATCHES));
    let window = CaptureWindow::all_domains(d.core.netlist.num_domains().max(1));
    let (transition, transition_s) =
        timed(|| session.run_transition(d.transition.clone(), window, TRANSITION_BATCHES));
    Pass { stuck, transition, stuck_s, transition_s }
}

/// Records the grading layer's counts from one pass.
fn record_counts(p: &Pass, ledger: &mut Ledger) {
    ledger.set("fault.faults_graded.stuck", p.stuck.faults_graded as f64);
    ledger.set("fault.faults_graded.transition", p.transition.faults_graded as f64);
    ledger.set("fault.faults_graded", (p.stuck.faults_graded + p.transition.faults_graded) as f64);
    let yield_of =
        |o: &WideGradingOutcome| o.coverage.detected as f64 / o.faults_graded.max(1) as f64;
    ledger.set("fault.detect_yield.stuck", yield_of(&p.stuck));
    ledger.set("fault.detect_yield.transition", yield_of(&p.transition));
}

/// Runs `grade_x`: set-up, timed passes for `--seconds`, checks.
pub fn run(args: &Args, threads: usize, ledger: &mut Ledger) {
    let mut parts = [Vec::new(), Vec::new(), Vec::new()];
    let (d, setup_s) = time_setup(|| {
        let (d, split) = set_up(args.seed);
        for (acc, v) in parts.iter_mut().zip(split) {
            acc.push(v);
        }
        d
    });

    let deadline = std::time::Duration::from_secs(args.seconds);
    let start = std::time::Instant::now();
    let (mut walls, mut stuck_s, mut trans_s, mut traced_walls) = (vec![], vec![], vec![], vec![]);
    let (mut digests, mut coverage) = (None, 0.0);
    // Each pass is dropped before the next starts, so the peak RSS is one
    // pass's whatever the pass count.
    while let Some(p) = ledger.guarded("grading pass", || grade(&d, threads, false, None)) {
        ledger.op("grading pass", true);
        walls.push(p.stuck_s + p.transition_s);
        eprintln!("perfbench: pass {} took {:.3} s", walls.len(), p.stuck_s + p.transition_s);
        stuck_s.push(p.stuck_s);
        trans_s.push(p.transition_s);
        match digests {
            None => {
                digests = Some(p.digests());
                coverage = p.stuck.coverage.percent();
            }
            Some(want) => ledger.op("repeated pass reproduces both digests", p.digests() == want),
        }
        if args.trace {
            let registry = lbist_obs::Registry::new();
            let before = ExecCounters::now();
            let metrics = GradingMetrics::from_registry(&registry);
            let Some(t) =
                ledger.guarded("traced grading pass", || grade(&d, threads, false, Some(metrics)))
            else {
                break;
            };
            ExecCounters::record_since(before, ledger);
            ledger.op("traced pass reproduces the untraced digests", Some(t.digests()) == digests);
            let wall = t.stuck_s + t.transition_s;
            traced_walls.push(wall);
            let snap = registry.snapshot();
            let secs = |n: &str| snap.histogram(n).map_or(0.0, |h| h.sum as f64 / 1e9);
            ledger.set("core.session_stuck_s", t.stuck_s);
            ledger.set("core.session_transition_s", t.transition_s);
            ledger.set("core.fill_s", secs("grading.fill_ns"));
            ledger.set("fault.sim_s", secs("grading.sim_ns"));
            ledger.set("fault.detect_s", secs("grading.detect_ns"));
            ledger.set("tpg.absorb_s", secs("grading.absorb_ns"));
            ledger.set("sim.kernel_compile_s", secs("sim.kernel.compile_ns"));
            ledger.set("sim.kernel_instrs", snap.counter("sim.kernel.instrs").unwrap_or(0) as f64);
            // The two session calls are the whole timed body; the batch
            // spans inside them show how much of it the phases explain.
            let batch = secs("grading.batch_ns");
            ledger.set("obs.phase_coverage_pct", batch / wall * 100.0);
            ledger.set("obs.uncovered_s", (wall - batch).max(0.0));
            record_counts(&t, ledger);
        }
        if start.elapsed() >= deadline && walls.len() >= min_passes(args) {
            break;
        }
    }
    record_peak_rss(ledger);
    ledger.set("setup_s", setup_s);
    ledger.set("cores.generate_s", median(&parts[0]));
    ledger.set("dft.prepare_s", median(&parts[1]));
    ledger.set("sim.compile_s", median(&parts[2]));
    let Some(want) = digests else { return };
    let wall = median(&walls);
    ledger.set("wall_s", wall);
    ledger.set("stuck_patterns_per_s", (STUCK_BATCHES * 64) as f64 / median(&stuck_s));
    ledger.set("transition_patterns_per_s", (TRANSITION_BATCHES * 64) as f64 / median(&trans_s));
    ledger.set("coverage_pct", coverage);
    if !traced_walls.is_empty() {
        ledger.set("obs.overhead_pct", (median(&traced_walls) / wall - 1.0) * 100.0);
    }

    // The gate-interpreter reference must grade bit-identically.
    if let Some(reference) =
        ledger.guarded("interpreter reference", || grade(&d, threads, true, None))
    {
        ledger
            .op("kernel digests equal the gate-interpreter reference", reference.digests() == want);
    }
}
