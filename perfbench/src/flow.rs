//! `flow_y` and `front_x`: the paper's Table 1 flow, called layer by
//! layer in the order `lbist_bench::run_table1_flow` calls them, with
//! each call timed from outside.

use crate::harness::{
    median, min_passes, record_peak_rss, time_setup, timed, Args, ExecCounters, Ledger, Phases,
};
use lbist_atpg::{AtpgOutcome, Podem, TopUpAtpg, TopUpReport};
use lbist_core::{fill_frame_from_prpg, StumpsArchitecture, StumpsConfig};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{prepare_core, BistReadyCore, PrepConfig, ScanChains, TpiMethod};
use lbist_fault::{CoverageReport, Fault, FaultUniverse, SimPhaseMetrics, StuckAtSim};
use lbist_netlist::Netlist;
use lbist_reseed::{DomainChannel, ReseedPlan, ReseedPlanner, ScanLinearMap};
use lbist_sim::{CompiledCircuit, KernelProgram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One flow workload's fixed parameters.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// The unscaled paper core.
    pub base: CoreProfile,
    /// Scale divisor of the timed flow.
    pub scale: usize,
    /// Generator seed of the timed core (the `table1` binary's seed).
    pub core_seed: u64,
    /// Scale divisor of the `run_table1_flow` agreement check.
    pub check_scale: usize,
    /// PRPG patterns of the random phase.
    pub random_patterns: usize,
    /// Observation-point budget of fault-sim-guided TPI.
    pub obs_budget: usize,
    /// Chain count restitched after preparation (the paper's count).
    pub target_chains: usize,
    /// Run top-up ATPG and reseed planning after FC1.
    pub full: bool,
}

impl FlowSpec {
    /// `flow_y`: the whole flow on Core Y at 1/576 (8 clock domains).
    pub fn flow_y() -> Self {
        FlowSpec {
            base: CoreProfile::core_y(),
            scale: 576,
            core_seed: 43,
            check_scale: 768,
            random_patterns: 2048,
            obs_budget: 1000 / 576,
            target_chains: 106,
            full: true,
        }
    }

    /// `front_x`: prep + TPI and the random phase on Core X at 1/64.
    pub fn front_x() -> Self {
        FlowSpec {
            base: CoreProfile::core_x(),
            scale: 64,
            core_seed: 42,
            check_scale: 400,
            random_patterns: 2048,
            obs_budget: 1000 / 64,
            target_chains: 100,
            full: false,
        }
    }

    /// PRPG patterns fault-sim-guided TPI grades (as `run_table1_flow`).
    fn tpi_patterns(&self) -> usize {
        (self.random_patterns / 4).max(256)
    }
}

/// The seeds one flow pass uses.
#[derive(Clone, Copy, Debug)]
pub struct FlowSeeds {
    /// Core generator seed.
    pub core: u64,
    /// Seed of the fault-sim-guided TPI grading patterns.
    pub tpi: u64,
    /// PRPG seed material of the STUMPS architecture.
    pub prpg: u64,
    /// Random-fill seed of the top-up patterns.
    pub atpg: u64,
    /// Entropy of the reseed planner's fills.
    pub reseed: u64,
}

impl FlowSeeds {
    /// The seeds `run_table1_flow(.., seed, ..)` uses.
    pub fn table1(seed: u64) -> Self {
        FlowSeeds {
            core: seed,
            tpi: seed,
            prpg: StumpsConfig::default().seed,
            atpg: seed ^ 0xA7B6,
            reseed: seed ^ 0xC0DE,
        }
    }

    /// A workload run's seeds: the core is the workload's fixed design
    /// (`core_seed`); TPI, PRPG, top-up fill and reseed entropy derive
    /// from the run's `--seed`.
    pub fn workload(core_seed: u64, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        FlowSeeds {
            core: core_seed,
            tpi: rng.gen(),
            prpg: rng.gen(),
            atpg: rng.gen(),
            reseed: rng.gen(),
        }
    }

    fn stumps(&self) -> StumpsConfig {
        StumpsConfig { seed: self.prpg, ..StumpsConfig::default() }
    }
}

/// Everything one pass of the flow produced.
pub struct FlowRun {
    core: BistReadyCore,
    cc: CompiledCircuit,
    stumps: StumpsConfig,
    faults: Vec<Fault>,
    fc1: CoverageReport,
    survivors: Vec<Fault>,
    report: Option<TopUpReport>,
    plan: Option<ReseedPlan>,
    phases: Phases,
    /// Wall time of the whole pass (the paper's "CPU Time" row).
    wall: f64,
}

impl FlowRun {
    /// FC2 as `run_table1_flow` computes it (percent of testable faults).
    fn fc2(&self) -> Option<f64> {
        let r = self.report.as_ref()?;
        let testable = self.fc1.total - r.untestable;
        Some((self.fc1.detected + r.faults_detected) as f64 / testable.max(1) as f64 * 100.0)
    }
}

/// The flow body, one layer call at a time: prepare (X-bounding, IO
/// wrapping, TPI, stitching) → compile → random phase (PRPG fill +
/// interpreter `StuckAtSim`) → top-up ATPG → reseed planning.
pub fn run_flow(
    netlist: &Netlist,
    spec: &FlowSpec,
    profile: &CoreProfile,
    seeds: FlowSeeds,
    threads: usize,
    sim_phases: Option<SimPhaseMetrics>,
) -> FlowRun {
    let stumps = seeds.stumps();
    let mut ph = Phases::default();
    let (mut run, wall) = timed(|| {
        let core = ph.time("dft.prepare_s", || {
            let mut core = prepare_core(
                netlist,
                &PrepConfig {
                    total_chains: profile.num_chains,
                    wrap_ios: true,
                    obs_budget: spec.obs_budget,
                    tpi: TpiMethod::FaultSimGuided { patterns: spec.tpi_patterns() },
                    seed: seeds.tpi,
                },
            );
            let chains = spec.target_chains.max(core.netlist.num_domains());
            core.chains = ScanChains::stitch(&core.netlist, chains);
            core
        });
        let cc = ph.time("sim.compile_s", || {
            CompiledCircuit::compile(&core.netlist).expect("prepared core compiles")
        });
        let faults = ph
            .time("fault.universe_s", || FaultUniverse::stuck_at(&core.netlist).representatives());

        let (fc1, survivors) = {
            let mut sim = ph.time("fault.universe_s", || {
                let mut sim =
                    StuckAtSim::new(&cc, faults.clone(), StuckAtSim::observe_all_captures(&cc));
                sim.set_threads(threads);
                if let Some(m) = sim_phases {
                    sim.set_phase_metrics(m);
                }
                sim
            });
            let mut arch = ph.time("core.fill_s", || StumpsArchitecture::build(&core, &stumps));
            let mut frame = cc.new_frame();
            for _ in 0..spec.random_patterns.div_ceil(64) {
                ph.time("core.fill_s", || fill_frame_from_prpg(&mut arch, &core, &mut frame));
                ph.time("fault.run_batch_s", || sim.run_batch(&mut frame, 64));
            }
            (sim.coverage(), sim.undetected())
        };

        let mut report = None;
        let mut plan = None;
        if spec.full {
            let r = ph.time("atpg.topup_s", || {
                let mut atpg = TopUpAtpg::new(&cc, StuckAtSim::observe_all_captures(&cc));
                atpg.pin(core.test_mode(), true);
                atpg.set_threads(threads);
                atpg.run(&survivors, seeds.atpg)
            });
            let arch = ph.time("reseed.map_s", || StumpsArchitecture::build(&core, &stumps));
            let map = ph.time("reseed.map_s", || {
                let channels: Vec<DomainChannel<'_>> = arch
                    .domains()
                    .iter()
                    .map(|db| DomainChannel {
                        lfsr: db.prpg.lfsr(),
                        shifter: db.prpg.shifter(),
                        expander: db.prpg.expander(),
                        chains: &db.chains,
                    })
                    .collect();
                ScanLinearMap::build(&channels, arch.max_chain_length().max(1))
            });
            plan = Some(ph.time("reseed.plan_s", || {
                let mut planner = ReseedPlanner::new(&map);
                for &pi in cc.inputs() {
                    planner.hold(pi, pi == core.test_mode());
                }
                planner.use_fallback_patterns(&r.patterns);
                planner.plan(&r.cubes, &cc, seeds.reseed)
            }));
            report = Some(r);
        }
        FlowRun {
            core,
            cc,
            stumps: stumps.clone(),
            faults,
            fc1,
            survivors,
            report,
            plan,
            phases: Phases::default(),
            wall: 0.0,
        }
    });
    run.phases = ph;
    run.wall = wall;
    run
}

/// Grades the flow's random patterns, then its top-up patterns, with a
/// fresh simulator on the compiled-kernel path (an engine independent of
/// the interpreter the flow used), and returns the coverage after each.
fn regrade(run: &FlowRun, spec: &FlowSpec, threads: usize) -> (CoverageReport, CoverageReport) {
    let cc = &run.cc;
    let observed = StuckAtSim::observe_all_captures(cc);
    let keep = lbist_fault::grading_keep_set(cc, &[run.faults.as_slice()], &observed);
    let mut sim = StuckAtSim::new(cc, run.faults.clone(), observed);
    sim.set_kernel(Some(Arc::new(KernelProgram::lower(cc, &keep))));
    sim.set_threads(threads);
    let mut arch = StumpsArchitecture::build(&run.core, &run.stumps);
    let mut frame = cc.new_frame();
    for _ in 0..spec.random_patterns.div_ceil(64) {
        fill_frame_from_prpg(&mut arch, &run.core, &mut frame);
        sim.run_batch(&mut frame, 64);
    }
    let random = sim.coverage();
    if let Some(report) = &run.report {
        for chunk in report.patterns.chunks(64) {
            let mut frame = cc.new_frame();
            for (lane, p) in chunk.iter().enumerate() {
                p.load_into_lane(cc, &mut frame, lane);
            }
            sim.run_batch(&mut frame, chunk.len());
        }
    }
    (random, sim.coverage())
}

/// Output checks on one flow pass: an independent regrade confirms FC1
/// and every detection the top-up claims, and FC2 ≥ FC1. None pins a
/// coverage or pattern count, so a better TPI or ATPG still passes.
fn check_run(run: &FlowRun, spec: &FlowSpec, threads: usize, ledger: &mut Ledger) {
    let Some((random, all)) = ledger.guarded("independent regrade", || regrade(run, spec, threads))
    else {
        return;
    };
    ledger.op(
        "kernel regrade reproduces the random phase's FC1",
        random.detected == run.fc1.detected && random.total == run.fc1.total,
    );
    if let Some(r) = &run.report {
        ledger.op(
            "regrade confirms every top-up detection",
            all.detected >= run.fc1.detected + r.faults_detected,
        );
        ledger.op("FC2 >= FC1", run.fc2().is_some_and(|fc2| fc2 >= run.fc1.percent()));
    }
}

/// The phase-by-phase flow must agree with `run_table1_flow` on FC1,
/// FC2 and the top-up count for the same profile and seed (at the
/// check scale, so the reference stays cheap).
fn check_against_table1(spec: &FlowSpec, seed: u64, threads: usize, ledger: &mut Ledger) {
    let small = spec.base.scaled(spec.check_scale);
    let full = FlowSpec { full: true, ..spec.clone() };
    let agree = ledger.guarded("run_table1_flow agreement", || {
        let netlist = CpuCoreGenerator::new(small.clone(), seed).generate();
        let ours = run_flow(&netlist, &full, &small, FlowSeeds::table1(seed), threads, None);
        let col = lbist_bench::run_table1_flow(
            &small,
            seed,
            spec.random_patterns,
            spec.obs_budget,
            spec.target_chains,
        );
        let topup = ours.report.as_ref().map_or(0, |r| r.patterns.len());
        ours.fc1.percent() == col.fc1 && ours.fc2() == Some(col.fc2) && topup == col.top_up_patterns
    });
    if let Some(ok) = agree {
        ledger.op("phase-by-phase flow equals run_table1_flow (FC1, FC2, top-up count)", ok);
    }
}

/// Replays every survivor through `Podem::generate` serially with the
/// top-up's abort-limited schedule (24 backtracks, then 512 for the
/// aborts) and splits PODEM time by final outcome.
fn podem_split(run: &FlowRun, ledger: &mut Ledger) {
    let mut podem = Podem::new(&run.cc, StuckAtSim::observe_all_captures(&run.cc));
    let (mut secs, mut counts) = ([0.0f64; 3], [0u64; 3]);
    for fault in &run.survivors {
        let (outcome, s) = timed(|| {
            podem.set_backtrack_limit(24);
            match podem.generate(fault) {
                AtpgOutcome::Aborted => {
                    podem.set_backtrack_limit(512);
                    podem.generate(fault)
                }
                done => done,
            }
        });
        let class = match outcome {
            AtpgOutcome::Test(_) => 0,
            AtpgOutcome::Untestable => 1,
            AtpgOutcome::Aborted => 2,
        };
        secs[class] += s;
        counts[class] += 1;
    }
    ledger.set("atpg.podem_cpu_s.detected", secs[0]);
    ledger.set("atpg.podem_cpu_s.untestable", secs[1]);
    ledger.set("atpg.podem_cpu_s.aborted", secs[2]);
    ledger.set("atpg.podem_calls.detected", counts[0] as f64);
    ledger.set("atpg.podem_calls.untestable", counts[1] as f64);
    ledger.set("atpg.podem_calls.aborted", counts[2] as f64);
}

/// Records one pass's headline values (the paper's Table 1 rows).
fn record_headline(run: &FlowRun, walls: &[f64], ledger: &mut Ledger) {
    let flow_s = median(walls);
    ledger.set("flow_s", flow_s);
    ledger.set("wall_s", flow_s);
    ledger.set("fc1_pct", run.fc1.percent());
    if let Some(r) = &run.report {
        ledger.set("fc2_pct", run.fc2().expect("full flow has FC2"));
        ledger.set("coverage_pct", run.fc2().expect("full flow has FC2"));
        ledger.set("topup_patterns", r.patterns.len() as f64);
        ledger.set("aborted_faults", r.aborted as f64);
    } else {
        ledger.set("coverage_pct", run.fc1.percent());
    }
    if let Some(plan) = &run.plan {
        ledger.set("tail_bits", plan.storage.total_bits() as f64);
    }
}

/// Records one traced pass's layer split.
fn record_layers(run: &FlowRun, ledger: &mut Ledger) {
    for (name, secs) in run.phases.iter() {
        ledger.set(name, secs);
    }
    ledger.set("dft.obs_points", run.core.observation_cells.len() as f64);
    ledger.set("fault.faults_graded", run.faults.len() as f64);
    ledger.set("atpg.survivors", run.survivors.len() as f64);
    if let Some(r) = &run.report {
        ledger.set("atpg.detected", r.faults_detected as f64);
        ledger.set("atpg.untestable", r.untestable as f64);
        ledger.set("atpg.aborted", r.aborted as f64);
        ledger.set("atpg.care_bits", r.cubes.iter().map(|c| c.specified()).sum::<usize>() as f64);
    }
    if let Some(plan) = &run.plan {
        ledger.set("reseed.seeds", plan.storage.seeds as f64);
        ledger.set("reseed.seeded_cubes", plan.storage.seeded_cubes as f64);
    }
    let covered = run.phases.total();
    ledger.set("obs.phase_coverage_pct", covered / run.wall * 100.0);
    ledger.set("obs.uncovered_s", (run.wall - covered).max(0.0));
}

/// Runs a flow workload: set-up, timed passes for `--seconds`, checks.
pub fn run(spec: &FlowSpec, args: &Args, threads: usize, ledger: &mut Ledger) {
    let profile = spec.base.scaled(spec.scale);
    let seeds = FlowSeeds::workload(spec.core_seed, args.seed);
    let (netlist, setup_s) =
        time_setup(|| CpuCoreGenerator::new(profile.clone(), seeds.core).generate());

    let deadline = std::time::Duration::from_secs(args.seconds);
    let start = std::time::Instant::now();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut last: Option<FlowRun> = None;
    let mut traced: Option<FlowRun>;
    let mut prev = None;
    loop {
        // Free the previous passes first, so the peak RSS is one pass's.
        traced = None;
        if let Some(p) = last.take() {
            prev = Some((p.fc1.clone(), p.fc2()));
        }
        let Some(r) = ledger
            .guarded("flow pass", || run_flow(&netlist, spec, &profile, seeds, threads, None))
        else {
            break;
        };
        ledger.op("flow pass", true);
        walls.push(r.wall);
        eprintln!("perfbench: pass {} took {:.3} s", walls.len(), r.wall);
        if let Some((fc1, fc2)) = &prev {
            ledger.op("repeated pass reproduces FC1 and FC2", *fc1 == r.fc1 && *fc2 == r.fc2());
        }
        last = Some(r);
        if args.trace {
            // The traced pass: the fault simulator's phase timers on,
            // exec counters read around it.
            let registry = lbist_obs::Registry::new();
            let phases = SimPhaseMetrics {
                sim_ns: registry.histogram("fault.sim_ns"),
                detect_ns: registry.histogram("fault.detect_ns"),
            };
            let before = ExecCounters::now();
            let Some(t) = ledger.guarded("traced flow pass", || {
                run_flow(&netlist, spec, &profile, seeds, threads, Some(phases))
            }) else {
                break;
            };
            ExecCounters::record_since(before, ledger);
            let snap = registry.snapshot();
            let ns = |n: &str| snap.histogram(n).map_or(0.0, |h| h.sum as f64 / 1e9);
            ledger.set("fault.sim_s", ns("fault.sim_ns"));
            ledger.set("fault.detect_s", ns("fault.detect_ns"));
            ledger.op(
                "traced pass reproduces the untraced result",
                last.as_ref().is_some_and(|u| u.fc1 == t.fc1 && u.fc2() == t.fc2()),
            );
            traced_walls.push(t.wall);
            traced = Some(t);
        }
        if start.elapsed() >= deadline && walls.len() >= min_passes(args) {
            break;
        }
    }
    record_peak_rss(ledger);
    ledger.set("setup_s", setup_s);
    ledger.set("cores.generate_s", setup_s);
    let Some(last) = last else { return };
    record_headline(&last, &walls, ledger);
    check_run(&last, spec, threads, ledger);
    check_against_table1(spec, args.seed, threads, ledger);
    if let Some(t) = traced {
        record_layers(&t, ledger);
        ledger.set("obs.overhead_pct", (median(&traced_walls) / median(&walls) - 1.0) * 100.0);
        if spec.full {
            podem_split(&t, ledger);
        }
    }
}
