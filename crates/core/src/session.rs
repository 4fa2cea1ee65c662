//! Cycle-faithful self-test sessions: the whole Fig. 1 datapath in motion.

use crate::architecture::{StumpsArchitecture, StumpsConfig};
use crate::checkpoint::{expect_field, RunControl, RunStatus, SessionCheckpoint};
use crate::controller::{BistController, ControllerConfig};
use crate::selector::{InputSelector, PatternSource};
use lbist_atpg::Pattern;
use lbist_ckpt::{CkptError, Fnv64};
use lbist_dft::BistReadyCore;
use lbist_fault::Fault;
use lbist_netlist::{DomainId, NodeId};
use lbist_reseed::{SeedSchedule, SeedWindow};
use lbist_sim::CompiledCircuit;
use lbist_tpg::Gf2Vec;

/// Session parameters.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Random patterns to apply.
    pub num_patterns: usize,
    /// Capture order of the domains (defaults to index order — the `d3`
    /// stagger of Fig. 2).
    pub capture_order: Option<Vec<DomainId>>,
    /// A stem stuck-at fault to inject into the core (defect emulation).
    pub injected_fault: Option<Fault>,
    /// Record MISR snapshots every `n` patterns (fault-diagnosis support;
    /// `0` disables).
    pub snapshot_every: usize,
    /// Deterministic top-up patterns appended after the random phase.
    pub top_up: Vec<Pattern>,
    /// Hybrid-BIST seed schedule. When set, it replaces the plain random
    /// phase (`num_patterns` is ignored): pseudorandom windows run the
    /// free-running PRPGs, and each reseed window loads the given
    /// per-domain LFSR seeds (the paper's Boundary-Scan `LBIST_SEED`
    /// path) before applying one deterministic load through the normal
    /// shift plumbing. `top_up` patterns still follow the schedule.
    pub reseed: Option<SeedSchedule>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            num_patterns: 64,
            capture_order: None,
            injected_fault: None,
            snapshot_every: 0,
            top_up: Vec::new(),
            reseed: None,
        }
    }
}

/// What a self-test run produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionResult {
    /// Final signature of each domain's MISR, in domain order.
    pub signatures: Vec<Gf2Vec>,
    /// Patterns applied (random + top-up).
    pub patterns_applied: usize,
    /// Total shift cycles spent.
    pub shift_cycles: u64,
    /// MISR snapshots (one vector of per-domain signatures per snapshot
    /// point), empty unless requested.
    pub snapshots: Vec<Vec<Gf2Vec>>,
}

impl SessionResult {
    /// `true` when the signatures equal the golden reference — the
    /// `Result` pin of Fig. 1.
    pub fn matches(&self, golden: &SessionResult) -> bool {
        self.signatures == golden.signatures
    }
}

/// What a controlled (cancellable / budgeted / checkpointed) self-test
/// run produced: the (possibly partial) signatures plus how the run
/// ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ControlledSessionOutcome {
    /// The session result so far. The signatures are a partial verdict
    /// unless `status.is_complete()` (the final flush load only runs on
    /// completion).
    pub result: SessionResult,
    /// How the run ended.
    pub status: RunStatus,
    /// Load steps fully applied (across resume boundaries).
    pub steps_done: u64,
    /// `Some(steps)` when the run resumed a checkpoint taken at that
    /// step count.
    pub resumed_from: Option<u64>,
}

/// One entry of a session's load plan.
#[derive(Clone, Copy)]
enum LoadStep<'s> {
    Random,
    Reseed(&'s [Option<Gf2Vec>]),
    TopUp,
}

/// Expands a config into its load-step sequence: the seed schedule when
/// one is set, otherwise the plain random phase; top-up patterns follow
/// either way.
fn build_steps(cfg: &SessionConfig) -> Vec<LoadStep<'_>> {
    let mut steps: Vec<LoadStep<'_>> = Vec::new();
    match &cfg.reseed {
        Some(schedule) => {
            for window in schedule.windows() {
                match window {
                    SeedWindow::Random { patterns } => {
                        steps.extend((0..*patterns).map(|_| LoadStep::Random));
                    }
                    SeedWindow::Reseed { seeds } => steps.push(LoadStep::Reseed(seeds)),
                }
            }
        }
        None => steps.extend((0..cfg.num_patterns).map(|_| LoadStep::Random)),
    }
    steps.extend(cfg.top_up.iter().map(|_| LoadStep::TopUp));
    steps
}

/// Fingerprint of everything that steers a session's pattern stream:
/// the load plan (step kinds, reseed seed bits, top-up bits), capture
/// order, shift depth and snapshot cadence. A checkpoint resumed under
/// a different plan would silently diverge, so resume validates this.
fn plan_hash(cfg: &SessionConfig, order: &[DomainId], shift_cycles: usize) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(shift_cycles);
    h.write_usize(order.len());
    for d in order {
        h.write_u64(d.index() as u64);
    }
    h.write_usize(cfg.snapshot_every);
    match &cfg.injected_fault {
        None => h.write_u64(0),
        Some(f) => {
            h.write_u64(1);
            h.write_u64(f.node.index() as u64);
            h.write_u64(f.kind as u64);
            h.write_u64(f.pin.map_or(u64::MAX, u64::from));
        }
    }
    match &cfg.reseed {
        None => {
            h.write_u64(0);
            h.write_usize(cfg.num_patterns);
        }
        Some(schedule) => {
            h.write_u64(1);
            h.write_usize(schedule.windows().len());
            for window in schedule.windows() {
                match window {
                    SeedWindow::Random { patterns } => {
                        h.write_u64(2);
                        h.write_usize(*patterns);
                    }
                    SeedWindow::Reseed { seeds } => {
                        h.write_u64(3);
                        h.write_usize(seeds.len());
                        for seed in seeds {
                            match seed {
                                None => h.write_u64(0),
                                Some(g) => {
                                    h.write_u64(1);
                                    hash_bools(&mut h, &g.to_bools());
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    h.write_usize(cfg.top_up.len());
    for p in &cfg.top_up {
        hash_bools(&mut h, &p.pi_values);
        hash_bools(&mut h, &p.ff_values);
    }
    h.finish()
}

fn hash_bools(h: &mut Fnv64, bits: &[bool]) {
    h.write_usize(bits.len());
    let bytes: Vec<u8> = bits.iter().map(|&b| b as u8).collect();
    h.write(&bytes);
}

/// Assembles a [`SessionCheckpoint`] at a load-step boundary.
#[allow(clippy::too_many_arguments)]
fn session_snapshot(
    netlist_hash: u64,
    plan_hash: u64,
    steps_done: u64,
    total_shifts: u64,
    top_up_used: u64,
    chain_state: &[Vec<bool>],
    arch: &StumpsArchitecture,
    snapshots: &[Vec<Gf2Vec>],
) -> SessionCheckpoint {
    SessionCheckpoint {
        netlist_hash,
        plan_hash,
        steps_done,
        total_shifts,
        top_up_used,
        chain_state: chain_state.iter().map(|bits| Gf2Vec::from_bools(bits)).collect(),
        lfsr_states: arch.domains().iter().map(|d| d.prpg.lfsr().state().clone()).collect(),
        misr_signatures: arch.domains().iter().map(|d| d.misr.signature().clone()).collect(),
        snapshots: snapshots.to_vec(),
    }
}

/// A self-test session over a BIST-ready core.
///
/// The session is cycle-faithful at the architecture level: every shift
/// cycle moves one bit per chain (PRPG/phase-shifter/expander on the way
/// in, compactor/MISR on the way out, responses unloading while the next
/// pattern loads), and every capture window replays the paper's
/// double-capture sequence domain by domain.
///
/// # Example
///
/// ```no_run
/// use lbist_core::{SelfTestSession, SessionConfig, StumpsConfig};
/// use lbist_cores::{CoreProfile, CpuCoreGenerator};
/// use lbist_dft::{prepare_core, PrepConfig};
///
/// let nl = CpuCoreGenerator::new(CoreProfile::core_x().scaled(400), 1).generate();
/// let core = prepare_core(&nl, &PrepConfig::default());
/// let mut session = SelfTestSession::new(&core, &StumpsConfig::default());
/// let golden = session.run(&SessionConfig { num_patterns: 32, ..Default::default() });
/// let retest = session.run(&SessionConfig { num_patterns: 32, ..Default::default() });
/// assert!(retest.matches(&golden));
/// ```
#[derive(Debug)]
pub struct SelfTestSession<'a> {
    core: &'a BistReadyCore,
    cc: CompiledCircuit,
    arch: StumpsArchitecture,
    /// Kept so verdict runs can build an identical sibling session.
    stumps: StumpsConfig,
    /// Lazily-built identical session reused by every
    /// [`SelfTestSession::run_with_verdict`] call, so repeated verdicts
    /// (e.g. a per-fault coverage audit) compile the netlist once, not
    /// per call.
    sibling: Option<Box<SelfTestSession<'a>>>,
}

impl<'a> SelfTestSession<'a> {
    /// Compiles the core and builds the STUMPS hardware.
    ///
    /// # Panics
    ///
    /// Panics if the core's netlist fails to compile (combinational
    /// cycle).
    pub fn new(core: &'a BistReadyCore, config: &StumpsConfig) -> Self {
        let cc = CompiledCircuit::compile(&core.netlist).expect("BIST-ready core compiles");
        let arch = StumpsArchitecture::build(core, config);
        SelfTestSession { core, cc, arch, stumps: config.clone(), sibling: None }
    }

    /// The architecture in use.
    pub fn architecture(&self) -> &StumpsArchitecture {
        &self.arch
    }

    /// The compiled circuit (shared with fault-simulation flows).
    pub fn circuit(&self) -> &CompiledCircuit {
        &self.cc
    }

    /// Runs one complete self-test. Deterministic: rerunning with the same
    /// config reproduces the same signatures bit for bit.
    pub fn run(&mut self, cfg: &SessionConfig) -> SessionResult {
        self.run_controlled(cfg, &RunControl::new())
            .expect("uncontrolled runs perform no checkpoint IO")
            .result
    }

    /// The controlled form of [`SelfTestSession::run`]: observes
    /// `control`'s cancel token and load-step budget at load-step
    /// granularity, checkpoints at load-step boundaries, and resumes a
    /// prior checkpoint bit-identically — a killed-and-resumed session
    /// (including reseed-scheduled sessions) produces the same
    /// signatures, snapshots and counts as an uninterrupted run
    /// (enforced by test).
    pub fn run_controlled(
        &mut self,
        cfg: &SessionConfig,
        control: &RunControl,
    ) -> Result<ControlledSessionOutcome, CkptError> {
        self.arch.reset();
        let mut selector = InputSelector::new();
        selector.load_top_up(cfg.top_up.clone());

        let steps = build_steps(cfg);
        let shift_cycles = self.arch.max_chain_length().max(1);
        let order: Vec<DomainId> = cfg.capture_order.clone().unwrap_or_else(|| {
            (0..self.core.netlist.num_domains().max(1)).map(|d| DomainId::new(d as u16)).collect()
        });
        let netlist_hash = lbist_ckpt::netlist_fingerprint(&self.core.netlist);
        let plan = plan_hash(cfg, &order, shift_cycles);
        let mut controller = BistController::new(ControllerConfig {
            shift_cycles,
            num_patterns: steps.len(),
            num_domains: order.len(),
        });
        controller.start();

        // Chain state: bool per cell, aligned with arch chain order.
        let mut chain_state: Vec<Vec<bool>> = self
            .arch
            .domains()
            .iter()
            .flat_map(|d| d.chains.iter().map(|c| vec![false; c.cells.len()]))
            .collect();

        let mut frame = self.cc.new_frame();
        // Pads held low, test-mode high for the whole session.
        frame[self.core.test_mode().index()] = !0;

        let mut snapshots: Vec<Vec<Gf2Vec>> = Vec::new();
        let mut total_shifts = 0u64;
        let mut patterns_applied = 0usize;
        let mut top_up_used = 0u64;
        let total_patterns = steps.len();
        let mut start_step = 0u64;
        let mut resumed_from = None;

        if control.resume {
            let spec = control.checkpoint.as_ref().ok_or_else(|| {
                CkptError::Mismatch("resume requested without a checkpoint spec".into())
            })?;
            let ckpt = SessionCheckpoint::load(&spec.path)?;
            expect_field("netlist fingerprint", ckpt.netlist_hash, netlist_hash)?;
            expect_field("load-plan fingerprint", ckpt.plan_hash, plan)?;
            expect_field("chain count", ckpt.chain_state.len(), chain_state.len())?;
            for (saved, live) in ckpt.chain_state.iter().zip(&chain_state) {
                expect_field("chain length", saved.len(), live.len())?;
            }
            expect_field("domain count", ckpt.lfsr_states.len(), self.arch.domains().len())?;
            for (db, state) in self.arch.domains().iter().zip(&ckpt.lfsr_states) {
                expect_field("PRPG width", state.len(), db.prpg.lfsr().len())?;
            }
            expect_field("MISR count", ckpt.misr_signatures.len(), self.arch.domains().len())?;
            for (db, sig) in self.arch.domains().iter().zip(&ckpt.misr_signatures) {
                expect_field("MISR width", sig.len(), db.misr.width())?;
            }
            if ckpt.steps_done > total_patterns as u64 {
                return Err(CkptError::Mismatch(format!(
                    "checkpoint is {} steps in, but the plan has only {total_patterns}",
                    ckpt.steps_done
                )));
            }
            for (live, saved) in chain_state.iter_mut().zip(&ckpt.chain_state) {
                *live = saved.to_bools();
            }
            for (db, state) in self.arch.domains_mut().iter_mut().zip(&ckpt.lfsr_states) {
                db.prpg.lfsr_mut().set_state(state.clone());
            }
            for (db, sig) in self.arch.domains_mut().iter_mut().zip(&ckpt.misr_signatures) {
                db.misr.set_signature(sig.clone());
            }
            selector.skip_top_up(ckpt.top_up_used as usize);
            snapshots = ckpt.snapshots.clone();
            total_shifts = ckpt.total_shifts;
            patterns_applied = ckpt.steps_done as usize;
            top_up_used = ckpt.top_up_used;
            start_step = ckpt.steps_done;
            resumed_from = Some(ckpt.steps_done);
        }

        let budget_limit = control.budget.map(|b| start_step.saturating_add(b));
        let mut status = RunStatus::Completed;

        #[allow(clippy::needless_range_loop)] // `p` counts steps for the budget/checkpoint math
        for p in (start_step as usize)..total_patterns {
            if budget_limit.is_some_and(|limit| patterns_applied as u64 >= limit) {
                status = RunStatus::BudgetExhausted;
                break;
            }
            if let Some(cancelled) = control.cancelled_status() {
                status = cancelled;
                break;
            }
            // Pattern source per the plan (random, reseed-then-load, or
            // top-up).
            let load_bits: Vec<Vec<bool>> = match steps[p] {
                LoadStep::Random => {
                    selector.select(PatternSource::Random);
                    selector.next_load(&mut self.arch, shift_cycles).expect("random never exhausts")
                }
                LoadStep::Reseed(seeds) => {
                    // The Boundary-Scan seed load of the paper's TAP:
                    // overwrite each seeded domain's PRPG state, then
                    // generate the next load through the normal
                    // random-mode plumbing.
                    assert_eq!(
                        seeds.len(),
                        self.arch.domains().len(),
                        "a reseed window needs one seed slot per domain"
                    );
                    for (db, seed) in self.arch.domains_mut().iter_mut().zip(seeds) {
                        if let Some(s) = seed {
                            db.prpg.lfsr_mut().set_state(s.clone());
                        }
                    }
                    selector.select(PatternSource::Random);
                    selector.next_load(&mut self.arch, shift_cycles).expect("random never exhausts")
                }
                LoadStep::TopUp => {
                    selector.select(PatternSource::TopUp);
                    top_up_used += 1;
                    selector.next_load(&mut self.arch, shift_cycles).expect("top-up store sized")
                }
            };

            self.shift_window(&load_bits, &mut chain_state, &mut total_shifts, &mut controller);

            // ---- capture window: double capture per domain in order.
            self.write_state_to_frame(&chain_state, &mut frame);
            self.eval(&mut frame, cfg.injected_fault.as_ref());
            for &dom in &order {
                for _pulse in 0..2 {
                    self.capture_domain(dom, &mut frame);
                    self.eval(&mut frame, cfg.injected_fault.as_ref());
                    controller.step();
                }
            }
            self.read_state_from_frame(&frame, &mut chain_state);
            patterns_applied += 1;

            if cfg.snapshot_every > 0 && patterns_applied.is_multiple_of(cfg.snapshot_every) {
                snapshots
                    .push(self.arch.domains().iter().map(|d| d.misr.signature().clone()).collect());
            }
            if let Some(spec) = &control.checkpoint {
                if spec.every > 0
                    && (patterns_applied as u64 - start_step).is_multiple_of(spec.every)
                    && patterns_applied < total_patterns
                {
                    session_snapshot(
                        netlist_hash,
                        plan,
                        patterns_applied as u64,
                        total_shifts,
                        top_up_used,
                        &chain_state,
                        &self.arch,
                        &snapshots,
                    )
                    .save(&spec.path)?;
                }
            }
        }

        // A checkpoint can only reach `steps_done == total_patterns` on
        // the far side of the flush (the budget check sits before the
        // plan is exhausted), so resuming one must not flush again.
        let already_flushed = start_step == total_patterns as u64 && resumed_from.is_some();
        if status.is_complete() && !already_flushed {
            // One flush load of zeros pushes the last responses out,
            // then the compare tick.
            let flush: Vec<Vec<bool>> =
                chain_state.iter().map(|_| vec![false; shift_cycles]).collect();
            self.shift_window(&flush, &mut chain_state, &mut total_shifts, &mut controller);
            controller.step();
        }

        if let Some(spec) = &control.checkpoint {
            session_snapshot(
                netlist_hash,
                plan,
                patterns_applied as u64,
                total_shifts,
                top_up_used,
                &chain_state,
                &self.arch,
                &snapshots,
            )
            .save(&spec.path)?;
        }

        Ok(ControlledSessionOutcome {
            result: SessionResult {
                signatures: self
                    .arch
                    .domains()
                    .iter()
                    .map(|d| d.misr.signature().clone())
                    .collect(),
                patterns_applied,
                shift_cycles: total_shifts,
                snapshots,
            },
            status,
            steps_done: patterns_applied as u64,
            resumed_from,
        })
    }

    /// One shift window: loads a new pattern while unloading the
    /// previous response through compactors into the MISRs.
    fn shift_window(
        &mut self,
        load_bits: &[Vec<bool>],
        chain_state: &mut [Vec<bool>],
        total_shifts: &mut u64,
        controller: &mut BistController,
    ) {
        let shift_cycles = self.arch.max_chain_length().max(1);
        #[allow(clippy::needless_range_loop)] // `s` indexes a per-chain inner dimension
        for s in 0..shift_cycles {
            let mut chain_idx = 0;
            for db in self.arch.domains_mut() {
                let mut tails = Vec::with_capacity(db.chains.len());
                for c in 0..db.chains.len() {
                    let state = &mut chain_state[chain_idx + c];
                    let out = state.pop().unwrap_or(false);
                    state.insert(0, load_bits[chain_idx + c][s]);
                    tails.push(out);
                }
                let compacted = db.compactor.compact(&tails);
                db.misr.clock(&compacted);
                chain_idx += db.chains.len();
            }
            *total_shifts += 1;
            controller.step();
        }
    }

    /// Golden + test convenience: runs fault-free and with `fault`
    /// injected, and returns (golden, faulty, pass).
    ///
    /// The two runs are independent full sessions (each starts from
    /// [`StumpsArchitecture::reset`]), so they execute **in parallel**
    /// on the `lbist-exec` pool: the faulty run uses a cached sibling
    /// session (built once from the same core and STUMPS configuration,
    /// reused across verdict calls) while the golden run reuses this
    /// one. Results are bit-identical to running them back to back
    /// (enforced by test).
    pub fn run_with_verdict(
        &mut self,
        cfg: &SessionConfig,
        fault: Fault,
    ) -> (SessionResult, SessionResult, bool) {
        let mut faulty_cfg = cfg.clone();
        faulty_cfg.injected_fault = Some(fault);
        let mut sibling = self
            .sibling
            .take()
            .unwrap_or_else(|| Box::new(SelfTestSession::new(self.core, &self.stumps)));
        let sibling_ref = &mut *sibling;
        let (golden, faulty) =
            lbist_exec::join(|| self.run(cfg), move || sibling_ref.run(&faulty_cfg));
        self.sibling = Some(sibling);
        let pass = faulty.matches(&golden);
        (golden, faulty, pass)
    }

    fn write_state_to_frame(&self, chain_state: &[Vec<bool>], frame: &mut [u64]) {
        let mut chain_idx = 0;
        for db in self.arch.domains() {
            for chain in &db.chains {
                for (i, &cell) in chain.cells.iter().enumerate() {
                    frame[cell.index()] = if chain_state[chain_idx][i] { !0 } else { 0 };
                }
                chain_idx += 1;
            }
        }
    }

    fn read_state_from_frame(&self, frame: &[u64], chain_state: &mut [Vec<bool>]) {
        let mut chain_idx = 0;
        for db in self.arch.domains() {
            for chain in &db.chains {
                for (i, &cell) in chain.cells.iter().enumerate() {
                    chain_state[chain_idx][i] = frame[cell.index()] & 1 == 1;
                }
                chain_idx += 1;
            }
        }
    }

    fn capture_domain(&self, dom: DomainId, frame: &mut [u64]) {
        // Latch all D values first: edge-triggered capture is race-free.
        let mut next: Vec<(NodeId, u64)> = Vec::new();
        for (i, &ff) in self.cc.dffs().iter().enumerate() {
            if self.cc.dff_domain(i) == dom {
                let d = self.cc.fanins(ff)[0];
                next.push((ff, frame[d.index()]));
            }
        }
        for (ff, word) in next {
            frame[ff.index()] = word;
        }
    }

    fn eval(&self, frame: &mut [u64], fault: Option<&Fault>) {
        match fault {
            None => self.cc.eval2(frame),
            Some(f) => {
                assert!(
                    f.is_stem() && f.kind.is_stuck_at(),
                    "session injection supports stem stuck-at faults"
                );
                let forced = if f.kind.faulty_value() { !0u64 } else { 0 };
                self.cc.eval2_forced(frame, f.node, forced);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_cores::{CoreProfile, CpuCoreGenerator};
    use lbist_dft::{prepare_core, PrepConfig, TpiMethod};
    use lbist_fault::FaultKind;

    fn core() -> BistReadyCore {
        let nl = CpuCoreGenerator::new(CoreProfile::core_x().scaled(400), 17).generate();
        prepare_core(
            &nl,
            &PrepConfig {
                total_chains: 6,
                obs_budget: 4,
                tpi: TpiMethod::Cop,
                ..PrepConfig::default()
            },
        )
    }

    #[test]
    fn deterministic_signatures() {
        let c = core();
        let mut s = SelfTestSession::new(&c, &StumpsConfig::default());
        let cfg = SessionConfig { num_patterns: 16, ..Default::default() };
        let a = s.run(&cfg);
        let b = s.run(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.patterns_applied, 16);
        assert!(a.shift_cycles > 0);
    }

    #[test]
    fn different_pattern_counts_give_different_signatures() {
        let c = core();
        let mut s = SelfTestSession::new(&c, &StumpsConfig::default());
        let a = s.run(&SessionConfig { num_patterns: 8, ..Default::default() });
        let b = s.run(&SessionConfig { num_patterns: 16, ..Default::default() });
        assert!(!a.matches(&b));
    }

    #[test]
    fn injected_defect_flips_result() {
        let c = core();
        let mut s = SelfTestSession::new(&c, &StumpsConfig::default());
        // Pick an internal gate with decent connectivity as the defect
        // site: the D source of the first flip-flop.
        let ff = c.netlist.dffs()[0];
        let site = c.netlist.fanins(ff)[0];
        let cfg = SessionConfig { num_patterns: 24, ..Default::default() };
        let (_golden, _faulty, pass) =
            s.run_with_verdict(&cfg, Fault::stem(site, FaultKind::StuckAt0));
        // A stuck-at on a captured net must corrupt the signature (the
        // chance of aliasing through >=19-bit MISRs is ~2^-19).
        assert!(!pass, "defective core must fail signature comparison");
    }

    /// The parallel verdict is bit-identical to running golden and
    /// faulty sessions back to back on one session object.
    #[test]
    fn parallel_verdict_matches_sequential_runs() {
        let c = core();
        let cfg = SessionConfig { num_patterns: 10, ..Default::default() };
        let ff = c.netlist.dffs()[1];
        let site = c.netlist.fanins(ff)[0];
        let fault = Fault::stem(site, FaultKind::StuckAt1);

        let mut sequential = SelfTestSession::new(&c, &StumpsConfig::default());
        let seq_golden = sequential.run(&cfg);
        let mut faulty_cfg = cfg.clone();
        faulty_cfg.injected_fault = Some(fault);
        let seq_faulty = sequential.run(&faulty_cfg);

        let mut joined = SelfTestSession::new(&c, &StumpsConfig::default());
        let (golden, faulty, pass) = joined.run_with_verdict(&cfg, fault);
        assert_eq!(golden, seq_golden);
        assert_eq!(faulty, seq_faulty);
        assert_eq!(pass, seq_faulty.matches(&seq_golden));
        // A second verdict reuses the cached sibling session and must
        // reproduce the same results bit for bit.
        let (golden2, faulty2, pass2) = joined.run_with_verdict(&cfg, fault);
        assert_eq!(golden2, seq_golden);
        assert_eq!(faulty2, seq_faulty);
        assert_eq!(pass2, pass);
    }

    #[test]
    fn fault_free_rerun_passes() {
        let c = core();
        let mut s = SelfTestSession::new(&c, &StumpsConfig::default());
        let cfg = SessionConfig { num_patterns: 12, ..Default::default() };
        let golden = s.run(&cfg);
        let retest = s.run(&cfg);
        assert!(retest.matches(&golden));
    }

    #[test]
    fn snapshots_recorded_at_interval() {
        let c = core();
        let mut s = SelfTestSession::new(&c, &StumpsConfig::default());
        let r = s.run(&SessionConfig { num_patterns: 16, snapshot_every: 4, ..Default::default() });
        assert_eq!(r.snapshots.len(), 4);
        for snap in &r.snapshots {
            assert_eq!(snap.len(), s.architecture().domains().len());
        }
    }

    #[test]
    fn capture_order_changes_signatures_with_cross_domain_logic() {
        let c = core();
        let n_domains = c.netlist.num_domains();
        if n_domains < 2 {
            return;
        }
        let mut s = SelfTestSession::new(&c, &StumpsConfig::default());
        let forward = s.run(&SessionConfig { num_patterns: 12, ..Default::default() });
        let reversed: Vec<DomainId> =
            (0..n_domains).rev().map(|d| DomainId::new(d as u16)).collect();
        let backward = s.run(&SessionConfig {
            num_patterns: 12,
            capture_order: Some(reversed),
            ..Default::default()
        });
        // Cross-domain paths make capture order observable.
        assert!(!forward.matches(&backward));
    }

    #[test]
    fn reseeded_session_is_deterministic_and_counts_loads() {
        let c = core();
        let mut s = SelfTestSession::new(&c, &StumpsConfig::default());
        let degree = s.architecture().domains()[0].prpg.lfsr().len();
        let n_domains = s.architecture().domains().len();
        let mut seeds: Vec<Option<Gf2Vec>> = vec![None; n_domains];
        seeds[0] = Some(Gf2Vec::from_fn(degree, |i| i % 3 == 0 || i == 0));
        let mut schedule = lbist_reseed::SeedSchedule::new();
        schedule.push_random(5);
        schedule.push_reseed(seeds);
        schedule.push_random(4);
        let cfg = SessionConfig { reseed: Some(schedule.clone()), ..Default::default() };
        let a = s.run(&cfg);
        let b = s.run(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.patterns_applied, schedule.num_patterns());
        assert_eq!(a.patterns_applied, 10);
    }

    #[test]
    fn reseed_window_changes_signatures() {
        let c = core();
        let mut s = SelfTestSession::new(&c, &StumpsConfig::default());
        let degree = s.architecture().domains()[0].prpg.lfsr().len();
        let n_domains = s.architecture().domains().len();
        // Schedule A: 10 plain random loads. Schedule B: same count, but
        // the PRPG of domain 0 is re-seeded before load 6.
        let mut plain = lbist_reseed::SeedSchedule::new();
        plain.push_random(10);
        let mut reseeded = lbist_reseed::SeedSchedule::new();
        reseeded.push_random(5);
        let mut seeds: Vec<Option<Gf2Vec>> = vec![None; n_domains];
        seeds[0] = Some(Gf2Vec::from_fn(degree, |i| i % 2 == 0));
        reseeded.push_reseed(seeds);
        reseeded.push_random(4);
        let a = s.run(&SessionConfig { reseed: Some(plain), ..Default::default() });
        let b = s.run(&SessionConfig { reseed: Some(reseeded), ..Default::default() });
        assert_eq!(a.patterns_applied, b.patterns_applied);
        assert!(!a.matches(&b), "the reseed must steer the pattern stream");
    }

    /// End-to-end seed solving against the session's own architecture: a
    /// cube solved through the linear map, loaded through a reseed
    /// window's plumbing (selector → shift), lands its care bits in the
    /// right scan cells.
    #[test]
    fn solved_seed_lands_cube_bits_in_cells() {
        use lbist_reseed::{CubeFate, DomainChannel, ReseedPlanner, ScanLinearMap};
        let c = core();
        let mut arch = StumpsArchitecture::build(&c, &StumpsConfig::default());
        let shift_cycles = arch.max_chain_length().max(1);

        // Care bits: first and last cell of every domain's first chain.
        let mut cube = lbist_atpg::TestCube::new();
        for db in arch.domains() {
            if let Some(chain) = db.chains.first() {
                cube.assign(chain.cells[0], true);
                cube.assign(*chain.cells.last().unwrap(), chain.cells.len() % 2 == 0);
            }
        }
        let cc = CompiledCircuit::compile(&c.netlist).unwrap();
        let (seeds, fate) = {
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
            let map = ScanLinearMap::build(&channels, shift_cycles);
            let plan = ReseedPlanner::new(&map).plan(std::slice::from_ref(&cube), &cc, 3);
            (plan.seeds, plan.fates[0].clone())
        };
        assert_eq!(fate, CubeFate::Seeded { group: 0 });

        // Apply the seeds the way a reseed window does and run one load.
        for (db, seed) in arch.domains_mut().iter_mut().zip(&seeds[0]) {
            if let Some(seed) = seed {
                db.prpg.lfsr_mut().set_state(seed.clone());
            }
        }
        let mut selector = InputSelector::new();
        let load = selector.next_load(&mut arch, shift_cycles).unwrap();
        let mut chain_idx = 0usize;
        for db in arch.domains() {
            for chain in &db.chains {
                for (i, cell) in chain.cells.iter().enumerate() {
                    if let Some(want) = cube.value_of(*cell) {
                        assert_eq!(
                            load[chain_idx][shift_cycles - 1 - i],
                            want,
                            "care bit on cell {cell}"
                        );
                    }
                }
                chain_idx += 1;
            }
        }
    }

    /// A session killed at any load step and resumed from its
    /// checkpoint reproduces the uninterrupted run bit for bit —
    /// including a reseed-scheduled session with snapshots and top-up.
    #[test]
    fn session_kill_resume_matches_uninterrupted() {
        use crate::checkpoint::{CheckpointSpec, RunControl, RunStatus};
        let c = core();
        let dir = std::env::temp_dir().join(format!("lbist-session-kill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let degree = {
            let s = SelfTestSession::new(&c, &StumpsConfig::default());
            s.architecture().domains()[0].prpg.lfsr().len()
        };
        let n_domains = {
            let s = SelfTestSession::new(&c, &StumpsConfig::default());
            s.architecture().domains().len()
        };
        let mut seeds: Vec<Option<Gf2Vec>> = vec![None; n_domains];
        seeds[0] = Some(Gf2Vec::from_fn(degree, |i| i % 3 == 0 || i == 0));
        let mut schedule = lbist_reseed::SeedSchedule::new();
        schedule.push_random(3);
        schedule.push_reseed(seeds);
        schedule.push_random(2);
        let ffs = c.netlist.dffs().len();
        let cfg = SessionConfig {
            reseed: Some(schedule),
            snapshot_every: 2,
            top_up: vec![lbist_atpg::Pattern {
                pi_values: vec![],
                ff_values: (0..ffs).map(|i| i % 2 == 0).collect(),
            }],
            ..Default::default()
        };

        let mut reference = SelfTestSession::new(&c, &StumpsConfig::default());
        let want = reference.run(&cfg);
        let total_steps = want.patterns_applied as u64;
        assert_eq!(total_steps, 7); // 3 + 1 reseed + 2 + 1 top-up

        for kill_after in 0..=total_steps {
            let path = dir.join(format!("s-{kill_after}.ckpt"));
            let spec = CheckpointSpec::new(&path, 1);
            let mut session = SelfTestSession::new(&c, &StumpsConfig::default());
            let killed = session
                .run_controlled(
                    &cfg,
                    &RunControl {
                        budget: Some(kill_after),
                        checkpoint: Some(spec.clone()),
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_eq!(killed.steps_done, kill_after);
            if kill_after < total_steps {
                assert_eq!(killed.status, RunStatus::BudgetExhausted);
            }
            let resumed = session
                .run_controlled(
                    &cfg,
                    &RunControl { checkpoint: Some(spec), resume: true, ..Default::default() },
                )
                .unwrap();
            assert_eq!(resumed.status, RunStatus::Completed);
            assert_eq!(resumed.resumed_from, Some(kill_after));
            assert_eq!(resumed.result, want, "kill at step {kill_after} diverged");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A cancelled session returns a clean partial verdict, and resume
    /// under a different load plan is rejected.
    #[test]
    fn session_cancellation_and_plan_validation() {
        use crate::checkpoint::{CheckpointSpec, RunControl, RunStatus};
        use lbist_exec::{CancelReason, CancelToken};
        let c = core();
        let dir = std::env::temp_dir().join(format!("lbist-session-plan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = SessionConfig { num_patterns: 6, ..Default::default() };
        let mut session = SelfTestSession::new(&c, &StumpsConfig::default());

        let token = CancelToken::new();
        token.cancel();
        let out = session.run_controlled(&cfg, &RunControl::with_cancel(token)).unwrap();
        assert_eq!(out.status, RunStatus::Cancelled(CancelReason::Requested));
        assert_eq!(out.steps_done, 0);

        let path = dir.join("plan.ckpt");
        let spec = CheckpointSpec::new(&path, 1);
        session
            .run_controlled(
                &cfg,
                &RunControl {
                    budget: Some(3),
                    checkpoint: Some(spec.clone()),
                    ..Default::default()
                },
            )
            .unwrap();
        // Resuming with a different pattern count is a plan mismatch.
        let other = SessionConfig { num_patterns: 9, ..Default::default() };
        let err = session
            .run_controlled(
                &other,
                &RunControl { checkpoint: Some(spec), resume: true, ..Default::default() },
            )
            .unwrap_err();
        assert!(matches!(err, CkptError::Mismatch(_)), "got {err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn top_up_patterns_extend_the_session() {
        let c = core();
        let mut s = SelfTestSession::new(&c, &StumpsConfig::default());
        let ffs = c.netlist.dffs().len();
        let top_up = vec![lbist_atpg::Pattern {
            pi_values: vec![],
            ff_values: (0..ffs).map(|i| i % 2 == 0).collect(),
        }];
        let with = s.run(&SessionConfig { num_patterns: 8, top_up, ..Default::default() });
        let without = s.run(&SessionConfig { num_patterns: 8, ..Default::default() });
        assert_eq!(with.patterns_applied, 9);
        assert!(!with.matches(&without));
    }
}
