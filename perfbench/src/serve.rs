//! `serve_mix`: a closed loop of four clients on one `ControlPlane`.
//! Each client submits its next job only once its previous verdict has
//! arrived; jobs are drawn from the seed over six sealed designs.

use crate::harness::{
    histogram_percentile, median, percentile, percentile_reportable, record_peak_rss, sorted,
    time_setup, timed, Args, ExecCounters, Ledger,
};
use lbist_core::{ModelTag, StumpsConfig, WideGradingSession};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{prepare_core, PrepConfig, TpiMethod};
use lbist_exec::LaneWord;
use lbist_fault::{CaptureWindow, Fault, FaultUniverse};
use lbist_obs::Registry;
use lbist_serve::{ControlPlane, Disposition, JobId, JobPayload, JobSpec, ServeConfig, TenantId};
use lbist_sim::CompiledCircuit;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Tenant weights, one tenant per client.
pub const WEIGHTS: [u64; 4] = [1, 1, 2, 4];
/// The sealed designs: (profile, scale divisor).
fn design_profiles() -> [(CoreProfile, usize); 6] {
    let (x, y) = (CoreProfile::core_x(), CoreProfile::core_y());
    [(x.clone(), 150), (x.clone(), 250), (x, 400), (y.clone(), 400), (y.clone(), 450), (y, 500)]
}
/// Generator seeds of the designs (fixed; the run's `--seed` drives
/// the job stream).
const DESIGN_SEEDS: [u64; 6] = [42, 43, 44, 45, 46, 47];
/// Batches a job grades per slice before it is preempted.
pub const SLICE_BATCHES: u64 = 4;

/// One design's payload and domain count.
struct Design {
    payload: JobPayload,
    netlist: lbist_netlist::Netlist,
    domains: usize,
}

/// Job kinds per deck: (design, lane width, model) with stuck-at and
/// transition 3:1, each dealt [`COPIES`] times.
const KINDS: usize = 6 * 2 * 4;
/// Copies of each kind in a deck; their batch targets sum to
/// `COPIES · 13`, the mean of 2..=24.
const COPIES: u64 = 3;
/// Jobs in one deck.
pub const DECK: usize = KINDS * COPIES as usize;

/// The seeded job stream, dealt from shuffled decks. A deck holds every
/// job kind [`COPIES`] times with batch targets drawn from 2..=24 under
/// a fixed sum, so every deck carries the same work while the seed
/// decides the targets and the order.
struct JobStream {
    rng: SmallRng,
    deck: Vec<(usize, usize, bool, u64)>,
}

impl JobStream {
    fn new(seed: u64) -> Self {
        JobStream { rng: SmallRng::seed_from_u64(seed ^ 0x5E7E_0001), deck: Vec::new() }
    }

    /// Three batch targets in 2..=24 summing to 39.
    fn batch_triple(&mut self) -> [u64; 3] {
        let a: u64 = self.rng.gen_range(2..=24);
        let lo = 2u64.max((39 - a).saturating_sub(24));
        let hi = 24u64.min(39 - a - 2);
        let b = self.rng.gen_range(lo..=hi);
        [a, b, 39 - a - b]
    }

    /// The next job: design index and spec.
    fn next(&mut self, designs: &[Design]) -> (usize, JobSpec) {
        if self.deck.is_empty() {
            for design in 0..designs.len() {
                for lanes in [64, 128] {
                    for model in 0..4 {
                        for batches in self.batch_triple() {
                            self.deck.push((design, lanes, model == 3, batches));
                        }
                    }
                }
            }
            debug_assert_eq!(self.deck.len(), DECK);
            // Fisher–Yates.
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                self.deck.swap(i, j);
            }
        }
        let (design, lanes, transition, batches) = self.deck.pop().expect("deck refilled");
        let base =
            if transition { JobSpec::transition(batches) } else { JobSpec::stuck_at(batches) };
        // At least one chain per clock domain, or stitching rejects the design.
        let chains = base.chains.max(designs[design].domains);
        (design, JobSpec { lanes, chains, ..base })
    }
}

/// One served job's record.
#[derive(Clone, Debug, PartialEq)]
struct Job {
    design: usize,
    spec: JobSpec,
    digest: Option<u64>,
    disposition: Disposition,
    latency: Duration,
    coverage_pct: Option<f64>,
    faults_graded: u64,
    detected: u64,
    preemptions: u64,
    retries: u64,
}

impl Job {
    /// The timing-free part of the record.
    fn identity(&self) -> (usize, &JobSpec, Option<u64>, Disposition) {
        (self.design, &self.spec, self.digest, self.disposition)
    }
}

/// What one closed-loop pass measured.
struct Pass {
    wall: f64,
    submitted: usize,
    /// Every job in verdict order.
    jobs: Vec<Job>,
    submit_ms: Vec<f64>,
    slice_ms: Vec<f64>,
    cache: lbist_serve::CacheStats,
    kernel_cache_hits: u64,
    queue_wait_ms_p50: Option<f64>,
}

impl Pass {
    fn completed(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter().filter(|j| j.disposition == Disposition::Completed)
    }
}

/// Builds the plane with one tenant per client: spool inside `spool`,
/// the engine's worker budget, and a disabled registry (untraced) or a
/// private enabled one (traced).
fn plane(spool: &Path, threads: usize, traced: bool) -> (ControlPlane, Vec<TenantId>) {
    let registry = if traced { Registry::new() } else { Registry::disabled() };
    let mut plane = ControlPlane::new(ServeConfig {
        slice_batches: SLICE_BATCHES,
        spool_dir: Some(spool.to_path_buf()),
        threads: Some(threads),
        registry: Some(registry),
        ..ServeConfig::default()
    })
    .expect("spool directory is creatable");
    let tenants = WEIGHTS
        .iter()
        .enumerate()
        .map(|(i, &w)| plane.register_tenant(&format!("client{i}"), w))
        .collect();
    (plane, tenants)
}

/// Runs the closed loop over whole decks until `deadline` has passed
/// (or until exactly `exact_jobs` have been submitted), then drains the
/// queue. One deck already puts more than ten latencies beyond p90.
fn closed_loop(
    designs: &[Design],
    (mut plane, tenants): (ControlPlane, Vec<TenantId>),
    seed: u64,
    deadline: Duration,
    exact_jobs: Option<usize>,
) -> Pass {
    let mut stream = JobStream::new(seed);
    let mut waiting: Vec<Option<JobId>> = vec![None; tenants.len()];
    let mut drawn: BTreeMap<JobId, (usize, JobSpec)> = BTreeMap::new();
    let (mut submit_ms, mut slice_ms) = (Vec::new(), Vec::new());
    let mut seen = 0;
    let start = Instant::now();
    let stop = |submitted: usize| match exact_jobs {
        Some(n) => submitted >= n,
        None => start.elapsed() >= deadline && submitted.is_multiple_of(DECK),
    };
    loop {
        for (client, slot) in waiting.iter_mut().enumerate() {
            if slot.is_none() && !stop(drawn.len()) {
                let (design, spec) = stream.next(designs);
                let payload = &designs[design].payload;
                let (id, s) = timed(|| plane.submit(tenants[client], spec.clone(), payload));
                submit_ms.push(s * 1e3);
                drawn.insert(id, (design, spec));
                *slot = Some(id);
            }
        }
        let (ran, s) = timed(|| plane.run_once());
        if ran {
            slice_ms.push(s * 1e3);
        }
        for v in &plane.verdicts()[seen..] {
            waiting.iter_mut().filter(|w| **w == Some(v.job)).for_each(|w| *w = None);
        }
        seen = plane.verdicts().len();
        if !ran && waiting.iter().all(Option::is_none) && stop(drawn.len()) {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let jobs = plane
        .verdicts()
        .iter()
        .map(|v| {
            let (design, spec) = drawn[&v.job].clone();
            Job {
                design,
                spec,
                digest: v.digest(),
                disposition: v.disposition,
                latency: v.latency,
                coverage_pct: v.outcome.as_ref().map(|o| o.coverage.percent()),
                faults_graded: v.outcome.as_ref().map_or(0, |o| o.faults_graded),
                detected: v.outcome.as_ref().map_or(0, |o| o.coverage.detected as u64),
                preemptions: u64::from(v.preemptions),
                retries: u64::from(v.retries),
            }
        })
        .collect();
    let snap = plane.registry().snapshot();
    Pass {
        wall,
        submitted: drawn.len(),
        jobs,
        submit_ms,
        slice_ms,
        cache: plane.cache_stats(),
        kernel_cache_hits: plane.metrics().kernel_cache_hits,
        queue_wait_ms_p50: snap
            .histogram("serve.queue_wait_ns")
            .and_then(|h| histogram_percentile(h, 0.5))
            .map(|ns| ns / 1e6),
    }
}

/// The digest of an uninterrupted `WideGradingSession` run of `spec`
/// on the design, prepared as the control plane prepares it.
fn reference_digest<W: LaneWord>(
    core: &lbist_dft::BistReadyCore,
    cc: &CompiledCircuit,
    faults: &[Fault],
    spec: &JobSpec,
    threads: usize,
) -> u64 {
    let mut session: WideGradingSession<'_, W> =
        WideGradingSession::new(core, cc, &StumpsConfig::default());
    session.set_threads(threads).set_drop_after(spec.drop_after);
    let batches = spec.batches as usize;
    match spec.model {
        ModelTag::StuckAt => session.run_stuck_at(faults.to_vec(), batches).digest(),
        ModelTag::Transition => {
            let window = CaptureWindow::all_domains(core.netlist.num_domains().max(1));
            session.run_transition(faults.to_vec(), window, batches).digest()
        }
    }
}

/// Every job reaches a verdict, and for each distinct (design, spec)
/// pair the served digest equals a direct uninterrupted session run.
fn check_digests(designs: &[Design], pass: &Pass, threads: usize, ledger: &mut Ledger) {
    // Each distinct (design, spec) pair with every digest served for it.
    let mut pairs: Vec<(usize, &JobSpec, Vec<Option<u64>>)> = Vec::new();
    for job in pass.completed() {
        match pairs.iter_mut().find(|(d, s, _)| *d == job.design && **s == job.spec) {
            Some(pair) => pair.2.push(job.digest),
            None => pairs.push((job.design, &job.spec, vec![job.digest])),
        }
    }
    let mut prepared = BTreeMap::new();
    for (design, spec, got) in pairs {
        let chains = spec.chains;
        let ok = ledger.guarded("serve reference digest", || {
            let (core, cc) = prepared.entry((design, chains)).or_insert_with(|| {
                let core = prepare_core(
                    &designs[design].netlist,
                    &PrepConfig {
                        total_chains: chains.max(1),
                        obs_budget: 0,
                        tpi: TpiMethod::None,
                        ..PrepConfig::default()
                    },
                );
                let cc = CompiledCircuit::compile(&core.netlist).expect("design compiles");
                (core, cc)
            });
            let faults: Vec<Fault> = match spec.model {
                ModelTag::StuckAt => FaultUniverse::stuck_at(&core.netlist).representatives(),
                ModelTag::Transition => FaultUniverse::transition(&core.netlist)
                    .representatives()
                    .into_iter()
                    .filter(|f| f.is_stem())
                    .collect(),
            };
            let want = match spec.lanes {
                64 => reference_digest::<u64>(core, cc, &faults, spec, threads),
                _ => reference_digest::<u128>(core, cc, &faults, spec, threads),
            };
            got.iter().all(|&d| d == Some(want))
        });
        if let Some(ok) = ok {
            ledger.op("served digest equals the uninterrupted session run", ok);
        }
    }
}

/// Records the headline numbers of an untraced pass.
fn record_headline(pass: &Pass, ledger: &mut Ledger) {
    // A job that did not complete misses every latency limit.
    let latencies_ms: Vec<f64> = pass
        .jobs
        .iter()
        .map(|j| match j.disposition {
            Disposition::Completed => j.latency.as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        })
        .collect();
    let lat = sorted(&latencies_ms);
    let p50 = percentile(&lat, 0.5);
    ledger.set("job_latency_p50_ms", p50);
    ledger.op("at least ten job latencies lie beyond p90", percentile_reportable(lat.len(), 0.9));
    ledger.set("job_latency_p90_ms", percentile(&lat, 0.9));
    let completed = pass.completed().count();
    ledger.set("jobs_per_s", completed as f64 / pass.wall);
    // Wall time per job served. Every run serves the same decks of work,
    // so this is steadier than a latency percentile, which also moves
    // with the order the seed deals the jobs in.
    ledger.set("wall_s", pass.wall / pass.jobs.len().max(1) as f64);
    let covs: Vec<f64> = pass.completed().filter_map(|j| j.coverage_pct).collect();
    ledger.set("coverage_pct", covs.iter().sum::<f64>() / covs.len().max(1) as f64);
    ledger.set("serve.jobs", pass.jobs.len() as f64);
}

/// Records the serve layer's split from a traced pass.
fn record_layers(pass: &Pass, ledger: &mut Ledger) {
    let submit = sorted(&pass.submit_ms);
    let slice = sorted(&pass.slice_ms);
    if !submit.is_empty() {
        ledger.set("serve.submit_ms_p50", percentile(&submit, 0.5));
    }
    if !slice.is_empty() {
        ledger.set("serve.slice_ms_p50", percentile(&slice, 0.5));
        ledger.set("serve.slice_ms_p90", percentile(&slice, 0.9));
    }
    ledger.set("serve.slices", slice.len() as f64);
    let lookups = pass.cache.hits + pass.cache.misses;
    ledger.set("serve.cache_hit_ratio", pass.cache.hits as f64 / lookups.max(1) as f64);
    ledger.set("serve.cache_evictions", pass.cache.evictions as f64);
    ledger.set("serve.kernel_cache_hits", pass.kernel_cache_hits as f64);
    if let Some(q) = pass.queue_wait_ms_p50 {
        ledger.set("serve.queue_wait_ms_p50", q);
    }
    let (mut graded, mut detected, mut preemptions, mut retries) = ([0u64; 2], [0u64; 2], 0, 0);
    for job in &pass.jobs {
        let m = usize::from(job.spec.model == ModelTag::Transition);
        graded[m] += job.faults_graded;
        detected[m] += job.detected;
        preemptions += job.preemptions;
        retries += job.retries;
    }
    ledger.set("serve.preemptions", preemptions as f64);
    ledger.set("serve.retries", retries as f64);
    let count = |d: Disposition| pass.jobs.iter().filter(|j| j.disposition == d).count() as f64;
    ledger.set("serve.rejected", count(Disposition::Rejected));
    ledger.set("serve.shed", count(Disposition::Shed));
    ledger.set("serve.failed", count(Disposition::Failed));
    ledger.set("fault.faults_graded.stuck", graded[0] as f64);
    ledger.set("fault.faults_graded.transition", graded[1] as f64);
    ledger.set("fault.faults_graded", (graded[0] + graded[1]) as f64);
    ledger.set("fault.detect_yield.stuck", detected[0] as f64 / graded[0].max(1) as f64);
    ledger.set("fault.detect_yield.transition", detected[1] as f64 / graded[1].max(1) as f64);
    let covered = (pass.submit_ms.iter().sum::<f64>() + pass.slice_ms.iter().sum::<f64>()) / 1e3;
    ledger.set("obs.phase_coverage_pct", covered / pass.wall * 100.0);
    ledger.set("obs.uncovered_s", (pass.wall - covered).max(0.0));
}

/// The spool directory: inside the build directory of the checkout.
fn spool_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join(format!("serve-spool-{}", std::process::id()))
}

/// Runs `serve_mix`: set-up, the timed closed loop, checks.
pub fn run(args: &Args, threads: usize, ledger: &mut Ledger) {
    let spool = spool_dir();
    let mut gens = Vec::new();
    let ((designs, first_plane), setup_s) = time_setup(|| {
        let (designs, gen_s) = timed(|| {
            design_profiles()
                .iter()
                .zip(DESIGN_SEEDS)
                .map(|((p, scale), s)| {
                    let profile = p.scaled(*scale);
                    let netlist = CpuCoreGenerator::new(profile.clone(), s).generate();
                    let payload =
                        JobPayload { netlist: lbist_ckpt::seal_netlist(&netlist), faults: None };
                    Design { payload, netlist, domains: profile.num_domains }
                })
                .collect::<Vec<_>>()
        });
        gens.push(gen_s);
        (designs, plane(&spool, threads, false))
    });

    let deadline = Duration::from_secs(args.seconds);
    let pass = closed_loop(&designs, first_plane, args.seed, deadline, None);
    record_peak_rss(ledger);
    ledger.set("setup_s", setup_s);
    ledger.set("cores.generate_s", median(&gens));
    for job in &pass.jobs {
        ledger.op("serve job", job.disposition == Disposition::Completed);
    }
    ledger.op("every submitted job reached a verdict", pass.jobs.len() == pass.submitted);
    record_headline(&pass, ledger);

    if args.trace {
        // The traced loop replays exactly the untraced loop's job stream.
        let before = ExecCounters::now();
        let traced = closed_loop(
            &designs,
            plane(&spool, threads, true),
            args.seed,
            deadline,
            Some(pass.jobs.len()),
        );
        ExecCounters::record_since(before, ledger);
        ledger.op(
            "traced loop serves the same jobs with the same digests",
            traced.jobs.iter().map(Job::identity).eq(pass.jobs.iter().map(Job::identity)),
        );
        record_layers(&traced, ledger);
        ledger.set("obs.overhead_pct", (traced.wall / pass.wall - 1.0) * 100.0);
    }
    let ((), check_s) = timed(|| check_digests(&designs, &pass, threads, ledger));
    eprintln!(
        "perfbench: serve_mix served {} jobs in {:.2} s; reference checks took {check_s:.2} s",
        pass.jobs.len(),
        pass.wall
    );
    let _ = std::fs::remove_dir_all(&spool);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn designs() -> Vec<Design> {
        let netlist = lbist_netlist::Netlist::new("empty");
        (0..6)
            .map(|i| Design {
                payload: JobPayload { netlist: Vec::new(), faults: None },
                netlist: netlist.clone(),
                domains: if i < 3 { 2 } else { 8 },
            })
            .collect()
    }

    #[test]
    fn batch_triples_stay_in_range_and_sum_to_39() {
        let mut stream = JobStream::new(3);
        for _ in 0..10_000 {
            let t = stream.batch_triple();
            assert!(t.iter().all(|b| (2..=24).contains(b)), "{t:?}");
            assert_eq!(t.iter().sum::<u64>(), 39);
        }
    }

    #[test]
    fn every_deck_carries_the_same_jobs_in_a_seeded_order() {
        let d = designs();
        let deal = |seed: u64| -> Vec<(usize, JobSpec)> {
            let mut stream = JobStream::new(seed);
            (0..DECK).map(|_| stream.next(&d)).collect()
        };
        let (a, b) = (deal(1), deal(2));
        assert_eq!(a, deal(1), "same seed, same stream");
        assert_ne!(a, b, "the seed decides the order and the targets");
        for jobs in [&a, &b] {
            let total: u64 = jobs.iter().map(|(_, s)| s.batches).sum();
            assert_eq!(total, DECK as u64 * 13, "every deck grades the same batches");
            let transition = jobs.iter().filter(|(_, s)| s.model == ModelTag::Transition).count();
            assert_eq!(transition * 4, DECK, "a quarter of the jobs are transition jobs");
            for (design, spec) in jobs.iter() {
                assert!(spec.chains >= d[*design].domains, "a chain per clock domain");
                assert!(matches!(spec.lanes, 64 | 128));
            }
        }
        assert!(percentile_reportable(DECK, 0.9), "one deck reports p90");
    }
}
