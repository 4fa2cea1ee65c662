//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flow_y|front_x|grade_x|serve_mix> --seed N --seconds N --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, calls the layers'
//! public functions one by one with every call timed from outside,
//! repeats its timed body for `--seconds`, checks its outputs, and
//! prints as the last line of standard output one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`END_TO_END`]); with `--trace 1`
//! the run also makes traced passes — the existing `lbist-obs`
//! instrumentation switched on through its public setters — and reports
//! the per-layer ones ([`PER_LAYER`]).

mod flow;
mod grade;
mod harness;
mod serve;

use harness::{Args, Ledger};

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["flow_y", "front_x", "grade_x", "serve_mix"];

/// Engine workers every workload uses. On a two-vCPU virtual machine
/// with 12–19% steal, three runs of one seed at one worker had medians
/// within 0.5% of each other on `grade_x`, where two workers drifted by
/// 25%: a pass on two workers waits for whichever vCPU the host stalls.
pub const WORKERS: usize = 1;

/// End-to-end metrics, reported by every workload: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("wall_s", "s"), ("coverage_pct", "%"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("cores.generate_s", "s"),
    ("dft.prepare_s", "s"),
    ("dft.obs_points", "count"),
    ("sim.compile_s", "s"),
    ("sim.kernel_compile_s", "s"),
    ("sim.kernel_instrs", "count"),
    ("core.fill_s", "s"),
    ("core.session_stuck_s", "s"),
    ("core.session_transition_s", "s"),
    ("fault.universe_s", "s"),
    ("fault.run_batch_s", "s"),
    ("fault.sim_s", "s"),
    ("fault.detect_s", "s"),
    ("fault.faults_graded", "count"),
    ("fault.faults_graded.stuck", "count"),
    ("fault.faults_graded.transition", "count"),
    ("fault.detect_yield.stuck", "ratio"),
    ("fault.detect_yield.transition", "ratio"),
    ("tpg.absorb_s", "s"),
    ("atpg.topup_s", "s"),
    ("atpg.survivors", "count"),
    ("atpg.detected", "count"),
    ("atpg.untestable", "count"),
    ("atpg.aborted", "count"),
    ("atpg.care_bits", "count"),
    ("atpg.podem_cpu_s.detected", "s"),
    ("atpg.podem_cpu_s.untestable", "s"),
    ("atpg.podem_cpu_s.aborted", "s"),
    ("atpg.podem_calls.detected", "count"),
    ("atpg.podem_calls.untestable", "count"),
    ("atpg.podem_calls.aborted", "count"),
    ("reseed.map_s", "s"),
    ("reseed.plan_s", "s"),
    ("reseed.seeds", "count"),
    ("reseed.seeded_cubes", "count"),
    ("serve.jobs", "count"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.slice_ms_p50", "ms"),
    ("serve.slice_ms_p90", "ms"),
    ("serve.slices", "count"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.kernel_cache_hits", "count"),
    ("serve.preemptions", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.retries", "count"),
    ("exec.workers", "count"),
    ("exec.shard_dispatches", "count"),
    ("exec.steals", "count"),
    ("exec.shard_retries", "count"),
    ("obs.overhead_pct", "%"),
    ("obs.phase_coverage_pct", "%"),
    ("obs.uncovered_s", "s"),
    ("flow_s", "s"),
    ("fc1_pct", "%"),
    ("fc2_pct", "%"),
    ("topup_patterns", "count"),
    ("aborted_faults", "count"),
    ("tail_bits", "bits"),
    ("stuck_patterns_per_s", "1/s"),
    ("transition_patterns_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
];

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workers = WORKERS;
    let mut ledger = Ledger::default();
    ledger.set("exec.workers", workers as f64);
    match args.workload.as_str() {
        "flow_y" => flow::run(&flow::FlowSpec::flow_y(), &args, workers, &mut ledger),
        "front_x" => flow::run(&flow::FlowSpec::front_x(), &args, workers, &mut ledger),
        "grade_x" => grade::run(&args, workers, &mut ledger),
        "serve_mix" => serve::run(&args, workers, &mut ledger),
        other => unreachable!("Args::parse admits only known workloads, got {other}"),
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in names {
        match ledger.get(name) {
            Some(v) => println!("{name:<34} {v:>18.6} {unit}"),
            None => println!("{name:<34} {:>18} {unit}", "-"),
        }
    }
    let line = ledger.result_json(names);
    eprintln!("perfbench: {} operations, {} failed", ledger.attempted(), ledger.failed());
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::valid_name;

    #[test]
    fn every_emitted_name_matches_the_metric_charset() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit} of {name}"
            );
        }
        for w in WORKLOADS {
            assert!(valid_name(w), "workload {w}");
        }
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "every metric name is used once");
    }

    /// The metric lists here and in `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &entry[at + f.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), owned(&END_TO_END));
        assert_eq!(section("per_layer"), owned(&PER_LAYER));
    }
}
