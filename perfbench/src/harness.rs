//! Measurement plumbing shared by every workload: argument parsing, the
//! operation/check ledger, nearest-rank percentiles, the peak-RSS
//! reader, phase timers and the JSON result line.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

/// Set-up repeats a run times before its first pass; `setup_s` is
/// their median. Millisecond set-ups on a shared host see bursts of
/// 2–4× stalls that can fill a short series; a hundred samples keep the
/// median on the unstalled ones.
pub const SETUPS: usize = 101;

/// Runs the set-up `f` [`SETUPS`] times and returns the last call's
/// value with the median seconds per call.
pub fn time_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut value, first) = timed(&mut f);
    let mut samples = vec![first];
    for _ in 1..SETUPS {
        let s;
        (value, s) = timed(&mut f);
        samples.push(s);
    }
    (value, median(&samples))
}

/// Passes a pass-based workload times at least: five in an untraced
/// run, so that its median rests on more than one or two passes; one
/// untraced and one traced pass in a traced run.
pub fn min_passes(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        5
    }
}

/// Command-line arguments: `--workload NAME --seed N --seconds N --trace 0|1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// Workload name (one of [`crate::WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement time of one run.
    pub seconds: u64,
    /// `true` for the traced run, which reports the per-layer metrics.
    pub trace: bool,
}

impl Args {
    /// Parses the four required flags; every one must be present once
    /// and well formed.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut flags: BTreeMap<String, String> = BTreeMap::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let key = match flag.strip_prefix("--") {
                Some(k @ ("workload" | "seed" | "seconds" | "trace")) => k.to_string(),
                _ => return Err(format!("unknown argument `{flag}`")),
            };
            let value = it.next().ok_or_else(|| format!("`{flag}` expects a value"))?;
            if flags.insert(key, value).is_some() {
                return Err(format!("`{flag}` given twice"));
            }
        }
        let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing `--{k}`"));
        let number = |k: &str| -> Result<u64, String> {
            let v = get(k)?;
            v.parse().map_err(|_| format!("`--{k}` expects a whole number, got `{v}`"))
        };
        let workload = get("workload")?.clone();
        if !crate::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (want one of {:?})",
                crate::WORKLOADS
            ));
        }
        let seconds = number("seconds")?;
        if seconds == 0 {
            return Err("`--seconds` must be at least 1".to_string());
        }
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("`--trace` expects 0 or 1, got `{other}`")),
        };
        Ok(Args { workload, seed: number("seed")?, seconds, trace })
    }
}

/// The run's ledger: operations attempted and failed (a failed output
/// check is a failed operation) plus the measured values by name.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Records one operation — a pass, a job or an output check — and
    /// whether it succeeded. A false check is a failed operation, never
    /// an abort.
    pub fn op(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}");
        }
    }

    /// Runs `f` as one operation: a panic inside it is caught and
    /// counted as a failed operation instead of ending the run.
    pub fn guarded<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        match panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".to_string());
                self.op(&format!("{what}: panicked: {msg}"), false);
                None
            }
        }
    }

    /// Sets the measured value of metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The measured value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `true` when every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: the reported `metrics` are exactly `names`, in
    /// order, each with its unit. A name the workload does not measure
    /// reads 0 (the layer did no work); a non-finite value is a failed
    /// check and reads 0.
    pub fn result_json(&mut self, names: &[(&'static str, &'static str)]) -> String {
        let mut body = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            if !valid_name(name) {
                self.op(&format!("metric name {name:?} is well formed"), false);
            }
            let mut value = self.values.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                self.op(&format!("metric {name} is finite"), false);
                value = 0.0;
            }
            body.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// `true` when `name` is a legal metric or workload name:
/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Nearest-rank percentile `p` ∈ (0, 1] of an ascending-sorted sample:
/// the smallest value with at least `p·n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// A percentile is reported only when at least ten samples lie beyond
/// it, so that it rests on more than one or two outliers.
pub fn percentile_reportable(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Median of an unsorted sample (nearest-rank p50 would bias even
/// samples low; the median averages the middle pair).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts a sample ascending (total order; no NaN is ever recorded).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// This process's peak resident set size in MiB, as the OS reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// Records the process's peak resident set so far as `peak_rss_mb`
/// (decimal megabytes); a missing reading is a failed check.
pub fn record_peak_rss(ledger: &mut Ledger) {
    match peak_rss_mib() {
        Some(mib) => ledger.set("peak_rss_mb", mib * 1.048_576),
        None => ledger.op("peak RSS is readable from /proc/self/status", false),
    }
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Named phase timers around calls into the layers, accumulated in
/// seconds over one pass of a workload's timed body.
#[derive(Clone, Debug, Default)]
pub struct Phases {
    secs: BTreeMap<&'static str, f64>,
}

impl Phases {
    /// Runs `f`, adding its wall time to phase `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, s) = timed(f);
        *self.secs.entry(name).or_insert(0.0) += s;
        out
    }

    /// Seconds covered by every phase together.
    pub fn total(&self) -> f64 {
        self.secs.values().sum()
    }

    /// Every phase with its seconds.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.secs.iter().map(|(&k, &v)| (k, v))
    }
}

/// Sums the process-global counters whose names satisfy `pick`.
pub fn global_counter_sum(pick: impl Fn(&str) -> bool) -> u64 {
    lbist_obs::global()
        .snapshot()
        .counters
        .iter()
        .filter(|(name, _)| pick(name))
        .map(|&(_, v)| v)
        .fold(0u64, u64::wrapping_add)
}

/// The exec-pool counters a traced pass reports, read from the
/// process-global registry (always enabled).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecCounters {
    /// Resilient shard dispatches.
    pub shard_dispatches: u64,
    /// Tasks stolen between pool workers.
    pub steals: u64,
    /// Shard retries after a panic.
    pub shard_retries: u64,
}

impl ExecCounters {
    /// The counters' current values.
    pub fn now() -> Self {
        ExecCounters {
            shard_dispatches: global_counter_sum(|n| n == "exec.shard_dispatches"),
            steals: global_counter_sum(|n| n.starts_with("exec.pool") && n.ends_with(".steals")),
            shard_retries: global_counter_sum(|n| n == "exec.shard_retries"),
        }
    }

    /// Records the growth since `before` into the ledger.
    pub fn record_since(before: ExecCounters, ledger: &mut Ledger) {
        let after = ExecCounters::now();
        ledger.set(
            "exec.shard_dispatches",
            after.shard_dispatches.wrapping_sub(before.shard_dispatches) as f64,
        );
        ledger.set("exec.steals", after.steals.wrapping_sub(before.steals) as f64);
        ledger.set(
            "exec.shard_retries",
            after.shard_retries.wrapping_sub(before.shard_retries) as f64,
        );
    }
}

/// Nearest-rank percentile of a log2-bucketed histogram, interpolated
/// linearly inside the bucket that holds the rank (bucket `i` covers
/// `[2^(i-1), 2^i - 1]`, bucket 0 exactly `{0}`).
pub fn histogram_percentile(h: &lbist_obs::HistogramSnapshot, p: f64) -> Option<f64> {
    let total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let rank = nearest_rank(total as usize, p) as u64;
    let mut below = 0u64;
    for &(idx, count) in &h.buckets {
        if below + count >= rank {
            if idx == 0 {
                return Some(0.0);
            }
            let lo = (1u128 << (idx - 1)) as f64;
            let hi = ((1u128 << idx) - 1) as f64;
            let within = (rank - below) as f64 / count as f64;
            return Some(lo + (hi - lo) * within);
        }
        below += count;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload grade_x --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a, Args { workload: "grade_x".into(), seed: 7, seconds: 20, trace: true });
        assert!(args("--workload grade_x --seed 7 --seconds 20").is_err(), "trace missing");
        assert!(args("--workload nope --seed 7 --seconds 20 --trace 0").is_err());
        assert!(args("--workload grade_x --seed x --seconds 20 --trace 0").is_err());
        assert!(args("--workload grade_x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload grade_x --seed 1 --seconds 2 --trace 2").is_err());
        assert!(args("--workload grade_x --seed 1 --seed 2 --seconds 2 --trace 0").is_err());
        assert!(args("--workload grade_x --seed 1 --seconds 2 --trace 0 --extra").is_err());
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[3.0], 0.5), 3.0);
        // p50 of 4 is the 2nd value, not an average.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn ten_samples_must_lie_beyond_a_reported_percentile() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(percentile_reportable(100, 0.9));
        assert!(!percentile_reportable(99, 0.9), "rank 90 of 99 leaves only 9 beyond");
        assert!(percentile_reportable(20, 0.5));
        assert!(!percentile_reportable(19, 0.5));
        assert!(!percentile_reportable(1000, 0.995), "rank 995 leaves 5");
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn reads_peak_rss_from_proc_status() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51_200));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 40000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None, "unit must be kB");
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        let live = peak_rss_mib().expect("this process has a /proc status");
        assert!(live > 0.0 && live < 1.0e6, "peak RSS {live} MiB");
    }

    #[test]
    fn names_are_restricted_to_the_metric_charset() {
        for ok in ["setup_s", "fault.detect_yield.stuck", "atpg.podem_cpu_s.aborted", "a-b", "9x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "p50%", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn a_failed_check_is_a_failed_operation_not_an_abort() {
        let mut ledger = Ledger::default();
        ledger.op("job 1", true);
        ledger.op("digest matches", false);
        let caught = ledger.guarded("exploding op", || -> u32 { panic!("boom") });
        assert_eq!(caught, None);
        assert_eq!(ledger.guarded("fine op", || 5), Some(5));
        assert_eq!(ledger.attempted(), 3, "a passing guarded op is not counted by guarded");
        assert_eq!(ledger.failed(), 2);
        assert!(!ledger.correct());
        let line = ledger.result_json(&[("latency_ms", "ms")]);
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 2,"),
            "{line}"
        );
    }

    #[test]
    fn result_line_reports_exactly_the_named_metrics() {
        let mut ledger = Ledger::default();
        ledger.op("op", true);
        ledger.set("a_s", 1.25);
        ledger.set("unlisted", 3.0);
        ledger.set("n", 5.0);
        let line = ledger.result_json(&[("a_s", "s"), ("n", "count"), ("absent", "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"a_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"n\": {\"value\": 5, \"unit\": \"count\"}, \
             \"absent\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        ledger.set("bad", f64::NAN);
        let line = ledger.result_json(&[("bad", "s")]);
        assert!(line.contains("\"correct\": false"), "a NaN metric fails the run: {line}");
    }

    #[test]
    fn histogram_percentile_interpolates_within_the_bucket() {
        let h = lbist_obs::HistogramSnapshot {
            name: "h".into(),
            count: 4,
            sum: 0,
            // Bucket 3 covers [4, 7], bucket 5 covers [16, 31].
            buckets: vec![(3, 2), (5, 2)],
        };
        assert_eq!(histogram_percentile(&h, 0.5), Some(7.0));
        assert_eq!(histogram_percentile(&h, 0.25), Some(5.5));
        assert_eq!(histogram_percentile(&h, 1.0), Some(31.0));
        let empty = lbist_obs::HistogramSnapshot::default();
        assert_eq!(histogram_percentile(&empty, 0.5), None);
    }
}
