//! The repository benchmark: seeded co-design and serve workloads.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_robust_t2 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation in
//! the program; `--trace 1` makes a separate traced run that prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod codesign;
mod layers;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run: `(name, unit,
/// better)`. They must mean the same thing on every workload, so they
/// are stated per job: one `codesign` call, or one served job.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit, better)`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("space.sample_guided_us", "us", "lower"),
    ("space.sample_uniform_us", "us", "lower"),
    ("spotlight.sw_features_us", "us", "lower"),
    ("spotlight.sw_search_busy_s", "s", "lower"),
    ("spotlight.hw_search_busy_s", "s", "lower"),
    ("spotlight.layer_searches", "count", "lower"),
    ("spotlight.thread_speedup", "ratio", "higher"),
    ("dabo.acquisition_busy_s", "s", "lower"),
    ("dabo.surrogate_fit_busy_s", "s", "lower"),
    ("dabo.acquisition_share", "ratio", "lower"),
    ("maestro.analytical_eval_us", "us", "lower"),
    ("maestro.sim_eval_us", "us", "lower"),
    ("maestro.busy_share", "ratio", "lower"),
    ("maestro.feasible_ratio", "ratio", "higher"),
    ("eval.cache_hit_ratio", "ratio", "higher"),
    ("eval.hit_us", "us", "lower"),
    ("eval.miss_overhead_us", "us", "lower"),
    ("eval.robust_overhead_us", "us", "lower"),
    ("eval.replicates_per_miss", "ratio", "lower"),
    ("eval.outlier_ratio", "ratio", "lower"),
    ("obs.journal_append_us", "us", "lower"),
    ("obs.journal_records", "count", "lower"),
    ("obs.journal_bytes", "bytes", "lower"),
    ("obs.journal_share", "ratio", "lower"),
    ("runtime.submit_rtt_ms", "ms", "lower"),
    ("runtime.status_rtt_ms", "ms", "lower"),
    ("runtime.proto_roundtrip_us", "us", "lower"),
    ("runtime.queue_wait_ms", "ms", "lower"),
    ("runtime.submit_to_report_p50_ms", "ms", "lower"),
    ("runtime.submit_to_report_p90_ms", "ms", "lower"),
    ("runtime.wal_append_us", "us", "lower"),
    ("runtime.store_create_ms", "ms", "lower"),
    ("runtime.report_commit_ms", "ms", "lower"),
    ("runtime.slices_per_job", "count", "lower"),
    ("runtime.busy_rejects", "count", "lower"),
    ("search.backend_evals", "count", "lower"),
    ("search.best_edp", "cycle.nJ", "lower"),
    ("search.samples_to_target", "count", "lower"),
    ("bench.tracing_overhead_s", "s", "lower"),
    ("bench.failed_ops_ratio", "ratio", "lower"),
    ("bench.peak_rss_mb", "MiB", "lower"),
];

/// Every workload (each is described in `BENCHMARK.json` and README.md).
pub const WORKLOADS: &[&str] = &["sim_robust_t2", "serve_mix"];

/// Metric values collected by one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both tables: a typo here would
    /// otherwise only surface as an incomplete report.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(n, _, _)| *n == name),
            "metric {name} is not in the benchmark's tables"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What a run hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed checks, one line each.
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one attempted operation, failed when `check` is an error.
    pub fn check(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.fail(e);
        }
    }

    /// Records a failed check that is not an operation of its own (a
    /// counter cross-check).
    pub fn fail(&mut self, error: String) {
        self.errors.push(error);
    }

    fn failed(&self) -> u64 {
        self.errors.len() as u64
    }

    /// Closes a traced run: failed, refused or mismatching operations
    /// over those attempted, and the process's peak resident memory.
    pub fn finish_trace(&mut self) {
        let ratio = self.failed() as f64 / self.attempted.max(1) as f64;
        self.metrics.put("bench.failed_ops_ratio", ratio);
        self.metrics.put("bench.peak_rss_mb", peak_rss_mb());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A scratch directory under the checkout, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> std::io::Result<Scratch> {
        let dir = std::env::current_dir()?
            .join(".bench_scratch")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Prints a timing's median, quartiles and sample count on stderr.
pub fn describe(label: &str, xs: &[f64]) {
    if xs.is_empty() {
        eprintln!("{label}: no samples");
        return;
    }
    let (q1, q3) = if xs.len() >= 2 {
        stats::quartiles(xs)
    } else {
        (xs[0], xs[0])
    };
    eprintln!(
        "{label}: median {:.6} q1 {q1:.6} q3 {q3:.6} n {}",
        stats::median(xs),
        xs.len()
    );
}

/// Renders the result line, refusing a metric set that does not match
/// the table for this mode or holds a non-finite value.
fn render(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit, _) in table {
        if !stats::valid_name(name) {
            return Err(format!("metric name {name:?} breaks the naming rule"));
        }
        let v = outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = outcome
        .metrics
        .0
        .keys()
        .find(|k| !table.iter().any(|(n, _, _)| n == *k))
    {
        return Err(format!("metric {extra} does not belong to this mode"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty() && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed(),
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::new(&args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create scratch directory: {e}");
            return ExitCode::from(1);
        }
    };
    // Every journal manifest stamps `git describe`, computed once per
    // process by running git; pay that before anything is timed.
    spotlight_obs::git_describe();
    let result = match (args.workload.as_str(), args.trace) {
        ("serve_mix", false) => serve::measure(args.seed, args.seconds, &scratch),
        ("serve_mix", true) => serve::trace(args.seed, args.seconds, &scratch),
        (name, false) => codesign::measure(name, args.seed, args.seconds, &scratch),
        (name, true) => codesign::trace(name, args.seed, &scratch),
    };
    drop(scratch);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    match render(&outcome, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn benchmark_json() -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json is readable")
    }

    /// `(name, unit, better)` of every object in one array of
    /// `BENCHMARK.json`. The file is flat enough that scanning for the
    /// array's brackets and each object's braces is a complete parse.
    fn declared(section: &str) -> Vec<(String, String, String)> {
        let text = benchmark_json();
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("section {section} missing"));
        let open = start + text[start..].find('[').expect("array opens");
        let close = open + text[open..].find(']').expect("array closes");
        let field = |obj: &str, key: &str| {
            let k = obj
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("{key} missing in {obj}"));
            let rest = &obj[k + key.len() + 2..];
            let rest = &rest[rest.find('"').expect("value opens") + 1..];
            rest[..rest.find('"').expect("value closes")].to_string()
        };
        text[open + 1..close]
            .split('}')
            .filter(|o| o.contains('{'))
            .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
            .collect()
    }

    fn owned(table: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn declared_workloads_match() {
        let text = benchmark_json();
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        assert_eq!(text.matches("\"why\"").count(), WORKLOADS.len());
    }

    #[test]
    fn every_name_is_legal_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _, _)| *n)
            .chain(WORKLOADS.iter().copied())
            .collect();
        for n in &names {
            assert!(stats::valid_name(n), "{n}");
        }
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn render_refuses_missing_and_foreign_metrics() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for (n, _, _) in END_TO_END {
            o.metrics.put(n, 1.5);
        }
        let line = render(&o, false).expect("complete set renders");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(
            render(&o, true).is_err(),
            "end-to-end set is not the traced set"
        );
        o.metrics.put("run_s", f64::NAN);
        assert!(render(&o, false).is_err());
    }

    #[test]
    fn arguments_are_validated() {
        let ok: Vec<String> = "--workload sim_robust_t2 --seed 3 --seconds 5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&ok).expect("valid arguments");
        assert!(a.trace && a.seed == 3 && a.seconds == 5.0);
        for bad in [
            "--workload nope --seed 3 --seconds 5 --trace 1",
            "--workload sim_robust_t2 --seed 3 --seconds 0 --trace 1",
            "--workload sim_robust_t2 --seed 3 --seconds 5 --trace 2",
            "--workload sim_robust_t2 --seconds 5 --trace 1",
        ] {
            let v: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&v).is_err(), "{bad}");
        }
    }
}
