//! The one-shot co-design workload, `sim_robust_t2`.
//!
//! Each measured job is one `Spotlight::codesign` call on a spec built
//! from the run seed, through the same engine and observer construction
//! the one-shot runner uses. The traced run repeats one job with a timing
//! backend and a timing journal sink at one and two threads, checks the
//! reports against the untraced ones byte for byte, and cross-checks the
//! outside counters against the engine's own.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use spotlight::codesign::{CodesignOutcome, RunStatus, Spotlight};
use spotlight::report::final_report;
use spotlight_eval::{backend_by_name, EvalEngine};
use spotlight_models::Model;
use spotlight_obs::{JournalWriter, Observer};
use spotlight_runtime::{build_observer, RunSpec};

use crate::layers::{self, timed, BackendCounters, TimedBackend, TimingSink};
use crate::{describe, stats, Outcome, Scratch};

/// One co-design workload.
pub struct Workload {
    /// Spec flags; the job seed (and the noise seed) are appended.
    flags: &'static str,
    /// Whether the backend is noisy (`gauss`, sigma 0.1, seeded per job).
    noisy: bool,
    /// Whether the job writes the one-shot journal.
    journal: bool,
    /// Best-so-far EDP that `search.samples_to_target` counts hardware
    /// samples up to. Fixed per workload so the count compares across
    /// commits; about the median best EDP these budgets reach.
    target_edp: f64,
}

/// ResNet-50 at edge ranges on the simulator, noisy and replicated, at
/// two threads with a journal: the cost model and robust decorator
/// dominate.
const SIM_ROBUST_T2: Workload = Workload {
    flags: "--model resnet50 --scale edge --backend sim --variant spotlight \
            --hw 4 --sw 12 --threads 2 --replicates 3 --robust-agg median",
    noisy: true,
    journal: true,
    target_edp: 3.0e14,
};

fn workload(name: &str) -> &'static Workload {
    match name {
        "sim_robust_t2" => &SIM_ROBUST_T2,
        other => unreachable!("{other} is not a co-design workload"),
    }
}

impl Workload {
    fn spec(&self, job_seed: u64) -> RunSpec {
        let mut flags = format!("{} --seed {job_seed}", self.flags);
        if self.noisy {
            flags.push_str(&format!(" --noise model=gauss,sigma=0.1,seed={job_seed}"));
        }
        RunSpec::parse_str(&flags).expect("workload spec parses")
    }
}

/// Job `i` of the run seeded `seed` gets its own search seed.
fn job_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i)
}

/// Set-ups timed per run; the median is reported.
const SETUP_REPS: u64 = 31;
/// Jobs per run at the least, however short `--seconds` is.
const MIN_JOBS: usize = 3;

/// A job ready to run: models resolved, engine and observer built.
struct Prepared {
    models: Vec<Model>,
    tool: Spotlight,
}

/// Builds what the one-shot runner builds before it calls `codesign`.
fn prepare(spec: &RunSpec, journal: Option<&Path>) -> Result<Prepared, String> {
    let models = spec.resolve_models().map_err(|e| e.to_string())?;
    let cfg = spec.to_codesign_config().map_err(|e| e.to_string())?;
    let engine = spec.build_engine().map_err(|e| e.to_string())?;
    let journal = journal.map(|p| p.to_str().expect("scratch paths are UTF-8"));
    let observer = build_observer(journal, false).map_err(|e| e.to_string())?;
    Ok(Prepared {
        models,
        tool: Spotlight::with_engine(cfg, engine).with_observer(observer),
    })
}

impl Prepared {
    fn run(&self) -> (CodesignOutcome, f64) {
        let out = timed(|| self.tool.codesign(&self.models));
        self.tool.observer().flush();
        out
    }
}

/// Checks one outcome against the spec and against a fresh evaluation
/// of the chosen plans by the raw backend: complete, exactly accounted,
/// and the best cost is the product of the plans' summed delay and
/// energy.
pub fn check_outcome(spec: &RunSpec, o: &CodesignOutcome) -> Result<(), String> {
    if o.status != RunStatus::Complete {
        return Err(format!("run ended {}", o.status.as_str()));
    }
    let hw = o.best_hw.ok_or("no feasible design")?;
    if o.hw_history.len() != spec.hw_samples {
        return Err(format!(
            "{} hardware samples, not {}",
            o.hw_history.len(),
            spec.hw_samples
        ));
    }
    let s = &o.stats;
    if o.evaluations != s.sw_searches * spec.sw_samples as u64
        || s.evaluations != s.cache_hits + s.cache_misses
    {
        return Err(format!("evaluation accounting is off: {s:?}"));
    }
    let raw = backend_by_name(&spec.backend).map_err(|e| e.to_string())?;
    let mut total = 0.0;
    for plan in &o.best_plans {
        let (mut delay, mut energy) = (0.0, 0.0);
        for lp in &plan.layers {
            let fresh = raw
                .evaluate(&hw, &lp.schedule, &lp.layer)
                .map_err(|e| format!("chosen schedule is infeasible: {e}"))?;
            // Noise moves delay and energy but not feasibility; a median
            // of three replicates at sigma 0.1 stays well inside half.
            let close = |a: f64, b: f64| (a / b - 1.0).abs() < 0.5;
            let same = if spec.noise.is_some() {
                close(lp.report.delay_cycles, fresh.delay_cycles)
                    && close(lp.report.energy_nj, fresh.energy_nj)
            } else {
                lp.report == fresh
            };
            if !same {
                return Err(format!("plan for {} does not re-evaluate", lp.layer));
            }
            delay += lp.report.delay_cycles * lp.count as f64;
            energy += lp.report.energy_nj * lp.count as f64;
        }
        if delay != plan.total_delay || energy != plan.total_energy {
            return Err(format!("{} totals do not add up", plan.model_name.as_str()));
        }
        total += delay * energy;
    }
    if total != o.best_cost {
        return Err(format!(
            "best cost {} is not the plans' EDP {total}",
            o.best_cost
        ));
    }
    Ok(())
}

/// The untraced run: set-up timed `SETUP_REPS` times, then jobs back to
/// back until `seconds` have passed. Each job uses the workload's own
/// threads; jobs never overlap.
pub fn measure(name: &str, seed: u64, seconds: f64, scratch: &Scratch) -> Result<Outcome, String> {
    let w = workload(name);
    let journal = w.journal.then(|| scratch.path("journal.jsonl"));
    let journal = journal.as_deref();
    let mut setup = Vec::new();
    for i in 0..SETUP_REPS {
        let (prepared, secs) = timed(|| prepare(&w.spec(job_seed(seed, i)), journal));
        prepared?;
        setup.push(secs);
    }
    let mut out = Outcome::default();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        let spec = w.spec(job_seed(seed, times.len() as u64));
        let (outcome, secs) = prepare(&spec, journal)?.run();
        times.push(secs);
        out.check(check_outcome(&spec, &outcome));
    }
    let wall = start.elapsed().as_secs_f64();
    describe("setup_s", &setup);
    describe("run_s", &times);
    out.metrics.put("setup_s", stats::median(&setup));
    out.metrics.put("run_s", stats::median(&times));
    out.metrics.put("jobs_per_s", times.len() as f64 / wall);
    Ok(out)
}

/// The traced run of a co-design workload.
pub fn trace(name: &str, seed: u64, scratch: &Scratch) -> Result<Outcome, String> {
    let w = workload(name);
    let mut out = Outcome::default();
    let spec = w.spec(job_seed(seed, 0));
    trace_codesign(&spec, w.journal, w.target_edp, seed, scratch, &mut out)?;
    crate::serve::probe_serve(seed, scratch, &mut out)?;
    out.finish_trace();
    Ok(out)
}

/// One job run with the timing backend and the timing journal sink.
struct Traced {
    outcome: CodesignOutcome,
    secs: f64,
    backend: Arc<BackendCounters>,
    sink: Arc<TimingSink>,
    journal_lines: u64,
    journal_bytes: u64,
}

fn run_traced(spec: &RunSpec, journal: &Path) -> Result<Traced, String> {
    let models = spec.resolve_models().map_err(|e| e.to_string())?;
    let cfg = spec.to_codesign_config().map_err(|e| e.to_string())?;
    let inner = backend_by_name(&spec.backend).map_err(|e| e.to_string())?;
    let (backend, counters) = TimedBackend::new(inner);
    // The composition order of `RunSpec::build_engine`, with the timing
    // wrapper as the innermost backend.
    let engine = EvalEngine::builder()
        .custom_backend(Box::new(backend))
        .faults(spec.fault_plan())
        .noise(spec.noise_plan())
        .robust(spec.robust_policy())
        .fidelity(spec.fidelity_spec())
        .build()
        .map_err(|e| e.to_string())?;
    let writer = JournalWriter::create(journal).map_err(|e| e.to_string())?;
    let sink = Arc::new(TimingSink::new(Arc::new(writer)));
    let tool = Spotlight::with_engine(cfg, engine).with_observer(Observer::new(sink.clone()));
    let (outcome, secs) = timed(|| tool.codesign(&models));
    tool.observer().flush();
    let bytes = std::fs::read(journal).map_err(|e| e.to_string())?;
    Ok(Traced {
        outcome,
        secs,
        backend: counters,
        sink,
        journal_lines: bytes.iter().filter(|b| **b == b'\n').count() as u64,
        journal_bytes: bytes.len() as u64,
    })
}

/// Compares the outside counters with the program's own.
fn cross_check(spec: &RunSpec, label: &str, t: &Traced, out: &mut Outcome) {
    let s = &t.outcome.stats;
    let calls = t.backend.calls();
    let feasible = t.backend.feasible();
    // A replicated miss measures every replicate of a feasible point but
    // stops at the first call of an infeasible one, which the engine does
    // not count as a replicate measurement.
    let ok = if spec.replicates > 1 {
        feasible == s.replicate_measurements && calls - feasible <= s.cache_misses
    } else {
        calls == s.cache_misses
    };
    if !ok {
        out.fail(format!(
            "{label}: backend wrapper saw {calls} calls ({feasible} feasible), engine counted \
             {} misses and {} replicate measurements",
            s.cache_misses, s.replicate_measurements
        ));
    }
    let records = t.sink.records();
    if records != t.journal_lines {
        out.fail(format!(
            "{label}: sink saw {records} records, journal holds {} lines",
            t.journal_lines
        ));
    }
}

fn phase_s(o: &CodesignOutcome, phase: &str) -> f64 {
    o.stats
        .phase_wall
        .iter()
        .find(|(p, _)| p == phase)
        .map_or(0.0, |(_, d)| d.as_secs_f64())
}

/// Hardware samples until the best-so-far EDP reaches `target`; the
/// budget plus one when it never does.
fn samples_to_target(o: &CodesignOutcome, target: f64) -> f64 {
    o.eval_trace
        .iter()
        .position(|(_, best)| *best <= target)
        .map_or(o.eval_trace.len() + 1, |i| i + 1) as f64
}

/// Traces one job of `spec` and probes the search and store layers on
/// its inputs. Runs the job four times: untraced and traced, each at one
/// and two threads. Every report must be byte-identical; the phase
/// timers come from the one-thread traced run, where busy time is wall
/// time.
pub fn trace_codesign(
    spec: &RunSpec,
    journal: bool,
    target_edp: f64,
    seed: u64,
    scratch: &Scratch,
    out: &mut Outcome,
) -> Result<(), String> {
    let at = |threads: usize| RunSpec {
        threads,
        ..spec.clone()
    };
    let untraced_journal = scratch.path("untraced.jsonl");
    let untraced = |threads: usize| -> Result<(CodesignOutcome, f64), String> {
        let journal = journal.then_some(untraced_journal.as_path());
        Ok(prepare(&at(threads), journal)?.run())
    };
    let (u1, u1_s) = untraced(1)?;
    let (u2, u2_s) = untraced(2)?;
    let t1 = run_traced(&at(1), &scratch.path("traced1.jsonl"))?;
    let t2 = run_traced(&at(2), &scratch.path("traced2.jsonl"))?;

    let objective = spec.objective;
    let reference = final_report(&u1, objective);
    out.check(check_outcome(spec, &u1));
    for (label, o) in [
        ("untraced 2-thread", &u2),
        ("traced 1-thread", &t1.outcome),
        ("traced 2-thread", &t2.outcome),
    ] {
        out.check(if final_report(o, objective) == reference {
            Ok(())
        } else {
            Err(format!(
                "{label} report differs from the untraced 1-thread report"
            ))
        });
    }
    cross_check(spec, "traced 1-thread", &t1, out);
    cross_check(spec, "traced 2-thread", &t2, out);

    let (t_main, u_main_s) = if spec.threads == 1 {
        (&t1, u1_s)
    } else {
        (&t2, u2_s)
    };
    let o1 = &t1.outcome;
    let s1 = &o1.stats;
    let calls1 = t1.backend.calls() as f64;
    let m = &mut out.metrics;
    let sw = phase_s(o1, "sw_search");
    let acquisition = phase_s(o1, "acquisition");
    m.put("spotlight.sw_search_busy_s", sw);
    m.put("spotlight.hw_search_busy_s", phase_s(o1, "hw_search"));
    m.put("spotlight.layer_searches", s1.sw_searches as f64);
    m.put("spotlight.thread_speedup", u1_s / u2_s);
    m.put("dabo.acquisition_busy_s", acquisition);
    m.put("dabo.surrogate_fit_busy_s", phase_s(o1, "surrogate_fit"));
    m.put("dabo.acquisition_share", acquisition / sw);
    m.put("maestro.busy_share", t_main.backend.busy_s() / t_main.secs);
    m.put(
        "maestro.feasible_ratio",
        t1.backend.feasible() as f64 / calls1,
    );
    m.put("eval.cache_hit_ratio", s1.hit_rate());
    m.put("eval.replicates_per_miss", calls1 / s1.cache_misses as f64);
    m.put("eval.outlier_ratio", s1.outliers_rejected as f64 / calls1);
    let records = t_main.sink.records() as f64;
    m.put(
        "obs.journal_append_us",
        t_main.sink.busy_s() / records * 1e6,
    );
    m.put("obs.journal_records", records);
    m.put("obs.journal_bytes", t_main.journal_bytes as f64);
    m.put("obs.journal_share", t_main.sink.busy_s() / t_main.secs);
    m.put("search.backend_evals", calls1);
    m.put("search.best_edp", u1.best_cost);
    m.put(
        "search.samples_to_target",
        samples_to_target(&u1, target_edp),
    );
    m.put("bench.tracing_overhead_s", t_main.secs - u_main_s);
    eprintln!(
        "traced {}: untraced 1/2 threads {u1_s:.3}/{u2_s:.3} s, traced {:.3}/{:.3} s",
        spec.models.join(","),
        t1.secs,
        t2.secs
    );

    let hw = u1.best_hw.ok_or("no feasible design to probe")?;
    layers::probe_search_layers(spec, &hw, seed, m);
    layers::probe_runtime_store(spec, &reference, &scratch.path("store"), m);
    Ok(())
}
