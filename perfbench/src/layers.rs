//! Layer instrumentation from outside the program: a timing
//! `CostBackend` for `EvalEngineBuilder::custom_backend`, a timing
//! `EventSink` for `Observer::new`, and direct timed calls into the public
//! functions of `space`, `spotlight`, `maestro`, `eval`, `runtime::store`
//! and `runtime::proto`.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spotlight::features::sw_features;
use spotlight::swsearch::sample_schedule_guided;
use spotlight_accel::HardwareConfig;
use spotlight_eval::{
    Aggregation, CostBackend, EvalEngine, EvalError, MaestroBackend, NoisePlan, RobustPolicy,
    SimBackend,
};
use spotlight_maestro::CostReport;
use spotlight_obs::{EventSink, Record};
use spotlight_runtime::{JobState, JobStatus, JobStore, Request, Response, RunSpec};
use spotlight_space::sample::sample_schedule;
use spotlight_space::Schedule;

use crate::Metrics;

/// Counters a [`TimedBackend`] shares with the benchmark.
#[derive(Default)]
pub struct BackendCounters {
    calls: AtomicU64,
    feasible: AtomicU64,
    busy_ns: AtomicU64,
}

impl BackendCounters {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Calls that returned a report rather than an error.
    pub fn feasible(&self) -> u64 {
        self.feasible.load(Ordering::Relaxed)
    }

    /// Backend time summed over every calling thread, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Times and counts every call into the wrapped cost backend.
pub struct TimedBackend {
    inner: Box<dyn CostBackend>,
    counters: Arc<BackendCounters>,
}

impl TimedBackend {
    pub fn new(inner: Box<dyn CostBackend>) -> (Self, Arc<BackendCounters>) {
        let counters = Arc::new(BackendCounters::default());
        let backend = TimedBackend {
            inner,
            counters: counters.clone(),
        };
        (backend, counters)
    }
}

impl CostBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn evaluate(
        &self,
        hw: &HardwareConfig,
        sched: &Schedule,
        layer: &spotlight_conv::ConvLayer,
    ) -> Result<CostReport, EvalError> {
        let start = Instant::now();
        let out = self.inner.evaluate(hw, sched, layer);
        let ns = start.elapsed().as_nanos() as u64;
        let c = &self.counters;
        c.busy_ns.fetch_add(ns, Ordering::Relaxed);
        c.calls.fetch_add(1, Ordering::Relaxed);
        if out.is_ok() {
            c.feasible.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// Times and counts every record an observer hands its sink.
pub struct TimingSink {
    inner: Arc<dyn EventSink>,
    records: AtomicU64,
    busy_ns: AtomicU64,
}

impl TimingSink {
    pub fn new(inner: Arc<dyn EventSink>) -> Self {
        TimingSink {
            inner,
            records: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl EventSink for TimingSink {
    fn record(&self, rec: &Record) {
        let start = Instant::now();
        self.inner.record(rec);
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.records.fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&self) {
        let start = Instant::now();
        self.inner.flush();
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Seconds `f` takes.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Direct calls sampled by the probes; enough per layer that one timer
/// read is small against the work it brackets.
const SAMPLES_PER_LAYER: usize = 40;
/// The sim backend costs about a millisecond per call on ResNet-50
/// layers, so it sees a prefix of the triples only.
const SIM_TRIPLES: usize = 120;

/// Times the sampling, feature, cost-model and engine layers on the
/// workload's unique layers and best hardware, with schedules drawn from
/// the guided proposal distribution the search itself uses.
pub fn probe_search_layers(spec: &RunSpec, hw: &HardwareConfig, seed: u64, m: &mut Metrics) {
    let layers: Vec<_> = {
        let mut seen = HashSet::new();
        spec.resolve_models()
            .expect("workload spec resolves")
            .iter()
            .flat_map(|model| model.layers().iter().map(|e| e.layer))
            .filter(|l| seen.insert(*l))
            .collect()
    };
    let n = layers.len() * SAMPLES_PER_LAYER;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let (triples, guided_s) = timed(|| {
        (0..n)
            .map(|i| {
                let layer = layers[i % layers.len()];
                (sample_schedule_guided(&mut rng, &layer, hw), layer)
            })
            .collect::<Vec<_>>()
    });
    m.put("space.sample_guided_us", guided_s / n as f64 * 1e6);
    let (uniform, uniform_s) = timed(|| {
        (0..n)
            .map(|i| sample_schedule(&mut rng, &layers[i % layers.len()]))
            .collect::<Vec<_>>()
    });
    std::hint::black_box(uniform);
    m.put("space.sample_uniform_us", uniform_s / n as f64 * 1e6);

    let (features, feat_s) = timed(|| {
        triples
            .iter()
            .map(|(s, l)| sw_features(hw, s, l).len())
            .sum::<usize>()
    });
    std::hint::black_box(features);
    m.put("spotlight.sw_features_us", feat_s / n as f64 * 1e6);

    let maestro = MaestroBackend::default();
    let (_, maestro_s) = timed(|| {
        for (s, l) in &triples {
            let _ = std::hint::black_box(maestro.evaluate(hw, s, l));
        }
    });
    m.put("maestro.analytical_eval_us", maestro_s / n as f64 * 1e6);
    let sim = SimBackend::default();
    let sim_n = SIM_TRIPLES.min(n);
    let (_, sim_s) = timed(|| {
        for (s, l) in &triples[..sim_n] {
            let _ = std::hint::black_box(sim.evaluate(hw, s, l));
        }
    });
    m.put("maestro.sim_eval_us", sim_s / sim_n as f64 * 1e6);

    // Engine overheads: everything `evaluate` spends outside the raw
    // backend, on distinct triples (all misses), then again (all hits).
    let distinct: Vec<_> = {
        let mut seen = HashSet::new();
        triples.into_iter().filter(|t| seen.insert(*t)).collect()
    };
    let d = distinct.len() as f64;
    let (backend, counters) = TimedBackend::new(Box::new(MaestroBackend::default()));
    let engine = EvalEngine::builder()
        .custom_backend(Box::new(backend))
        .build()
        .expect("plain maestro engine builds");
    let (_, miss_s) = timed(|| {
        for (s, l) in &distinct {
            let _ = std::hint::black_box(engine.evaluate(hw, s, l));
        }
    });
    m.put(
        "eval.miss_overhead_us",
        (miss_s - counters.busy_s()) / d * 1e6,
    );
    let (_, hit_s) = timed(|| {
        for (s, l) in &distinct {
            let _ = std::hint::black_box(engine.evaluate(hw, s, l));
        }
    });
    m.put("eval.hit_us", hit_s / d * 1e6);

    // The robust decorator as `sim_robust_t2` configures it: Gaussian
    // noise, three replicates, median aggregation.
    let (backend, counters) = TimedBackend::new(Box::new(MaestroBackend::default()));
    let noise: NoisePlan = format!("model=gauss,sigma=0.1,seed={seed}")
        .parse()
        .expect("noise spec parses");
    let robust = EvalEngine::builder()
        .custom_backend(Box::new(backend))
        .noise(Some(noise))
        .robust(RobustPolicy::replicated(3, Aggregation::Median))
        .build()
        .expect("robust engine builds");
    let (_, robust_s) = timed(|| {
        for (s, l) in &distinct {
            let _ = std::hint::black_box(robust.evaluate(hw, s, l));
        }
    });
    m.put(
        "eval.robust_overhead_us",
        (robust_s - counters.busy_s()) / d * 1e6,
    );
}

/// Store operations per timed sample; each one fsyncs.
const STORE_OPS: usize = 8;
/// Protocol frames encoded and decoded per timed sample.
const PROTO_FRAMES: usize = 2000;

/// Times the durable job store (create, WAL append, report commit) on a
/// temporary store under `dir`, and one submit/status protocol round
/// trip through the wire codec, for the workload's own spec and report.
pub fn probe_runtime_store(spec: &RunSpec, report: &str, dir: &Path, m: &mut Metrics) {
    let mut store = JobStore::open(dir).expect("temporary job store opens");
    let mut ids = Vec::with_capacity(STORE_OPS);
    let (_, create_s) = timed(|| {
        for _ in 0..STORE_OPS {
            ids.push(store.create(spec, None).expect("store create").0);
        }
    });
    m.put("runtime.store_create_ms", create_s / STORE_OPS as f64 * 1e3);
    let (_, wal_s) = timed(|| {
        for (i, id) in ids.iter().enumerate() {
            store
                .record_state(*id, JobState::Running, 1, i as u64)
                .expect("WAL append");
        }
    });
    m.put("runtime.wal_append_us", wal_s / STORE_OPS as f64 * 1e6);
    let (_, commit_s) = timed(|| {
        for id in &ids {
            store
                .record_completed(*id, report, 1.0, 1, spec.hw_samples as u64)
                .expect("report commit");
        }
    });
    m.put(
        "runtime.report_commit_ms",
        commit_s / STORE_OPS as f64 * 1e3,
    );

    let spec_line = spec.to_spec_string();
    let status = JobStatus {
        id: 1,
        state: JobState::Running,
        slices: 1,
        samples_done: 1,
        hw_samples: spec.hw_samples as u64,
        best_cost: Some(1.0),
        error: None,
    };
    let (_, proto_s) = timed(|| {
        for i in 0..PROTO_FRAMES as u64 {
            let req = Request::Submit {
                spec: spec_line.clone(),
                key: None,
            };
            let back = Request::parse_line(&req.to_line()).expect("request round trip");
            std::hint::black_box(back);
            let resp = Response::Status(JobStatus {
                id: i,
                ..status.clone()
            });
            let back = Response::parse_line(&resp.to_line()).expect("response round trip");
            std::hint::black_box(back);
        }
    });
    m.put(
        "runtime.proto_roundtrip_us",
        proto_s / PROTO_FRAMES as f64 * 1e6,
    );
}
