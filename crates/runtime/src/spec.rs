//! The validated description of one co-design run.
//!
//! [`RunSpec`] is the single parser for every search-shaping knob the
//! system accepts — CLI flags (`spotlight codesign --noise ...`),
//! `submit` requests on the serve socket, and journal manifests all
//! funnel through it, so there is exactly one error type and one set of
//! validation rules. Front ends strip their own flags (`--journal`,
//! `--out`, ...) and hand the rest to [`RunSpec::parse_args`].

use std::fmt;
use std::time::Duration;

use spotlight::codesign::{CodesignConfig, ConfigError};
use spotlight::Variant;
use std::sync::Arc;

use spotlight_eval::{
    backend_by_name, Aggregation, EvalEngine, FaultPlan, FidelitySpec, GlobalEvalStats, NoisePlan,
    RobustPolicy, SharedCache, UnknownBackend,
};
use spotlight_maestro::Objective;
use spotlight_models::{all_models, Model};
use spotlight_obs::RunManifest;

/// A spec-string or spec-flag validation error, with a user-facing
/// message (the same wording the CLI has always printed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<UnknownBackend> for SpecError {
    fn from(e: UnknownBackend) -> Self {
        SpecError(e.to_string())
    }
}

/// Everything that shapes one co-design run: models, search knobs, the
/// evaluation backend and its failure/noise configuration. A `RunSpec`
/// is frontend-neutral — the CLI and the serve protocol both build one
/// — and everything needed to construct the [`CodesignConfig`] and the
/// [`EvalEngine`] comes from it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Model names to co-design for (resolved lazily via
    /// [`resolve_model`]).
    pub models: Vec<String>,
    /// Hardware samples.
    pub hw_samples: usize,
    /// Software samples per layer.
    pub sw_samples: usize,
    /// Objective to minimize.
    pub objective: Objective,
    /// Edge or cloud scale.
    pub cloud: bool,
    /// Search variant.
    pub variant: Variant,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the per-layer software search.
    pub threads: usize,
    /// Cost backend to evaluate through; validated against
    /// [`backend_by_name`] at parse time so the error always lists
    /// exactly the backends the engine knows.
    pub backend: String,
    /// Fault-injection spec (validated against [`FaultPlan`] at parse
    /// time), `None` for a clean backend.
    pub faults: Option<String>,
    /// Measurement-noise spec (validated against [`NoisePlan`] at parse
    /// time), `None` for a noiseless backend.
    pub noise: Option<String>,
    /// Measurements per evaluated point; 1 disables replication.
    pub replicates: usize,
    /// How surviving replicates collapse into one report.
    pub robust_agg: Aggregation,
    /// Multi-fidelity ladder spec (validated against [`FidelitySpec`]
    /// at parse time), `None` for full-fidelity evaluation.
    pub fidelity: Option<String>,
    /// Memo-cache entry cap; `None` keeps the cache unbounded.
    pub cache_cap: Option<usize>,
    /// Wall-clock budget in seconds; past it the run returns
    /// best-so-far as degraded.
    pub deadline_secs: Option<u64>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            models: Vec::new(),
            hw_samples: 20,
            sw_samples: 30,
            objective: Objective::Edp,
            cloud: false,
            variant: Variant::Spotlight,
            seed: 0,
            threads: 1,
            backend: "maestro".to_string(),
            faults: None,
            noise: None,
            replicates: 1,
            robust_agg: Aggregation::default(),
            fidelity: None,
            cache_cap: None,
            deadline_secs: None,
        }
    }
}

fn parse_num(flag: &str, v: &str) -> Result<usize, SpecError> {
    v.parse()
        .map_err(|_| SpecError(format!("flag `{flag}` needs an integer, got `{v}`")))
}

impl RunSpec {
    /// Parses a flag sequence (`--model x --hw 4 ...`) into a spec.
    /// Every flag is validated as it is consumed — backends through the
    /// engine, fault/noise specs through their plan parsers — so the
    /// error message always comes from the component that owns the
    /// concept.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending flag or value.
    pub fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<RunSpec, SpecError> {
        let mut spec = RunSpec::default();
        let args: Vec<&str> = args.iter().map(|s| s.as_ref()).collect();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i];
            let value = |i: usize| -> Result<&str, SpecError> {
                args.get(i + 1)
                    .copied()
                    .ok_or_else(|| SpecError(format!("flag `{flag}` needs a value")))
            };
            match flag {
                "--model" | "--models" => {
                    for m in value(i)?.split(',') {
                        spec.models.push(m.trim().to_string());
                    }
                    i += 2;
                }
                "--hw" => {
                    spec.hw_samples = parse_num(flag, value(i)?)?;
                    i += 2;
                }
                "--sw" => {
                    spec.sw_samples = parse_num(flag, value(i)?)?;
                    i += 2;
                }
                "--seed" => {
                    spec.seed = parse_num(flag, value(i)?)? as u64;
                    i += 2;
                }
                "--objective" => {
                    spec.objective = match value(i)? {
                        "edp" | "EDP" => Objective::Edp,
                        "delay" => Objective::Delay,
                        other => {
                            return Err(SpecError(format!(
                                "unknown objective `{other}` (edp|delay)"
                            )))
                        }
                    };
                    i += 2;
                }
                "--scale" => {
                    spec.cloud = match value(i)? {
                        "edge" => false,
                        "cloud" => true,
                        other => {
                            return Err(SpecError(format!("unknown scale `{other}` (edge|cloud)")))
                        }
                    };
                    i += 2;
                }
                "--variant" => {
                    spec.variant = parse_variant(value(i)?)?;
                    i += 2;
                }
                "--threads" => {
                    let n = parse_num(flag, value(i)?)?;
                    if n == 0 {
                        return Err(SpecError(
                            "flag `--threads` needs a positive integer".into(),
                        ));
                    }
                    spec.threads = n;
                    i += 2;
                }
                "--backend" => {
                    let name = value(i)?;
                    // Validate through the engine itself so the message
                    // always lists exactly the backends it resolves.
                    backend_by_name(name)?;
                    spec.backend = name.to_string();
                    i += 2;
                }
                "--faults" => {
                    let raw = value(i)?;
                    // Validate through the fault plan itself so the
                    // message names the offending field; store the
                    // canonicalized form.
                    let plan = raw
                        .parse::<FaultPlan>()
                        .map_err(|e| SpecError(e.to_string()))?;
                    spec.faults = Some(plan.to_string());
                    i += 2;
                }
                "--noise" => {
                    let raw = value(i)?;
                    // Likewise through the noise plan.
                    let plan = raw
                        .parse::<NoisePlan>()
                        .map_err(|e| SpecError(e.to_string()))?;
                    spec.noise = Some(plan.to_string());
                    i += 2;
                }
                "--replicates" => {
                    let n = parse_num(flag, value(i)?)?;
                    if n == 0 {
                        return Err(SpecError(
                            "flag `--replicates` needs a positive integer".into(),
                        ));
                    }
                    spec.replicates = n;
                    i += 2;
                }
                "--robust-agg" => {
                    spec.robust_agg = value(i)?
                        .parse::<Aggregation>()
                        .map_err(|e| SpecError(e.to_string()))?;
                    i += 2;
                }
                "--fidelity" => {
                    let raw = value(i)?;
                    // Likewise through the fidelity spec parser; store
                    // the canonicalized form.
                    let plan = raw
                        .parse::<FidelitySpec>()
                        .map_err(|e| SpecError(e.to_string()))?;
                    spec.fidelity = Some(plan.to_string());
                    i += 2;
                }
                "--cache-cap" => {
                    spec.cache_cap = Some(parse_num(flag, value(i)?)?);
                    i += 2;
                }
                "--deadline" => {
                    spec.deadline_secs = Some(parse_num(flag, value(i)?)? as u64);
                    i += 2;
                }
                other => {
                    return Err(SpecError(format!("unknown flag `{other}`")));
                }
            }
        }
        Ok(spec)
    }

    /// Parses a whitespace-separated spec string — the form `submit`
    /// requests carry on the wire.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending flag or value.
    pub fn parse_str(spec: &str) -> Result<RunSpec, SpecError> {
        let tokens: Vec<&str> = spec.split_whitespace().collect();
        RunSpec::parse_args(&tokens)
    }

    /// Rebuilds the spec a journal manifest describes, so `resume` and
    /// the scheduler's slice recovery share the CLI's validation path.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the manifest names an unknown
    /// objective, scale, variant, backend, or aggregation.
    pub fn from_manifest(manifest: &RunManifest) -> Result<RunSpec, SpecError> {
        let objective = match manifest.objective.as_str() {
            "edp" | "" => Objective::Edp,
            "delay" => Objective::Delay,
            other => {
                return Err(SpecError(format!(
                    "manifest has unknown objective `{other}`"
                )))
            }
        };
        let cloud = match manifest.scale.as_str() {
            "edge" | "" => false,
            "cloud" => true,
            other => {
                return Err(SpecError(format!(
                    "manifest has scale `{other}`; only edge/cloud runs can be resumed"
                )))
            }
        };
        let variant = parse_variant(&manifest.variant).map_err(|_| {
            SpecError(format!(
                "manifest has unknown variant `{}`",
                manifest.variant
            ))
        })?;
        // One replicate needs no aggregation, so old manifests with an
        // empty robust_agg field resume cleanly.
        let robust_agg = if manifest.replicates <= 1 {
            Aggregation::default()
        } else {
            manifest
                .robust_agg
                .parse::<Aggregation>()
                .map_err(|e| SpecError(e.to_string()))?
        };
        // Round manifest specs through their parsers so a corrupted
        // journal fails here, not mid-run.
        let faults = match manifest.faults.as_str() {
            "" => None,
            spec => Some(
                spec.parse::<FaultPlan>()
                    .map_err(|e| SpecError(e.to_string()))?
                    .to_string(),
            ),
        };
        let noise = match manifest.noise.as_str() {
            "" => None,
            spec => Some(
                spec.parse::<NoisePlan>()
                    .map_err(|e| SpecError(e.to_string()))?
                    .to_string(),
            ),
        };
        let fidelity = match manifest.fidelity.as_str() {
            "" => None,
            spec => Some(
                spec.parse::<FidelitySpec>()
                    .map_err(|e| SpecError(e.to_string()))?
                    .to_string(),
            ),
        };
        backend_by_name(&manifest.backend)?;
        Ok(RunSpec {
            models: manifest
                .models
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.to_string())
                .collect(),
            hw_samples: manifest.hw_samples as usize,
            sw_samples: manifest.sw_samples as usize,
            objective,
            cloud,
            variant,
            seed: manifest.seed,
            threads: (manifest.threads as usize).max(1),
            backend: manifest.backend.clone(),
            faults,
            noise,
            replicates: (manifest.replicates as usize).max(1),
            robust_agg,
            fidelity,
            cache_cap: None,
            deadline_secs: None,
        })
    }

    /// Converts into the library configuration.
    ///
    /// # Errors
    ///
    /// Propagates the builder's [`ConfigError`] (zero samples/threads —
    /// scale/budget mismatches cannot arise from parsed specs).
    pub fn to_codesign_config(&self) -> Result<CodesignConfig, ConfigError> {
        let base = if self.cloud {
            CodesignConfig::cloud()
        } else {
            CodesignConfig::edge()
        };
        base.hw_samples(self.hw_samples)
            .sw_samples(self.sw_samples)
            .objective(self.objective)
            .variant(self.variant)
            .seed(self.seed)
            .threads(self.threads.max(1))
            .deadline(self.deadline_secs.map(Duration::from_secs))
            .build()
    }

    /// The parsed fault plan, `None` when faults are disabled.
    ///
    /// # Panics
    ///
    /// Never for specs built by the parsers above, which validate the
    /// spec up front; a hand-built invalid spec panics here.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults
            .as_deref()
            .map(|spec| spec.parse().expect("spec validated at parse time"))
    }

    /// The parsed noise plan, `None` when the backend is noiseless.
    ///
    /// # Panics
    ///
    /// Never for specs built by the parsers above, which validate the
    /// spec up front; a hand-built invalid spec panics here.
    pub fn noise_plan(&self) -> Option<NoisePlan> {
        self.noise
            .as_deref()
            .map(|spec| spec.parse().expect("spec validated at parse time"))
    }

    /// The parsed fidelity ladder, `None` for full-fidelity evaluation.
    ///
    /// # Panics
    ///
    /// Never for specs built by the parsers above, which validate the
    /// spec up front; a hand-built invalid spec panics here.
    pub fn fidelity_spec(&self) -> Option<FidelitySpec> {
        self.fidelity
            .as_deref()
            .map(|spec| spec.parse().expect("spec validated at parse time"))
    }

    /// The replicated-measurement policy the spec describes. One
    /// replicate yields the single-shot default policy so noise-free
    /// runs stay on the historical evaluation path.
    pub fn robust_policy(&self) -> RobustPolicy {
        if self.replicates <= 1 {
            RobustPolicy::default()
        } else {
            RobustPolicy::replicated(self.replicates, self.robust_agg)
        }
    }

    /// Builds the fully configured evaluation engine the spec describes
    /// (backend, faults, noise, robustness, fidelity, cache cap),
    /// through the canonical [`EvalEngine::builder`] composition order.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for an unknown backend or an invalid
    /// combination (e.g. a backend-mode ladder whose cheap backend is
    /// the primary backend).
    pub fn build_engine(&self) -> Result<EvalEngine, SpecError> {
        self.build_shared_engine(None, None)
    }

    /// Like [`RunSpec::build_engine`], attaching the serve layer's
    /// `shared` cache and `global` counter mirror when given. The shared
    /// cache replaces the spec's own cache cap rather than stacking on
    /// it: the scheduler creates each shared cache with that cap already.
    pub(crate) fn build_shared_engine(
        &self,
        shared: Option<&SharedCache>,
        global: Option<Arc<GlobalEvalStats>>,
    ) -> Result<EvalEngine, SpecError> {
        let mut builder = EvalEngine::builder()
            .backend(&self.backend)
            .faults(self.fault_plan())
            .noise(self.noise_plan())
            .robust(self.robust_policy())
            .fidelity(self.fidelity_spec());
        builder = match (shared, self.cache_cap) {
            (Some(cache), _) => builder.shared_cache(cache),
            (None, Some(cap)) => builder.cache_cap(cap),
            (None, None) => builder,
        };
        if let Some(global) = global {
            builder = builder.global_stats(global);
        }
        builder.build().map_err(|e| SpecError(e.to_string()))
    }

    /// Renders the spec back into the canonical flag string
    /// [`RunSpec::parse_str`] accepts — the form the durable job store
    /// persists, so a daemon restart re-validates every recovered job
    /// through exactly the submit path. Every field is spelled out
    /// explicitly (no reliance on defaults), and
    /// `RunSpec::parse_str(&spec.to_spec_string()) == spec` holds for
    /// any spec the parsers produce.
    pub fn to_spec_string(&self) -> String {
        let mut out = format!(
            "--model {} --hw {} --sw {} --objective {} --scale {} --variant {} \
             --seed {} --threads {} --backend {}",
            self.models.join(","),
            self.hw_samples,
            self.sw_samples,
            match self.objective {
                Objective::Edp => "edp",
                Objective::Delay => "delay",
            },
            if self.cloud { "cloud" } else { "edge" },
            self.variant.name().to_ascii_lowercase(),
            self.seed,
            self.threads,
            self.backend,
        );
        if let Some(faults) = &self.faults {
            out.push_str(&format!(" --faults {faults}"));
        }
        if let Some(noise) = &self.noise {
            out.push_str(&format!(" --noise {noise}"));
        }
        out.push_str(&format!(
            " --replicates {} --robust-agg {}",
            self.replicates, self.robust_agg
        ));
        if let Some(fidelity) = &self.fidelity {
            out.push_str(&format!(" --fidelity {fidelity}"));
        }
        if let Some(cap) = self.cache_cap {
            out.push_str(&format!(" --cache-cap {cap}"));
        }
        if let Some(secs) = self.deadline_secs {
            out.push_str(&format!(" --deadline {secs}"));
        }
        out
    }

    /// Resolves every model name against the zoo.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the spec names no models or an
    /// unknown one.
    pub fn resolve_models(&self) -> Result<Vec<Model>, SpecError> {
        if self.models.is_empty() {
            return Err(SpecError("spec names no models".into()));
        }
        self.models.iter().map(|m| resolve_model(m)).collect()
    }

    /// The evaluation-semantics fingerprint: two specs with equal
    /// signatures produce engines whose memoized results are
    /// interchangeable, which is the precondition for handing both jobs
    /// one [`spotlight_eval::SharedCache`].
    pub fn eval_signature(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{:?}",
            self.backend,
            self.faults.as_deref().unwrap_or(""),
            self.noise.as_deref().unwrap_or(""),
            self.replicates,
            self.robust_agg,
            self.fidelity.as_deref().unwrap_or(""),
            self.cache_cap,
        )
    }
}

/// Parses a variant name in any of the accepted spellings (`spotlight`,
/// `a`/`spotlight-a`, ...), case-insensitively. Also used to map a
/// journal manifest's variant name back to a [`Variant`].
///
/// # Errors
///
/// Returns a [`SpecError`] listing the accepted names.
pub fn parse_variant(v: &str) -> Result<Variant, SpecError> {
    let v = v.to_ascii_lowercase();
    Ok(match v.as_str() {
        "spotlight" => Variant::Spotlight,
        "a" | "spotlight-a" => Variant::SpotlightA,
        "v" | "spotlight-v" | "vanilla" => Variant::SpotlightV,
        "f" | "spotlight-f" | "fixed" => Variant::SpotlightF,
        "r" | "spotlight-r" | "random" => Variant::SpotlightR,
        "ga" | "spotlight-ga" | "genetic" => Variant::SpotlightGA,
        other => {
            return Err(SpecError(format!(
                "unknown variant `{other}` (spotlight|a|v|f|r|ga)"
            )))
        }
    })
}

/// Resolves a model name to a zoo entry, fuzzily on case and `-`/`_`
/// separators.
///
/// # Errors
///
/// Lists the available names when the lookup fails.
pub fn resolve_model(name: &str) -> Result<Model, SpecError> {
    let needle = name.to_ascii_lowercase().replace(['-', '_'], "");
    for m in all_models() {
        let have = m.name().to_ascii_lowercase().replace(['-', '_'], "");
        if have == needle {
            return Ok(m);
        }
    }
    let names: Vec<String> = all_models().iter().map(|m| m.name().to_string()).collect();
    Err(SpecError(format!(
        "unknown model `{name}`; available: {}",
        names.join(", ")
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_search_flag() {
        let spec = RunSpec::parse_str(
            "--model resnet50,transformer --objective delay --hw 50 --sw 70 --seed 9 \
             --scale cloud --variant ga --threads 4 --backend sim \
             --faults seed=3,transient=0.1 --noise seed=7,model=gauss,sigma=0.1 \
             --replicates 5 --robust-agg trimmed --fidelity fidelity=replicate:0.2,rungs=3 \
             --cache-cap 4096 --deadline 60",
        )
        .unwrap();
        assert_eq!(spec.models, vec!["resnet50", "transformer"]);
        assert_eq!(spec.hw_samples, 50);
        assert_eq!(spec.sw_samples, 70);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.objective, Objective::Delay);
        assert!(spec.cloud);
        assert_eq!(spec.variant, Variant::SpotlightGA);
        assert_eq!(spec.threads, 4);
        assert_eq!(spec.backend, "sim");
        assert_eq!(spec.fault_plan().expect("faults configured").seed, 3);
        assert_eq!(spec.noise_plan().expect("noise configured").seed, 7);
        assert_eq!(spec.replicates, 5);
        assert_eq!(spec.robust_agg, Aggregation::Trimmed);
        assert_eq!(spec.robust_policy().replicates, 5);
        let ladder = spec.fidelity_spec().expect("fidelity configured");
        assert_eq!(ladder.rungs, 3);
        // Stored canonicalized: defaulted fields are spelled out.
        assert_eq!(
            spec.fidelity.as_deref(),
            Some("fidelity=replicate:0.2,rungs=3,eta=2,calib=1")
        );
        assert_eq!(spec.cache_cap, Some(4096));
        assert_eq!(spec.deadline_secs, Some(60));
    }

    #[test]
    fn invalid_specs_are_rejected_with_the_owners_message() {
        for (args, needle) in [
            ("--faults transient=2", "transient"),
            ("--faults bogus=1", "bogus"),
            ("--noise sigma=-1", "sigma"),
            ("--noise model=laplace", "laplace"),
            ("--replicates 0", "positive"),
            ("--threads 0", "positive"),
            ("--robust-agg mode", "mode"),
            ("--fidelity fidelity=warp:0.5", "warp"),
            ("--fidelity rungs=3", "fidelity spec"),
            ("--backend verilator", "verilator"),
            ("--objective area", "area"),
            ("--scale orbit", "orbit"),
            ("--variant z", "variant"),
            ("--frobnicate", "frobnicate"),
            ("--hw", "needs a value"),
            ("--hw x", "integer"),
        ] {
            let err = RunSpec::parse_str(args).unwrap_err();
            assert!(err.to_string().contains(needle), "{args}: {err}");
        }
    }

    #[test]
    fn backend_error_lists_every_backend() {
        let err = RunSpec::parse_str("--backend verilator").unwrap_err();
        for known in spotlight_eval::BACKEND_NAMES {
            assert!(err.to_string().contains(known), "missing {known}");
        }
    }

    #[test]
    fn default_round_trips_through_config() {
        let spec = RunSpec::default();
        assert_eq!(spec.robust_policy(), RobustPolicy::default());
        assert!(spec.noise_plan().is_none());
        let cfg = spec.to_codesign_config().unwrap();
        assert_eq!(cfg.hw_samples(), 20);
        assert_eq!(cfg.threads(), 1);
    }

    #[test]
    fn zero_samples_surface_as_config_errors() {
        let spec = RunSpec {
            hw_samples: 0,
            ..RunSpec::default()
        };
        assert!(spec.to_codesign_config().is_err());
    }

    #[test]
    fn manifest_round_trip_rebuilds_the_spec() {
        let spec = RunSpec::parse_str(
            "--model transformer --hw 6 --sw 9 --seed 3 --variant a \
             --faults seed=5,transient=0.05 --replicates 3 --robust-agg median",
        )
        .unwrap();
        let engine = spec.build_engine().unwrap();
        // The manifest a journaled run of this spec would carry (field
        // values follow `CodesignConfig::manifest`'s canonical names).
        let manifest = RunManifest {
            seed: spec.seed,
            variant: spec.variant.to_string(),
            backend: engine.backend_name().to_string(),
            ranges: String::new(),
            budget: String::new(),
            hw_samples: spec.hw_samples as u64,
            sw_samples: spec.sw_samples as u64,
            threads: spec.threads as u64,
            git: "test".into(),
            objective: "edp".into(),
            scale: "edge".into(),
            models: "Transformer".into(),
            faults: engine.faults().unwrap_or_default(),
            noise: engine.noise().unwrap_or_default(),
            replicates: spec.replicates as u64,
            robust_agg: spec.robust_agg.to_string(),
            fidelity: engine.fidelity().unwrap_or_default(),
        };
        let back = RunSpec::from_manifest(&manifest).unwrap();
        assert_eq!(back.models, vec!["Transformer"]);
        assert_eq!(back.hw_samples, 6);
        assert_eq!(back.sw_samples, 9);
        assert_eq!(back.seed, 3);
        assert_eq!(back.variant, Variant::SpotlightA);
        assert_eq!(back.fault_plan().unwrap().seed, 5);
        assert_eq!(back.replicates, 3);
        assert_eq!(back.robust_agg, Aggregation::Median);
        assert_eq!(back.fidelity, None);
    }

    #[test]
    fn fidelity_survives_the_manifest_round_trip() {
        let spec = RunSpec::parse_str(
            "--model transformer --replicates 4 \
             --fidelity fidelity=replicate:0.25,rungs=3,eta=2",
        )
        .unwrap();
        let engine = spec.build_engine().unwrap();
        assert_eq!(engine.fidelity(), spec.fidelity);
        let manifest = RunManifest {
            seed: 0,
            variant: spec.variant.to_string(),
            backend: "maestro".into(),
            ranges: String::new(),
            budget: String::new(),
            hw_samples: 1,
            sw_samples: 1,
            threads: 1,
            git: "test".into(),
            objective: "edp".into(),
            scale: "edge".into(),
            models: "Transformer".into(),
            faults: String::new(),
            noise: String::new(),
            replicates: spec.replicates as u64,
            robust_agg: spec.robust_agg.to_string(),
            fidelity: engine.fidelity().unwrap_or_default(),
        };
        let back = RunSpec::from_manifest(&manifest).unwrap();
        assert_eq!(back.fidelity, spec.fidelity);
        // A corrupted fidelity field fails at manifest parse, not mid-run.
        let broken = RunManifest {
            fidelity: "fidelity=warp:9".into(),
            ..manifest
        };
        assert!(RunSpec::from_manifest(&broken).is_err());
    }

    #[test]
    fn eval_signature_separates_engine_semantics() {
        let a = RunSpec::parse_str("--model vgg16 --seed 1").unwrap();
        let b = RunSpec::parse_str("--model transformer --seed 9 --hw 99").unwrap();
        // Same evaluation semantics, different searches: shareable.
        assert_eq!(a.eval_signature(), b.eval_signature());
        let c = RunSpec::parse_str("--model vgg16 --noise seed=1,sigma=0.1").unwrap();
        assert_ne!(a.eval_signature(), c.eval_signature());
        let d = RunSpec::parse_str("--model vgg16 --backend sim").unwrap();
        assert_ne!(a.eval_signature(), d.eval_signature());
        // A fidelity ladder changes which reports the cache may hold.
        let e = RunSpec::parse_str("--model vgg16 --fidelity fidelity=proxy:0.25").unwrap();
        assert_ne!(a.eval_signature(), e.eval_signature());
    }

    #[test]
    fn spec_string_round_trips_exactly() {
        for args in [
            "--model transformer",
            "--model resnet50,transformer --objective delay --hw 50 --sw 70 --seed 9 \
             --scale cloud --variant ga --threads 4 --backend sim \
             --faults seed=3,transient=0.1 --noise seed=7,model=gauss,sigma=0.1 \
             --replicates 5 --robust-agg trimmed --fidelity fidelity=replicate:0.2,rungs=3 \
             --cache-cap 4096 --deadline 60",
            "--model vgg16 --variant a --replicates 3 --robust-agg mean",
            "--model mobilenetv2 --variant f --cache-cap 0",
        ] {
            let spec = RunSpec::parse_str(args).unwrap();
            let rendered = spec.to_spec_string();
            let back = RunSpec::parse_str(&rendered).unwrap();
            assert_eq!(back, spec, "{rendered}");
            // Canonical: rendering the round-tripped spec is a fixpoint.
            assert_eq!(back.to_spec_string(), rendered);
        }
    }

    #[test]
    fn model_resolution_is_fuzzy_on_separators() {
        assert_eq!(resolve_model("ResNet-50").unwrap().name(), "ResNet-50");
        assert_eq!(resolve_model("resnet50").unwrap().name(), "ResNet-50");
        assert_eq!(resolve_model("mobilenet_v2").unwrap().name(), "MobileNetV2");
        assert!(resolve_model("alexnet").is_err());
    }
}
