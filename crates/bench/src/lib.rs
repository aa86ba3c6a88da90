//! The paper's evaluation as named studies behind one binary.
//!
//! Every table and figure in the paper's evaluation is a study in
//! [`studies::STUDIES`] (see DESIGN.md's experiment index), run by name
//! through the crate's one binary:
//!
//! ```sh
//! cargo run --release -p spotlight-bench -- fig6_edge fig7_cloud
//! ```
//!
//! Each study returns CSV text; the co-design comparisons use the
//! artifact's `compare-ae.sh` columns (`configuration, min, max, median,
//! median normalized to Spotlight`, see [`rows_to_csv`]).
//!
//! Budgets are read from environment variables so the default run
//! finishes in minutes while the paper-scale configuration remains one
//! export away:
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `SPOTLIGHT_TRIALS` | independent trials per configuration | 3 |
//! | `SPOTLIGHT_HW` | hardware samples per trial | 20 |
//! | `SPOTLIGHT_SW` | software samples per layer | 30 |
//! | `SPOTLIGHT_THREADS` | worker threads for the layerwise software search | 1 |
//! | `SPOTLIGHT_MODELS` | `fast` (ResNet-50 + Transformer) or `all` | fast |
//! | `SPOTLIGHT_JOURNAL` | append run events to this JSONL journal | off |
//!
//! A zero, unparsable or unknown value is refused with a message naming
//! the variable. The paper's headline setting is `SPOTLIGHT_TRIALS=10
//! SPOTLIGHT_HW=100 SPOTLIGHT_SW=100 SPOTLIGHT_MODELS=all`.

pub mod studies;

use spotlight::codesign::{CodesignConfig, CodesignConfigBuilder};
use spotlight::Variant;
use spotlight_maestro::Objective;
use spotlight_models::{all_models, resnet50, transformer, Model};

/// Experiment budget resolved from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budgets {
    /// Independent trials per configuration (paper: 10).
    pub trials: u64,
    /// Hardware samples per trial (paper: 100).
    pub hw_samples: usize,
    /// Software samples per layer (paper: 100).
    pub sw_samples: usize,
    /// Worker threads for the layerwise software search (results are
    /// bit-identical at any thread count).
    pub threads: usize,
}

impl Budgets {
    /// Reads `SPOTLIGHT_TRIALS` / `SPOTLIGHT_HW` / `SPOTLIGHT_SW` /
    /// `SPOTLIGHT_THREADS` through `lookup`, with fast defaults for
    /// unset variables.
    ///
    /// # Errors
    ///
    /// Names the variable whose value is zero or not an integer.
    pub fn parse(lookup: &impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let get = |name: &str, default: usize| match lookup(name) {
            None => Ok(default),
            Some(v) => match v.parse() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("{name} must be a positive integer, got {v:?}")),
            },
        };
        Ok(Budgets {
            trials: get("SPOTLIGHT_TRIALS", 3)? as u64,
            hw_samples: get("SPOTLIGHT_HW", 20)?,
            sw_samples: get("SPOTLIGHT_SW", 30)?,
            threads: get("SPOTLIGHT_THREADS", 1)?,
        })
    }

    /// Trial `seed`'s co-design configuration at these budgets, on the
    /// ranges and area budget of `scale` ([`CodesignConfig::edge`] or
    /// [`CodesignConfig::cloud`]).
    pub fn config(
        &self,
        scale: fn() -> CodesignConfigBuilder,
        seed: u64,
        objective: Objective,
        variant: Variant,
    ) -> CodesignConfig {
        scale()
            .hw_samples(self.hw_samples)
            .sw_samples(self.sw_samples)
            .seed(seed)
            .threads(self.threads)
            .objective(objective)
            .variant(variant)
            .build()
            .expect("parsed budgets are at least 1")
    }
}

/// The model set under evaluation, from `SPOTLIGHT_MODELS` read through
/// `lookup`: `all` gives the five paper models; `fast`, the default, is
/// ResNet-50 and Transformer (one CNN, one GEMM-dominated model).
///
/// # Errors
///
/// Names the variable when its value is neither `fast` nor `all`.
pub fn parse_models(lookup: &impl Fn(&str) -> Option<String>) -> Result<Vec<Model>, String> {
    match lookup("SPOTLIGHT_MODELS").as_deref() {
        None | Some("fast") => Ok(vec![resnet50(), transformer()]),
        Some("all") => Ok(all_models()),
        Some(v) => Err(format!(
            "SPOTLIGHT_MODELS must be `fast` or `all`, got {v:?}"
        )),
    }
}

/// Summary statistics over trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Minimum across trials.
    pub min: f64,
    /// Maximum across trials.
    pub max: f64,
    /// Median across trials.
    pub median: f64,
}

/// Computes min/max/median of a non-empty sample.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn stats(values: &[f64]) -> Stats {
    assert!(!values.is_empty(), "no trial values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let median = if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    };
    Stats {
        min: v[0],
        max: *v.last().expect("non-empty"),
        median,
    }
}

/// One experiment result series: the per-trial best objective values of
/// one configuration on one model.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name (`"delay"` or `"EDP"`).
    pub metric: String,
    /// Model name.
    pub model: String,
    /// Configuration label (e.g. `"Spotlight"`, `"Eyeriss-like"`).
    pub configuration: String,
    /// One best-objective value per trial.
    pub values: Vec<f64>,
}

impl Row {
    /// The series of `configuration` on `model` under `objective`.
    pub fn new(objective: Objective, model: &str, configuration: &str, values: Vec<f64>) -> Self {
        Row {
            metric: objective.to_string(),
            model: model.into(),
            configuration: configuration.into(),
            values,
        }
    }

    /// Min/max/median over the trials.
    ///
    /// # Panics
    ///
    /// Panics if the row has no values.
    pub fn stats(&self) -> Stats {
        stats(&self.values)
    }
}

/// Renders rows as `metric,model,configuration,min,max,median,
/// median_vs_spotlight` CSV, normalizing each (metric, model) group to
/// its `Spotlight`-prefixed row's median (1.0 when absent).
pub fn rows_to_csv(rows: &[Row]) -> String {
    let mut out = String::from("metric,model,configuration,min,max,median,median_vs_spotlight\n");
    for row in rows {
        let s = row.stats();
        let reference = rows
            .iter()
            .find(|r| {
                r.metric == row.metric
                    && r.model == row.model
                    && (r.configuration == "Spotlight" || r.configuration == "Spotlight-Single")
            })
            .map(|r| r.stats().median)
            .unwrap_or(s.median);
        out.push_str(&format!(
            "{},{},{},{:.4e},{:.4e},{:.4e},{:.3}\n",
            row.metric,
            row.model,
            row.configuration,
            s.min,
            s.max,
            s.median,
            s.median / reference
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let pairs: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |name| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        }
    }

    #[test]
    fn stats_odd_and_even() {
        let s = stats(&[3.0, 1.0, 2.0]);
        assert_eq!((s.min, s.median, s.max), (1.0, 2.0, 3.0));
        let s = stats(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn budgets_default_when_unset() {
        let b = Budgets::parse(&env(&[])).unwrap();
        let want = Budgets {
            trials: 3,
            hw_samples: 20,
            sw_samples: 30,
            threads: 1,
        };
        assert_eq!(b, want);
        let b = Budgets::parse(&env(&[("SPOTLIGHT_HW", "7"), ("SPOTLIGHT_THREADS", "4")])).unwrap();
        assert_eq!((b.hw_samples, b.threads), (7, 4));
    }

    #[test]
    fn budgets_refuse_zero_and_garbage_naming_the_variable() {
        for name in [
            "SPOTLIGHT_TRIALS",
            "SPOTLIGHT_HW",
            "SPOTLIGHT_SW",
            "SPOTLIGHT_THREADS",
        ] {
            for value in ["0", "abc", "-1", ""] {
                let err = Budgets::parse(&env(&[(name, value)])).unwrap_err();
                assert!(err.starts_with(name), "{name}={value}: {err}");
            }
        }
    }

    #[test]
    fn model_sets() {
        assert_eq!(parse_models(&env(&[])).unwrap().len(), 2);
        assert_eq!(
            parse_models(&env(&[("SPOTLIGHT_MODELS", "fast")]))
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            parse_models(&env(&[("SPOTLIGHT_MODELS", "all")]))
                .unwrap()
                .len(),
            5
        );
        let err = parse_models(&env(&[("SPOTLIGHT_MODELS", "most")])).unwrap_err();
        assert!(err.starts_with("SPOTLIGHT_MODELS"), "{err}");
    }

    #[test]
    fn csv_normalizes_to_spotlight() {
        let rows = vec![
            Row::new(Objective::Delay, "m", "Spotlight", vec![2.0, 4.0, 3.0]),
            Row::new(Objective::Delay, "m", "Other", vec![6.0]),
        ];
        let csv = rows_to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[1].ends_with(",1.000"));
        assert!(lines[2].ends_with(",2.000"));
    }
}
