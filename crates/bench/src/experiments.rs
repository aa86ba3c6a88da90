//! Reusable experiment drivers.
//!
//! The per-figure binaries and the artifact-style `run_ae` orchestrator
//! share these functions: each returns [`Row`]s (one per configuration
//! per model per metric, carrying all trial values) that render to the
//! `compare-ae.sh` CSV format via [`rows_to_csv`].

use spotlight::codesign::Spotlight;
use spotlight::scenarios::{evaluate_baseline, run_confuciux, run_hasco};
use spotlight::Variant;
use spotlight_accel::Baseline;
use spotlight_maestro::Objective;
use spotlight_models::Model;
use spotlight_obs::Observer;

use crate::{map_trials, observer_from_env, stats, Budgets, Stats};

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

fn codesign_values(
    budgets: &Budgets,
    objective: Objective,
    cloud: bool,
    variant: Variant,
    model: &Model,
) -> Vec<f64> {
    map_trials(budgets.trials, |t| {
        let base = if cloud {
            budgets.cloud_config(t)
        } else {
            budgets.edge_config(t)
        };
        let cfg = base
            .to_builder()
            .objective(objective)
            .variant(variant)
            .build()
            .expect("derived from a valid config");
        Spotlight::new(cfg)
            .with_observer(observer_from_env().clone())
            .codesign(std::slice::from_ref(model))
            .best_cost
    })
}

fn baseline_values(
    budgets: &Budgets,
    objective: Objective,
    cloud: bool,
    baseline: Baseline,
    model: &Model,
) -> Vec<f64> {
    map_trials(budgets.trials, |t| {
        let base = if cloud {
            budgets.cloud_config(t)
        } else {
            budgets.edge_config(t)
        };
        let cfg = base
            .to_builder()
            .objective(objective)
            .build()
            .expect("derived from a valid config");
        let (plan, _) = evaluate_baseline(&cfg, baseline, model);
        plan.objective_value(objective)
    })
}

/// Figure 6: edge-scale single-model delay for Spotlight, the three
/// hand-designed baselines, and the restricted tools (where the paper
/// runs them).
pub fn main_edge(budgets: &Budgets, models: &[Model]) -> Vec<Row> {
    let mut rows = Vec::new();
    let objective = Objective::Delay;
    for model in models {
        rows.push(Row {
            metric: "delay".into(),
            model: model.name().into(),
            configuration: "Spotlight".into(),
            values: codesign_values(budgets, objective, false, Variant::Spotlight, model),
        });
        for baseline in Baseline::FIGURE6 {
            rows.push(Row {
                metric: "delay".into(),
                model: model.name().into(),
                configuration: baseline.name().into(),
                values: baseline_values(budgets, objective, false, baseline, model),
            });
        }
        if model.name() != "Transformer" {
            let values = (0..budgets.trials)
                .map(|t| {
                    let cfg = budgets
                        .edge_config(t)
                        .to_builder()
                        .objective(objective)
                        .build()
                        .expect("derived from a valid config");
                    run_confuciux(&cfg, model, &Observer::null()).best_cost
                })
                .collect();
            rows.push(Row {
                metric: "delay".into(),
                model: model.name().into(),
                configuration: "ConfuciuX".into(),
                values,
            });
        }
        if matches!(model.name(), "ResNet-50" | "MobileNetV2") {
            let values = (0..budgets.trials)
                .map(|t| {
                    let cfg = budgets
                        .edge_config(t)
                        .to_builder()
                        .objective(objective)
                        .build()
                        .expect("derived from a valid config");
                    run_hasco(&cfg, model, &Observer::null()).best_cost
                })
                .collect();
            rows.push(Row {
                metric: "delay".into(),
                model: model.name().into(),
                configuration: "HASCO".into(),
                values,
            });
        }
    }
    rows
}

/// Figure 7: cloud-scale EDP and delay for Spotlight vs the scaled-up
/// hand designs.
pub fn main_cloud(budgets: &Budgets, models: &[Model]) -> Vec<Row> {
    let mut rows = Vec::new();
    for objective in Objective::ALL {
        for model in models {
            rows.push(Row {
                metric: objective.to_string(),
                model: model.name().into(),
                configuration: "Spotlight".into(),
                values: codesign_values(budgets, objective, true, Variant::Spotlight, model),
            });
            for baseline in Baseline::FIGURE6 {
                rows.push(Row {
                    metric: objective.to_string(),
                    model: model.name().into(),
                    configuration: baseline.name().into(),
                    values: baseline_values(budgets, objective, true, baseline, model),
                });
            }
        }
    }
    rows
}

/// Figure 10 endpoints (the artifact's `ablation` mode): per-variant
/// final best objective during single-model co-design, plus the two
/// restricted tools.
pub fn ablation(budgets: &Budgets, models: &[Model], objective: Objective) -> Vec<Row> {
    let mut rows = Vec::new();
    for model in models {
        for variant in Variant::FIGURE10 {
            rows.push(Row {
                metric: objective.to_string(),
                model: model.name().into(),
                configuration: variant.name().into(),
                values: codesign_values(budgets, objective, false, variant, model),
            });
        }
        if model.name() != "Transformer" {
            let values = (0..budgets.trials)
                .map(|t| {
                    let cfg = budgets
                        .edge_config(t)
                        .to_builder()
                        .objective(objective)
                        .build()
                        .expect("derived from a valid config");
                    run_confuciux(&cfg, model, &Observer::null()).best_cost
                })
                .collect();
            rows.push(Row {
                metric: objective.to_string(),
                model: model.name().into(),
                configuration: "ConfuciuX".into(),
                values,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotlight_conv::ConvLayer;

    fn tiny() -> Model {
        Model::from_layers("tiny", vec![ConvLayer::new(1, 16, 8, 3, 3, 14, 14)])
    }

    fn budgets() -> Budgets {
        Budgets {
            trials: 2,
            hw_samples: 4,
            sw_samples: 8,
            threads: 1,
        }
    }

    #[test]
    fn main_edge_produces_expected_rows() {
        let rows = main_edge(&budgets(), &[tiny()]);
        // Spotlight + 3 baselines + ConfuciuX (tiny != Transformer).
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.values.len() == 2));
        assert!(rows.iter().all(|r| r.values.iter().all(|v| v.is_finite())));
    }

    #[test]
    fn csv_normalizes_to_spotlight() {
        let rows = vec![
            Row {
                metric: "delay".into(),
                model: "m".into(),
                configuration: "Spotlight".into(),
                values: vec![2.0, 4.0, 3.0],
            },
            Row {
                metric: "delay".into(),
                model: "m".into(),
                configuration: "Other".into(),
                values: vec![6.0],
            },
        ];
        let csv = rows_to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[1].ends_with(",1.000"));
        assert!(lines[2].ends_with(",2.000"));
    }

    #[test]
    fn ablation_covers_all_variants() {
        let rows = ablation(&budgets(), &[tiny()], Objective::Edp);
        assert_eq!(rows.len(), Variant::FIGURE10.len() + 1);
    }
}
