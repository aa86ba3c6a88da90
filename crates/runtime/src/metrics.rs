//! Prometheus text exposition (format 0.0.4) for the serve endpoint.
//!
//! One page renders three families of state: the evaluation layer's
//! global counters (cache traffic, quarantine, replication — the PR 5
//! noise counters included), the per-phase wall timers (the PR 3
//! `surrogate_fit` / `acquisition` split included), and the scheduler's
//! job/worker counters. Everything is a counter or gauge in the plain
//! text format, so `curl .../metrics` needs no client library.

use std::collections::BTreeMap;

use spotlight_eval::EvalStats;

/// Scheduler-level counters the server accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Jobs accepted by `submit`.
    pub jobs_submitted: u64,
    /// Jobs that reached `completed`.
    pub jobs_completed: u64,
    /// Jobs that reached `failed`.
    pub jobs_failed: u64,
    /// Jobs that reached `cancelled`.
    pub jobs_cancelled: u64,
    /// Non-terminal jobs recovered from the job store at startup.
    pub jobs_recovered: u64,
    /// Jobs quarantined because their WAL or journal failed integrity
    /// verification (at startup or when a slice hit mid-file rot).
    pub jobs_quarantined: u64,
    /// Submits refused by the admission cap.
    pub jobs_rejected: u64,
    /// Scheduler slices executed (a killed slice counts).
    pub slices: u64,
    /// Worker threads ever started (replacements included).
    pub workers_started: u64,
    /// Worker threads lost to panics.
    pub workers_died: u64,
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
    ));
}

fn gauge(out: &mut String, name: &str, help: &str, value: f64) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
    ));
}

/// Renders the full metrics page. `uptime_secs` is the daemon's age
/// (counters reset at restart; the uptime gauge is what lets a scrape
/// distinguish "restarted" from "idle").
pub fn render_metrics(
    eval: &EvalStats,
    server: &ServerCounters,
    uptime_secs: f64,
    jobs_by_state: &BTreeMap<&'static str, u64>,
) -> String {
    let mut out = String::new();

    gauge(
        &mut out,
        "spotlight_uptime_seconds",
        "Seconds since this daemon process started.",
        uptime_secs,
    );

    counter(
        &mut out,
        "spotlight_evaluations_total",
        "Logical cost queries answered (cache hits included).",
        eval.evaluations,
    );
    counter(
        &mut out,
        "spotlight_cache_hits_total",
        "Queries answered from the memo cache or quarantine short-circuit.",
        eval.cache_hits,
    );
    counter(
        &mut out,
        "spotlight_cache_misses_total",
        "Queries that invoked the cost backend.",
        eval.cache_misses,
    );
    counter(
        &mut out,
        "spotlight_cache_evictions_total",
        "Cache entries evicted by the capacity bound.",
        eval.evictions,
    );
    counter(
        &mut out,
        "spotlight_infeasible_total",
        "Queries that returned an infeasibility error.",
        eval.infeasible,
    );
    counter(
        &mut out,
        "spotlight_quarantined_total",
        "Queries that ended in a failure-model error.",
        eval.quarantined,
    );
    counter(
        &mut out,
        "spotlight_transient_retries_total",
        "Transient backend failures retried inline.",
        eval.transient_retries,
    );
    counter(
        &mut out,
        "spotlight_failed_layers_total",
        "Layers abandoned after repeated worker panics.",
        eval.failed_layers,
    );
    counter(
        &mut out,
        "spotlight_sw_searches_total",
        "Software-schedule searches driven through the engine.",
        eval.sw_searches,
    );
    counter(
        &mut out,
        "spotlight_replicate_measurements_total",
        "Backend measurements taken for replicated queries.",
        eval.replicate_measurements,
    );
    counter(
        &mut out,
        "spotlight_outliers_rejected_total",
        "Replicate measurements discarded as outliers.",
        eval.outliers_rejected,
    );
    counter(
        &mut out,
        "spotlight_fidelity_cheap_evals_total",
        "Logical queries answered at a reduced fidelity rung.",
        eval.fidelity_cheap_evals,
    );
    counter(
        &mut out,
        "spotlight_fidelity_full_evals_total",
        "Logical queries answered at full fidelity under a ladder.",
        eval.fidelity_full_evals,
    );

    out.push_str(
        "# HELP spotlight_phase_wall_seconds Accumulated wall time per run phase.\n\
         # TYPE spotlight_phase_wall_seconds counter\n",
    );
    for (phase, wall) in &eval.phase_wall {
        out.push_str(&format!(
            "spotlight_phase_wall_seconds{{phase=\"{phase}\"}} {}\n",
            wall.as_secs_f64()
        ));
    }

    out.push_str(
        "# HELP spotlight_jobs Jobs currently in each lifecycle state.\n\
         # TYPE spotlight_jobs gauge\n",
    );
    for (state, n) in jobs_by_state {
        out.push_str(&format!("spotlight_jobs{{state=\"{state}\"}} {n}\n"));
    }

    counter(
        &mut out,
        "spotlight_jobs_submitted_total",
        "Jobs accepted by submit.",
        server.jobs_submitted,
    );
    counter(
        &mut out,
        "spotlight_jobs_completed_total",
        "Jobs that finished with a report.",
        server.jobs_completed,
    );
    counter(
        &mut out,
        "spotlight_jobs_failed_total",
        "Jobs that ended in an unrecoverable error.",
        server.jobs_failed,
    );
    counter(
        &mut out,
        "spotlight_jobs_cancelled_total",
        "Jobs cancelled by request.",
        server.jobs_cancelled,
    );
    counter(
        &mut out,
        "spotlight_jobs_recovered_total",
        "Non-terminal jobs recovered from the job store at startup.",
        server.jobs_recovered,
    );
    counter(
        &mut out,
        "spotlight_jobs_quarantined_total",
        "Jobs quarantined after a WAL or journal integrity failure.",
        server.jobs_quarantined,
    );
    counter(
        &mut out,
        "spotlight_jobs_rejected_total",
        "Submits refused by the admission cap.",
        server.jobs_rejected,
    );
    counter(
        &mut out,
        "spotlight_slices_total",
        "Scheduler slices executed across all workers.",
        server.slices,
    );
    counter(
        &mut out,
        "spotlight_workers_started_total",
        "Worker threads ever started, replacements included.",
        server.workers_started,
    );
    counter(
        &mut out,
        "spotlight_workers_died_total",
        "Worker threads lost to panics.",
        server.workers_died,
    );
    out
}

/// Metric families every serve exposition page must carry; a page
/// missing one means a scrape contract regressed.
const REQUIRED_FAMILIES: [&str; 4] = [
    "spotlight_uptime_seconds",
    "spotlight_jobs_recovered_total",
    "spotlight_jobs_quarantined_total",
    "spotlight_jobs_rejected_total",
];

/// Structurally validates a metrics page: every non-comment line must be
/// `name[{label="value"}] number`, every sample must be preceded by
/// `# HELP` and `# TYPE` lines for its family, names must be legal
/// Prometheus identifiers, and the serve contract's required families
/// (`REQUIRED_FAMILIES`) must all be present.
///
/// # Errors
///
/// Returns a message naming the first offending line (or the missing
/// family).
pub fn validate_metrics(text: &str) -> Result<(), String> {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut declared: BTreeMap<String, bool> = BTreeMap::new(); // name -> has TYPE
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if !valid_name(name) {
                        return Err(format!("line {lineno}: HELP names invalid metric `{name}`"));
                    }
                    declared.entry(name.to_string()).or_insert(false);
                }
                "TYPE" => {
                    let kind = parts.next().unwrap_or("");
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {lineno}: unknown TYPE `{kind}`"));
                    }
                    declared.insert(name.to_string(), true);
                }
                _ => {
                    return Err(format!(
                        "line {lineno}: unknown comment keyword `{keyword}`"
                    ))
                }
            }
            continue;
        }
        // Sample line: name or name{labels}, then one float value.
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return Err(format!("line {lineno}: sample has no value: `{line}`")),
        };
        if value_part.parse::<f64>().is_err() {
            return Err(format!(
                "line {lineno}: value `{value_part}` is not a float"
            ));
        }
        let name = match name_part.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {lineno}: unterminated label set"));
                }
                let body = &labels[..labels.len() - 1];
                for pair in body.split(',') {
                    let Some((k, v)) = pair.split_once('=') else {
                        return Err(format!("line {lineno}: label `{pair}` has no `=`"));
                    };
                    if !valid_name(k) {
                        return Err(format!("line {lineno}: bad label name `{k}`"));
                    }
                    if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                        return Err(format!("line {lineno}: label value `{v}` is not quoted"));
                    }
                }
                name
            }
            None => name_part,
        };
        if !valid_name(name) {
            return Err(format!("line {lineno}: bad metric name `{name}`"));
        }
        match declared.get(name) {
            Some(true) => {}
            Some(false) => return Err(format!("line {lineno}: `{name}` has HELP but no TYPE")),
            None => return Err(format!("line {lineno}: sample `{name}` precedes its HELP")),
        }
    }
    for family in REQUIRED_FAMILIES {
        if declared.get(family) != Some(&true) {
            return Err(format!("required family `{family}` is missing"));
        }
    }
    Ok(())
}

/// Looks up one sample's value (exact `name` match, or
/// `name{label...}` match when `name` includes a label set).
pub fn metric_value(text: &str, name: &str) -> Option<f64> {
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some((sample, value)) = line.rsplit_once(' ') {
            if sample == name {
                return value.parse().ok();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn page() -> String {
        let eval = EvalStats {
            evaluations: 120,
            cache_hits: 40,
            cache_misses: 80,
            replicate_measurements: 15,
            outliers_rejected: 2,
            quarantined: 3,
            fidelity_cheap_evals: 30,
            fidelity_full_evals: 10,
            phase_wall: vec![
                ("acquisition".into(), Duration::from_millis(1500)),
                ("surrogate_fit".into(), Duration::from_millis(250)),
            ],
            ..EvalStats::default()
        };
        let server = ServerCounters {
            jobs_submitted: 3,
            jobs_completed: 2,
            jobs_cancelled: 1,
            jobs_recovered: 2,
            jobs_quarantined: 1,
            jobs_rejected: 4,
            slices: 9,
            workers_started: 3,
            workers_died: 1,
            ..ServerCounters::default()
        };
        let mut by_state = BTreeMap::new();
        by_state.insert("completed", 2u64);
        by_state.insert("cancelled", 1u64);
        render_metrics(&eval, &server, 12.5, &by_state)
    }

    #[test]
    fn rendered_page_is_valid_exposition_text() {
        let text = page();
        validate_metrics(&text).unwrap();
        assert_eq!(
            metric_value(&text, "spotlight_evaluations_total"),
            Some(120.0)
        );
        assert_eq!(
            metric_value(&text, "spotlight_cache_hits_total"),
            Some(40.0)
        );
        assert_eq!(
            metric_value(&text, "spotlight_replicate_measurements_total"),
            Some(15.0)
        );
        assert_eq!(
            metric_value(&text, "spotlight_outliers_rejected_total"),
            Some(2.0)
        );
        assert_eq!(
            metric_value(&text, "spotlight_fidelity_cheap_evals_total"),
            Some(30.0)
        );
        assert_eq!(
            metric_value(&text, "spotlight_fidelity_full_evals_total"),
            Some(10.0)
        );
        assert_eq!(
            metric_value(
                &text,
                "spotlight_phase_wall_seconds{phase=\"surrogate_fit\"}"
            ),
            Some(0.25)
        );
        assert_eq!(
            metric_value(&text, "spotlight_phase_wall_seconds{phase=\"acquisition\"}"),
            Some(1.5)
        );
        assert_eq!(
            metric_value(&text, "spotlight_jobs{state=\"completed\"}"),
            Some(2.0)
        );
        assert_eq!(
            metric_value(&text, "spotlight_jobs_completed_total"),
            Some(2.0)
        );
        assert_eq!(
            metric_value(&text, "spotlight_workers_died_total"),
            Some(1.0)
        );
        assert_eq!(metric_value(&text, "spotlight_uptime_seconds"), Some(12.5));
        assert_eq!(
            metric_value(&text, "spotlight_jobs_recovered_total"),
            Some(2.0)
        );
        assert_eq!(
            metric_value(&text, "spotlight_jobs_quarantined_total"),
            Some(1.0)
        );
        assert_eq!(
            metric_value(&text, "spotlight_jobs_rejected_total"),
            Some(4.0)
        );
    }

    #[test]
    fn validator_requires_the_serve_contract_families() {
        let text = page();
        for family in REQUIRED_FAMILIES {
            let gutted: String = text
                .lines()
                .filter(|l| !l.contains(family))
                .map(|l| format!("{l}\n"))
                .collect();
            let err = validate_metrics(&gutted).unwrap_err();
            assert!(err.contains(family), "dropping {family}: {err}");
        }
    }

    #[test]
    fn validator_rejects_malformed_pages() {
        for (text, needle) in [
            ("spotlight_x 1\n", "precedes its HELP"),
            ("# HELP spotlight_x h\nspotlight_x 1\n", "no TYPE"),
            (
                "# HELP spotlight_x h\n# TYPE spotlight_x counter\nspotlight_x one\n",
                "not a float",
            ),
            ("# TYPE spotlight_x widget\n", "unknown TYPE"),
            (
                "# HELP spotlight_x h\n# TYPE spotlight_x counter\nspotlight_x{p=q} 1\n",
                "not quoted",
            ),
            ("# WAT spotlight_x\n", "unknown comment keyword"),
        ] {
            let err = validate_metrics(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }
}
