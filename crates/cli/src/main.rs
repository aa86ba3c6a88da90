//! The `spotlight` command-line tool: see [`spotlight_cli::USAGE`].
//!
//! All run orchestration lives in `spotlight-runtime`; this binary only
//! parses arguments, dispatches, and does terminal I/O.

use std::process::ExitCode;
use std::sync::Arc;

use spotlight::report::{final_report, outcome_summary, plan_markdown};
use spotlight::scenarios::evaluate_baseline;
use spotlight_cli::{resolve_baseline, resolve_model, Command, USAGE};
use spotlight_obs::{read_journal_tolerant, EVENT_KINDS};
use spotlight_runtime::{
    bind, resume_job, run_client_with_retry, run_job, serve_loop, ReconnectPolicy, Response,
    RunOutput, SchedulerOptions, ServeOptions, Server,
};
use spotlight_space::cardinality;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match Command::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(cmd) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a finished run the way `codesign` and `resume` always have:
/// summary and per-model plans on stdout, report file on request.
fn print_run(out: &RunOutput, path: Option<&str>) -> std::io::Result<()> {
    print!("{}", outcome_summary(&out.outcome, out.objective));
    for plan in &out.outcome.best_plans {
        println!();
        print!("{}", plan_markdown(plan));
    }
    if let Some(path) = path {
        std::fs::write(path, final_report(&out.outcome, out.objective))?;
    }
    Ok(())
}

fn run(cmd: Command) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
        }
        Command::Codesign { models: _, config } => {
            let out = run_job(&config.spec, config.journal.as_deref(), config.progress)?;
            print_run(&out, config.out.as_deref())?;
        }
        Command::Evaluate {
            baseline,
            model,
            config,
        } => {
            let baseline = resolve_baseline(&baseline)?;
            let model = resolve_model(&model)?;
            let cfg = config.to_codesign_config()?;
            let hw = baseline.scaled_config(&cfg.budget());
            eprintln!(
                "evaluating {} ({hw}) on {}...",
                baseline.name(),
                model.name()
            );
            let (plan, evals) = evaluate_baseline(&cfg, baseline, &model);
            print!("{}", plan_markdown(&plan));
            println!("\ncost-model evaluations: {evals}");
        }
        Command::Space { model } => {
            let model = resolve_model(&model)?;
            let ranges = spotlight_space::ParamRanges::edge();
            let hw = cardinality::hw_space_size(&ranges);
            println!("model: {}", model.name());
            println!("hardware space (edge ranges): {hw:.3e} points");
            println!("layer,sw_space,codesign_space");
            for entry in model.layers() {
                let sw = cardinality::sw_space_size(&entry.layer);
                println!("{},{sw:.3e},{:.3e}", entry.layer, hw * sw);
            }
        }
        Command::Journal { path, strict } => {
            // Any *terminated* line that fails to parse as a known event
            // — unknown type, missing field — is schema drift and a hard
            // error. A final line cut mid-write is a crash scar: reported
            // with the valid-prefix offset, and fatal only under
            // --strict, since resume can recover such a journal.
            let parsed = read_journal_tolerant(&path)??;
            let mut counts = vec![0u64; EVENT_KINDS.len()];
            for r in &parsed.records {
                if let Some(idx) = EVENT_KINDS.iter().position(|k| *k == r.event.kind()) {
                    counts[idx] += 1;
                }
            }
            let verdict = if parsed.corrupt.is_empty() {
                "all valid"
            } else {
                "CORRUPT"
            };
            match &parsed.truncated_tail {
                None => println!("{}: {} events, {verdict}", path, parsed.records.len()),
                Some(tail) => println!(
                    "{}: {} events, {verdict}; truncated tail at line {} ({} bytes cut \
                     mid-write, valid prefix ends at byte {})",
                    path,
                    parsed.records.len(),
                    tail.line,
                    tail.text.len(),
                    parsed.valid_bytes,
                ),
            }
            // In a checksummed journal, damaged records are localized
            // with their byte offsets — and always fatal, strict or not:
            // a checksum mismatch is disk rot, not a crash scar.
            for c in &parsed.corrupt {
                println!("  corrupt record: {c}");
            }
            for (kind, n) in EVENT_KINDS.iter().zip(&counts) {
                println!("  {kind:<20} {n}");
            }
            if let Some(c) = parsed.corrupt.first() {
                return Err(format!(
                    "{} corrupt record(s), first at {c}; run `spotlight fsck --repair` \
                     on the owning state dir, or truncate to the last valid prefix",
                    parsed.corrupt.len(),
                )
                .into());
            }
            if strict {
                if let Some(tail) = &parsed.truncated_tail {
                    return Err(format!(
                        "strict: truncated tail at line {} (valid prefix ends at byte {})",
                        tail.line, parsed.valid_bytes,
                    )
                    .into());
                }
            }
        }
        Command::Resume {
            path,
            out,
            progress,
        } => {
            let result = resume_job(&path, progress)?;
            print_run(&result, out.as_deref())?;
        }
        Command::Serve {
            listen,
            workers,
            slice,
            dir,
            max_jobs,
            disk_faults,
        } => {
            // Test hook: kill the worker executing the n-th slice, to
            // exercise requeue-and-respawn end to end.
            let kill_after = std::env::var("SPOTLIGHT_SERVE_KILL_WORKER_AFTER_SLICES")
                .ok()
                .map(|n| n.parse())
                .transpose()?;
            if let Some(plan) = &disk_faults {
                eprintln!("disk-fault injection armed: {plan}");
            }
            let server = Arc::new(Server::new(SchedulerOptions {
                workers,
                slice,
                dir: dir.into(),
                kill_after,
                max_jobs,
                disk_faults,
            })?);
            let recovered = server.jobs_recovered();
            if recovered > 0 {
                eprintln!("recovered {recovered} job(s) from the state dir");
            }
            let quarantined = server.jobs_quarantined();
            if quarantined > 0 {
                eprintln!(
                    "quarantined {quarantined} corrupt job(s); \
                     run `spotlight fsck` for details"
                );
            }
            let (listener, addr) = bind(&listen)?;
            // Scripts parse this line to discover the bound port.
            println!("listening on {addr}");
            serve_loop(listener, server, ServeOptions::default())?;
        }
        Command::Fsck { dir, repair } => {
            let report = spotlight_runtime::fsck_store(std::path::Path::new(&dir), repair)?;
            print!("{}", report.render());
            // Exit contract mirrors `journal --strict`: corruption is
            // non-zero — unless --repair just dealt with all of it, in
            // which case the re-scan (and the daemon) will be clean.
            if !report.is_clean() && !repair {
                return Err(format!(
                    "{} corruption finding(s) in {dir}; re-run with --repair",
                    report.corruption_count(),
                )
                .into());
            }
        }
        Command::Client { addr, request } => {
            let lines =
                run_client_with_retry(&addr, &request.to_line(), &ReconnectPolicy::default())?;
            for line in lines {
                // Unwrap text payloads so `client metrics` pipes
                // straight into a parser; everything else prints as the
                // raw frame.
                match Response::parse_line(&line) {
                    Ok(Response::Metrics { text }) | Ok(Response::Report { text, .. }) => {
                        print!("{text}");
                    }
                    Ok(Response::Error { message, .. }) => {
                        return Err(message.into());
                    }
                    _ => println!("{line}"),
                }
            }
        }
    }
    Ok(())
}
