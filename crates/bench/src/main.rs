//! `spotlight-bench`: runs the named paper studies in order and prints
//! each one's CSV.
//!
//! ```sh
//! SPOTLIGHT_TRIALS=10 cargo run --release -p spotlight-bench -- fig6_edge fig7_cloud
//! ```
//!
//! Budgets and the model set come from the `SPOTLIGHT_*` environment
//! (see the library docs); `SPOTLIGHT_JOURNAL=<path>` appends the events
//! of every co-design and restricted-tool run to one JSONL journal.

use std::process::ExitCode;
use std::sync::Arc;

use spotlight_bench::studies::{study, STUDIES};
use spotlight_bench::{parse_models, Budgets};
use spotlight_models::Model;
use spotlight_obs::{JournalWriter, Observer};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let unknown: Vec<&str> = names
        .iter()
        .map(String::as_str)
        .filter(|n| study(n).is_none())
        .collect();
    if names.is_empty() || !unknown.is_empty() {
        if !unknown.is_empty() {
            eprintln!("error: unknown study: {}", unknown.join(" "));
        }
        let all: Vec<&str> = STUDIES.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "usage: spotlight-bench <study>...\nstudies: {}",
            all.join(" ")
        );
        return ExitCode::FAILURE;
    }
    let (budgets, models, observer) = match read_env() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for name in &names {
        let run = study(name).expect("names were checked");
        print!("{}", run(&budgets, &models, &observer));
    }
    ExitCode::SUCCESS
}

/// The budgets, model set and journal observer the `SPOTLIGHT_*`
/// environment asks for.
fn read_env() -> Result<(Budgets, Vec<Model>, Observer), String> {
    let lookup = |name: &str| std::env::var(name).ok();
    let budgets = Budgets::parse(&lookup)?;
    let models = parse_models(&lookup)?;
    let observer = match lookup("SPOTLIGHT_JOURNAL").filter(|path| !path.is_empty()) {
        None => Observer::null(),
        Some(path) => {
            let writer = JournalWriter::create(&path)
                .map_err(|e| format!("cannot open SPOTLIGHT_JOURNAL={path}: {e}"))?;
            Observer::new(Arc::new(writer))
        }
    };
    Ok((budgets, models, observer))
}
