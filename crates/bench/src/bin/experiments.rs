//! The reproduction record: `experiments <id>…` prints each named
//! display item in full; bare `experiments` runs the whole catalog,
//! prints one verdict line per item and fails when any verdict does.

use clustream_bench::catalog::{catalog, summarize};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut items = catalog();
    let ids: Vec<String> = std::env::args().skip(1).collect();
    if let Some(id) = ids.iter().find(|id| !items.iter().any(|i| i.id == **id)) {
        let valid: Vec<&str> = items.iter().map(|i| i.id).collect();
        eprintln!("unknown experiment `{id}`; valid ids: {}", valid.join(", "));
        return ExitCode::from(2);
    }
    if !ids.is_empty() {
        items.retain(|i| ids.iter().any(|id| id == i.id));
    }
    let reports: Vec<_> = items.iter().map(|i| (i.id, (i.run)())).collect();
    let (summary, failed) = summarize(&reports);
    match ids.is_empty() {
        true => print!("{summary}"),
        false => reports.iter().for_each(|(_, r)| print!("{}", r.text)),
    }
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("experiments: verdict FAILED for {}", failed.join(", "));
    ExitCode::FAILURE
}
