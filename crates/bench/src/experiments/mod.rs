//! The experiment suite: one module per table/figure of EXPERIMENTS.md.
//!
//! Each `run()` returns a [`crate::table::Table`]; the `harness`
//! binary prints them. Sizes are chosen so a debug run of the whole suite
//! stays under a minute; a `--release` run is what EXPERIMENTS.md records.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e13;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod f1;
pub mod f10;
pub mod f2;
pub mod f3;
pub mod f5;
pub mod f6;
pub mod f8;

use crate::table::{ms, timed, Table};
use alexander_core::{Engine, Strategy};
use alexander_ir::Atom;

/// An experiment id and the function that regenerates its table.
pub type Experiment = (&'static str, fn() -> Table);

/// Every experiment, in report order: the one list [`all`], [`by_id`] and
/// [`ids`] read.
pub const EXPERIMENTS: [Experiment; 19] = [
    ("e1", e1::run),
    ("e2", e2::run),
    ("e3", e3::run),
    ("e4", e4::run),
    ("e5", e5::run),
    ("e6", e6::run),
    ("e7", e7::run),
    ("e8", e8::run),
    ("e9", e9::run),
    ("e10", e10::run),
    ("e11", e11::run),
    ("e13", e13::run),
    ("f1", f1::run),
    ("f2", f2::run),
    ("f3", f3::run),
    ("f5", f5::run),
    ("f6", f6::run),
    ("f8", f8::run),
    ("f10", f10::run),
];

/// Runs every experiment, in report order.
pub fn all() -> Vec<Table> {
    EXPERIMENTS.iter().map(|(_, run)| run()).collect()
}

/// Runs one experiment looked up by id (case-insensitive).
pub fn by_id(id: &str) -> Option<Table> {
    lookup(id).map(|run| run())
}

/// All experiment ids, in report order.
pub fn ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id)
}

fn lookup(id: &str) -> Option<fn() -> Table> {
    EXPERIMENTS
        .iter()
        .find(|(known, _)| known.eq_ignore_ascii_case(id))
        .map(|&(_, run)| run)
}

/// The per-strategy row every comparison table shares: run the query, report
/// answers / facts / calls / inference counters / time.
pub(crate) fn strategy_row(engine: &Engine, query: &Atom, strategy: Strategy) -> Vec<String> {
    let (result, elapsed) = timed(|| engine.query(query, strategy));
    match result {
        Ok(r) => {
            let (firings, iters) = match (&r.report.eval, &r.report.oldt) {
                (Some(m), _) => (m.firings, m.iterations),
                (None, Some(m)) => (m.resolution_steps, 0),
                _ => (0, 0),
            };
            vec![
                strategy.name().to_string(),
                r.answers.len().to_string(),
                r.report.facts_materialised.to_string(),
                r.report
                    .calls
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "-".into()),
                firings.to_string(),
                iters.to_string(),
                ms(elapsed),
            ]
        }
        Err(e) => {
            let reason = match e {
                alexander_core::EngineError::Eval(_) => "n/a (needs negation support)",
                alexander_core::EngineError::Topdown(_) => "n/a (not stratified)",
                _ => "error",
            };
            vec![
                strategy.name().to_string(),
                reason.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]
        }
    }
}

/// Header matching [`strategy_row`].
pub(crate) const STRATEGY_COLUMNS: [&str; 7] = [
    "strategy",
    "answers",
    "facts",
    "calls",
    "inferences",
    "rounds",
    "time_ms",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_id_resolves_without_running() {
        let ids: Vec<&str> = ids().collect();
        assert_eq!(ids.len(), 19);
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "duplicate id {id}");
            assert!(lookup(id).is_some(), "{id}");
            assert!(lookup(&id.to_ascii_uppercase()).is_some(), "{id}");
        }
        assert!(lookup("nope").is_none());
        for retired in ["f4", "f9", "e12"] {
            assert!(lookup(retired).is_none(), "{retired} is retired");
        }
    }
}
