//! The CI perf gates: one table of what each gated experiment must keep,
//! checked by `harness gate <id> <run-a.json> <run-b.json>` against the
//! committed `BENCH_<ID>.json`.
//!
//! Every gate uses the same estimator: the harness runs twice and the
//! better run is compared (best-of-2 — shared runners occasionally show
//! one-off >30% slowdowns that a single sample would misreport as a
//! regression).

use crate::table::{tables_from_json, Table};

/// What one experiment's gate checks.
pub struct Gate {
    /// Table id, e.g. `"F6"`.
    pub id: &'static str,
    /// The gated column (higher is better).
    column: &'static str,
    /// `(column, value)` pairs selecting the gated row.
    row: &'static [(&'static str, &'static str)],
    /// A bar the best run must clear whatever the baseline says.
    floor: Option<f64>,
    /// A column of the gated row that must read `yes` in every run (the
    /// experiment's own correctness verdict).
    must_be_yes: Option<&'static str>,
}

/// The best run must reach this fraction of the committed baseline: absolute
/// numbers vary ±10% run to run on shared runners, so the band is 20%.
const BAND: f64 = 0.8;

/// Every CI perf gate. F6 asserts the arena and legacy engines agree
/// counter for counter before timing, F8 that recovery reproduces the
/// writer's fact count, F10 that counting == DRed == recompute — so each
/// gate is also a release-mode correctness check. Serving throughput is not
/// gated here: the `e2e` benchmark's `serve.*` workloads measure it over
/// real TCP.
pub const GATES: [Gate; 3] = [
    Gate {
        id: "F6",
        column: "arena_facts_per_sec",
        row: &[("workload", "chain(450)"), ("strategy", "seminaive")],
        floor: None,
        must_be_yes: None,
    },
    Gate {
        id: "F8",
        column: "load_facts_per_sec",
        row: &[("workload", "edbload(200000)")],
        floor: None,
        must_be_yes: None,
    },
    Gate {
        id: "F10",
        column: "speedup",
        row: &[("workload", "chain(512)"), ("batch", "1")],
        // The headline claim, runner-independent because it is a ratio of
        // two timings from the same run: a single-edge delete beats full
        // recompute by at least 10x.
        floor: Some(10.0),
        must_be_yes: Some("identical"),
    },
];

impl Gate {
    /// The gated value of one run's JSON.
    fn read(&self, json: &str) -> Result<f64, String> {
        let tables = tables_from_json(json)?;
        let table: &Table = tables
            .iter()
            .find(|t| t.id == self.id)
            .ok_or_else(|| format!("no {} table", self.id))?;
        let col = |name: &str| {
            table
                .columns
                .iter()
                .position(|c| c == name)
                .ok_or_else(|| format!("{} has no column `{name}`", self.id))
        };
        let selector: Vec<(usize, &str)> = self
            .row
            .iter()
            .map(|&(c, v)| Ok((col(c)?, v)))
            .collect::<Result<_, String>>()?;
        let row = table
            .rows
            .iter()
            .find(|r| selector.iter().all(|&(c, v)| r[c] == v))
            .ok_or_else(|| format!("{} has no row {:?}", self.id, self.row))?;
        if let Some(verdict) = self.must_be_yes {
            if row[col(verdict)?] != "yes" {
                return Err(format!(
                    "{} row {:?}: `{verdict}` is not yes",
                    self.id, self.row
                ));
            }
        }
        row[col(self.column)?]
            .parse()
            .map_err(|e| format!("{} `{}`: {e}", self.id, self.column))
    }

    /// Checks two runs against the baseline; `Ok` carries the report line.
    pub fn check(&self, baseline: &str, run_a: &str, run_b: &str) -> Result<String, String> {
        let base = self.read(baseline)?;
        let best = self.read(run_a)?.max(self.read(run_b)?);
        let report = format!(
            "{} {}: baseline {base}, best of 2 {best} ({:.2} of baseline)",
            self.id,
            self.column,
            best / base
        );
        if self.floor.is_some_and(|floor| best < floor) {
            return Err(format!(
                "{report} — below the hard floor of {:?}",
                self.floor
            ));
        }
        if best < BAND * base {
            return Err(format!(
                "{report} — more than {:.0}% below the committed baseline",
                (1.0 - BAND) * 100.0
            ));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tables_to_json;

    fn f10(speedup: &str, identical: &str) -> String {
        let mut t = Table::new(
            "F10",
            "",
            "",
            &["workload", "batch", "speedup", "identical"],
        );
        t.row(vec![
            "chain(512)".into(),
            "16".into(),
            "0.0".into(),
            "yes".into(),
        ]);
        t.row(vec![
            "chain(512)".into(),
            "1".into(),
            speedup.into(),
            identical.into(),
        ]);
        tables_to_json(&[t])
    }

    #[test]
    fn best_of_two_is_held_to_band_floor_and_verdict() {
        let gate = GATES.iter().find(|g| g.id == "F10").unwrap();
        let base = f10("47.1", "yes");
        // One bad sample is forgiven; the better run is what counts.
        assert!(gate
            .check(&base, &f10("20.0", "yes"), &f10("45.0", "yes"))
            .is_ok());
        let err = gate
            .check(&base, &f10("30.0", "yes"), &f10("12.0", "yes"))
            .unwrap_err();
        assert!(err.contains("20% below"), "{err}");
        let low = f10("11.0", "yes");
        let err = gate
            .check(&low, &f10("9.0", "yes"), &f10("9.5", "yes"))
            .unwrap_err();
        assert!(err.contains("hard floor"), "{err}");
        let err = gate
            .check(&base, &f10("50.0", "no"), &f10("50.0", "yes"))
            .unwrap_err();
        assert!(err.contains("`identical` is not yes"), "{err}");
        assert!(gate
            .check(&base, "[]", &base)
            .unwrap_err()
            .contains("no F10 table"));
    }

    #[test]
    fn every_gate_reads_its_committed_baseline() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for gate in &GATES {
            let json = std::fs::read_to_string(format!("{root}/BENCH_{}.json", gate.id)).unwrap();
            let value = gate.read(&json).unwrap();
            assert!(
                gate.check(&json, &json, &json).is_ok(),
                "{}: {value}",
                gate.id
            );
        }
    }
}
