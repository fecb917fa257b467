//! Bulk-loading relations from delimited text (CSV/TSV).
//!
//! Downstream users keep their extensional data in flat files; this module
//! turns them into [`Database`] relations without going through the program
//! parser. Each line is one row; each cell is an integer if it parses as
//! one, otherwise a symbolic constant (surrounding whitespace trimmed).
//!
//! Errors carry everything needed to fix the input without opening it: the
//! file path (when loading from one), the 1-based line number, and the
//! offending token when one can be pinpointed. Malformed input — truncated
//! lines, wrong arity, non-UTF-8 bytes — is always a [`LoadError`], never a
//! panic.

use crate::database::Database;
use alexander_ir::{Const, Predicate};
use std::fmt;
use std::io::BufRead;
use std::path::PathBuf;

/// Errors from bulk loading: located, self-describing, displayable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadError {
    /// The file being loaded, when known (`None` for in-memory readers).
    pub path: Option<PathBuf>,
    /// 1-based line number; 0 when the failure precedes any line (e.g. the
    /// file could not be opened).
    pub line: usize,
    /// The offending token (a cell, or the whole line), when one exists.
    pub token: Option<String>,
    pub message: String,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "load error")?;
        if let Some(p) = &self.path {
            write!(f, " in {}", p.display())?;
        }
        if self.line > 0 {
            write!(f, " at line {}", self.line)?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(t) = &self.token {
            write!(f, " (offending input: `{t}`)")?;
        }
        Ok(())
    }
}

impl std::error::Error for LoadError {}

impl LoadError {
    fn at(line: usize, message: impl Into<String>) -> LoadError {
        LoadError {
            path: None,
            line,
            token: None,
            message: message.into(),
        }
    }

    fn with_token(mut self, token: impl Into<String>) -> LoadError {
        self.token = Some(token.into());
        self
    }

    /// Stamps the file path onto an error produced by a path-less reader.
    fn in_file(mut self, path: &std::path::Path) -> LoadError {
        self.path = Some(path.to_path_buf());
        self
    }
}

/// Parses one cell: integers when they look like one, symbols otherwise.
fn cell(s: &str) -> Const {
    let s = s.trim();
    match s.parse::<i64>() {
        Ok(n) => Const::Int(n),
        Err(_) => Const::sym(s),
    }
}

/// Loads tuples for `pred` from `reader`, one tuple per line, cells split on
/// `delimiter`. Empty lines and lines starting with `#` are skipped. Every
/// data line must have exactly `pred.arity` cells. Returns the number of
/// *new* tuples.
pub fn load_delimited(
    db: &mut Database,
    pred: Predicate,
    reader: impl BufRead,
    delimiter: char,
) -> Result<usize, LoadError> {
    let mut added = 0usize;
    for (i, line) in reader.lines().enumerate() {
        let lineno = i + 1;
        // Non-UTF-8 bytes surface here as `InvalidData`; keep the io error
        // text (it names the kind) but pin it to the line it happened on.
        let line = line.map_err(|e| LoadError::at(lineno, e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let cells: Vec<Const> = trimmed.split(delimiter).map(cell).collect();
        if cells.len() != pred.arity {
            return Err(LoadError::at(
                lineno,
                format!(
                    "expected {} cells for {pred}, found {}",
                    pred.arity,
                    cells.len()
                ),
            )
            .with_token(trimmed));
        }
        if db.insert_row(pred, &cells) {
            added += 1;
        }
    }
    Ok(added)
}

/// [`load_delimited`] over a file path; the delimiter defaults by extension
/// (`.tsv` → tab, otherwise comma). Errors name the file.
pub fn load_file(
    db: &mut Database,
    pred: Predicate,
    path: &std::path::Path,
) -> Result<usize, LoadError> {
    let delimiter = match path.extension().and_then(|e| e.to_str()) {
        Some("tsv") => '\t',
        _ => ',',
    };
    let file =
        std::fs::File::open(path).map_err(|e| LoadError::at(0, e.to_string()).in_file(path))?;
    load_delimited(db, pred, std::io::BufReader::new(file), delimiter).map_err(|e| e.in_file(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alexander_ir::Term;

    #[test]
    fn loads_csv_with_mixed_cell_types() {
        let mut db = Database::new();
        let pred = Predicate::new("score", 2);
        let n = load_delimited(
            &mut db,
            pred,
            "alice, 10\nbob, 25\n\n# comment\ncarol, -3\n".as_bytes(),
            ',',
        )
        .unwrap();
        assert_eq!(n, 3);
        assert!(db.contains_atom(&alexander_ir::atom(
            "score",
            [Term::sym("alice"), Term::int(10)]
        )));
        assert!(db.contains_atom(&alexander_ir::atom(
            "score",
            [Term::sym("carol"), Term::int(-3)]
        )));
    }

    #[test]
    fn duplicate_lines_count_once() {
        let mut db = Database::new();
        let pred = Predicate::new("e", 2);
        let n = load_delimited(&mut db, pred, "a,b\na,b\nb,c\n".as_bytes(), ',').unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.len_of(pred), 2);
    }

    #[test]
    fn arity_mismatch_is_located_with_the_offending_line() {
        let mut db = Database::new();
        let pred = Predicate::new("e", 2);
        let err = load_delimited(&mut db, pred, "a,b\na,b,c\n".as_bytes(), ',').unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("expected 2 cells"), "{err}");
        assert_eq!(err.token.as_deref(), Some("a,b,c"));
        assert!(err.to_string().contains("`a,b,c`"), "{err}");
    }

    #[test]
    fn truncated_last_line_still_loads_or_errors_cleanly() {
        // No trailing newline: the final (complete) cells still count.
        let mut db = Database::new();
        let pred = Predicate::new("e", 2);
        let n = load_delimited(&mut db, pred, "a,b\nb,c".as_bytes(), ',').unwrap();
        assert_eq!(n, 2);
        // A line cut *inside* its cells is an arity error pointing at it.
        let mut db = Database::new();
        let err = load_delimited(&mut db, pred, "a,b\nb".as_bytes(), ',').unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.token.as_deref(), Some("b"));
    }

    #[test]
    fn non_utf8_bytes_are_a_located_error_not_a_panic() {
        let mut db = Database::new();
        let pred = Predicate::new("e", 2);
        let bytes: &[u8] = b"a,b\n\xFF\xFE,c\n";
        let err = load_delimited(&mut db, pred, bytes, ',').unwrap_err();
        assert_eq!(err.line, 2, "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        // The valid prefix was inserted before the error line.
        assert_eq!(db.len_of(pred), 1);
    }

    #[test]
    fn file_errors_name_the_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("alexander_load_err.csv");
        std::fs::write(&path, "x,y\nbad\n").unwrap();
        let mut db = Database::new();
        let err = load_file(&mut db, Predicate::new("e", 2), &path).unwrap_err();
        assert_eq!(err.path.as_deref(), Some(path.as_path()));
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("alexander_load_err.csv"), "{err}");
        std::fs::remove_file(&path).ok();

        let missing = dir.join("alexander_definitely_missing.csv");
        let err = load_file(&mut db, Predicate::new("e", 2), &missing).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(
            err.to_string().contains("alexander_definitely_missing"),
            "{err}"
        );
    }

    #[test]
    fn tsv_delimiter() {
        let mut db = Database::new();
        let pred = Predicate::new("e", 3);
        let n = load_delimited(&mut db, pred, "a\tb\t7\n".as_bytes(), '\t').unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn file_loading_by_extension() {
        let dir = std::env::temp_dir();
        let path = dir.join("alexander_load_test.csv");
        std::fs::write(&path, "x,y\ny,z\n").unwrap();
        let mut db = Database::new();
        let n = load_file(&mut db, Predicate::new("e", 2), &path).unwrap();
        assert_eq!(n, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loaded_relation_feeds_evaluation() {
        // End-to-end within the crate: loaded tuples are ordinary relation
        // rows (indexable, probe-able).
        let mut db = Database::new();
        let pred = Predicate::new("e", 2);
        load_delimited(&mut db, pred, "1,2\n2,3\n3,4\n".as_bytes(), ',').unwrap();
        db.ensure_index(pred, crate::relation::Mask::of_columns(&[0]));
        let rel = db.relation(pred).unwrap();
        let key = [Const::Int(2)];
        let (hits, indexed) = rel.probe(crate::relation::Mask::of_columns(&[0]), &key);
        assert!(indexed);
        assert_eq!(hits.count(), 1);
    }
}
