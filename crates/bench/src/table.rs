//! Experiment tables: the harness's output format.
//!
//! Every experiment produces a [`Table`]; the harness renders them as
//! GitHub-flavoured markdown (for EXPERIMENTS.md) and optionally as JSON
//! (for diffing runs).

use std::fmt;

/// One experiment's result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id, e.g. `"E1"` or `"F2"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// What the experiment demonstrates (one paragraph).
    pub note: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given id/title/columns.
    pub fn new(id: &str, title: &str, note: &str, columns: &[&str]) -> Table {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            note: note.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; panics if the cell count does not match the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push(cells);
    }

    /// Renders the table as a pretty-printed JSON object. Hand-rolled because
    /// the build environment has no registry access for serde; every value in
    /// a table is a string, so the format is trivial.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_str(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        out.push_str(&format!("  \"note\": {},\n", json_str(&self.note)));
        out.push_str(&format!(
            "  \"columns\": {},\n",
            json_str_array(&self.columns)
        ));
        out.push_str("  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&json_str_array(row));
        }
        if !self.rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", cells.join(", "))
}

/// Renders a run's tables as a JSON array (the `--json`/`--out` format).
pub fn tables_to_json(tables: &[Table]) -> String {
    let mut out = String::from("[");
    for (i, t) in tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&t.to_json());
    }
    if !tables.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// A cursor over the JSON [`tables_to_json`] emits (strings, arrays and one
/// known object shape); every `parse_*` leaves it after what it read.
struct JsonReader<'a> {
    rest: std::str::Chars<'a>,
}

impl JsonReader<'_> {
    fn peek(&mut self) -> Option<char> {
        self.rest = self.rest.as_str().trim_start().chars();
        self.rest.clone().next()
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match (self.peek(), self.rest.next()) {
            (Some(c), _) if c == want => Ok(()),
            (got, _) => Err(format!("expected `{want}`, found {got:?}")),
        }
    }

    /// Comma-separated items up to `close`, each read by `item`.
    fn parse_seq<T>(
        &mut self,
        close: char,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        while self.peek() != Some(close) {
            if !out.is_empty() {
                self.expect(',')?;
            }
            out.push(item(self)?);
        }
        self.expect(close)?;
        Ok(out)
    }

    fn parse_str(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.rest.next().ok_or("unterminated string")? {
                '"' => return Ok(out),
                '\\' => match self.rest.next().ok_or("unterminated escape")? {
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex: String = self.rest.by_ref().take(4).collect();
                        let code = u32::from_str_radix(&hex, 16).ok();
                        out.push(code.and_then(char::from_u32).ok_or("bad \\u escape")?);
                    }
                    c => out.push(c),
                },
                c => out.push(c),
            }
        }
    }

    fn parse_strings(&mut self) -> Result<Vec<String>, String> {
        self.expect('[')?;
        self.parse_seq(']', Self::parse_str)
    }

    fn parse_table(&mut self) -> Result<Table, String> {
        let mut t = Table::new("", "", "", &[]);
        self.expect('{')?;
        self.parse_seq('}', |r| {
            let key = r.parse_str()?;
            r.expect(':')?;
            match key.as_str() {
                "id" => t.id = r.parse_str()?,
                "title" => t.title = r.parse_str()?,
                "note" => t.note = r.parse_str()?,
                "columns" => t.columns = r.parse_strings()?,
                "rows" => {
                    r.expect('[')?;
                    t.rows = r.parse_seq(']', Self::parse_strings)?;
                }
                other => return Err(format!("unexpected table field `{other}`")),
            }
            Ok(())
        })?;
        Ok(t)
    }
}

/// Reads back what [`tables_to_json`] wrote (a `--out` file or a committed
/// `BENCH_*.json`).
pub fn tables_from_json(text: &str) -> Result<Vec<Table>, String> {
    let mut reader = JsonReader { rest: text.chars() };
    reader.expect('[')?;
    reader.parse_seq(']', JsonReader::parse_table)
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "### {} — {}", self.id, self.title)?;
        writeln!(f)?;
        writeln!(f, "{}", self.note)?;
        writeln!(f)?;
        // Column widths for aligned markdown.
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render_row = |cells: &[String], f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:<w$} |", c, w = widths[i])?;
            }
            writeln!(f)
        };
        render_row(&self.columns, f)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            render_row(row, f)?;
        }
        Ok(())
    }
}

/// Milliseconds with two decimals — the tables' time format.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Runs `f`, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("E0", "demo", "a note", &["strategy", "facts"]);
        t.row(vec!["naive".into(), "120".into()]);
        t.row(vec!["alexander".into(), "7".into()]);
        let s = t.to_string();
        assert!(s.contains("### E0 — demo"));
        assert!(s.contains("| strategy  | facts |"));
        assert!(s.contains("| alexander | 7     |"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_checked() {
        let mut t = Table::new("E0", "demo", "", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_rendering_escapes_and_nests() {
        let mut t = Table::new("F0", "json \"demo\"", "line\nbreak", &["k", "v"]);
        t.row(vec!["a\\b".into(), "1".into()]);
        let json = tables_to_json(&[t]);
        assert!(json.starts_with('['));
        assert!(json.contains("\"json \\\"demo\\\"\""));
        assert!(json.contains("\"line\\nbreak\""));
        assert!(json.contains("[\"a\\\\b\", \"1\"]"));
        assert!(json.ends_with(']'));
    }

    #[test]
    fn json_round_trips() {
        let mut t = Table::new("F0", "json \"demo\"", "line\nbreak\u{1}", &["k", "v"]);
        t.row(vec!["a\\b".into(), "1".into()]);
        let empty = Table::new("F1", "", "", &["only"]);
        let back = tables_from_json(&tables_to_json(&[t.clone(), empty])).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!((&back[0].id, &back[0].title), (&t.id, &t.title));
        assert_eq!(back[0].note, t.note);
        assert_eq!((&back[0].columns, &back[0].rows), (&t.columns, &t.rows));
        assert!(back[1].rows.is_empty());
        assert!(tables_from_json("[{\"id\": 7}]").is_err());
        assert!(tables_from_json("[{\"id\": \"x\"").is_err());
    }

    #[test]
    fn timing_helpers() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        let s = ms(d);
        assert!(s.parse::<f64>().is_ok());
    }
}
