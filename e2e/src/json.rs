//! The little JSON the benchmark needs: it writes its results, and reads them
//! back from its own child processes (`e2e` with no workload, `e2e aa`) and
//! from `BENCHMARK.json` in the tests. No crate for this resolves offline.

use std::fmt;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A whole number, printed without a fraction.
    Int(u64),
    /// A measurement, printed with every digit it has.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept: results read better in the order they were made.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    pub fn nums(xs: &[f64]) -> Json {
        Json::Arr(xs.iter().copied().map(Json::Num).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(xs) => xs,
            _ => &[],
        }
    }

    pub fn pairs(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(ps) => ps,
            _ => &[],
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.space();
        if p.at != p.s.len() {
            return Err(format!("trailing text at byte {}", p.at));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            // JSON has no NaN or infinity; a measurement that is neither a
            // number nor finite is a bug worth seeing as `null`.
            Json::Num(x) if !x.is_finite() => f.write_str("null"),
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(xs) => {
                f.write_str("[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Json::str(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, word: &str) -> bool {
        let hit = self.s[self.at..].starts_with(word.as_bytes());
        if hit {
            self.at += word.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.s.get(self.at) {
            None => Err("unexpected end".into()),
            Some(b'{') => {
                self.at += 1;
                let mut pairs = Vec::new();
                loop {
                    self.space();
                    if self.eat("}") {
                        return Ok(Json::Obj(pairs));
                    }
                    if !pairs.is_empty() && !self.eat(",") {
                        return Err(format!("expected `,` at byte {}", self.at));
                    }
                    self.space();
                    let key = self.string()?;
                    self.space();
                    if !self.eat(":") {
                        return Err(format!("expected `:` at byte {}", self.at));
                    }
                    pairs.push((key, self.value()?));
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut xs = Vec::new();
                loop {
                    self.space();
                    if self.eat("]") {
                        return Ok(Json::Arr(xs));
                    }
                    if !xs.is_empty() && !self.eat(",") {
                        return Err(format!("expected `,` at byte {}", self.at));
                    }
                    xs.push(self.value()?);
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.at]).expect("ascii");
                match text.parse::<u64>() {
                    Ok(n) => Ok(Json::Int(n)),
                    Err(_) => text
                        .parse::<f64>()
                        .map(Json::Num)
                        .map_err(|_| format!("bad value at byte {start}")),
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.at));
        }
        let mut out = Vec::new();
        loop {
            match self.s.get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.at + 1).ok_or("unterminated escape")?;
                    self.at += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self.s.get(self.at..self.at + 4).ok_or("short \\u")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            out.extend_from_slice(code.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(b) => {
                    out.push(*b);
                    self.at += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn what_is_written_reads_back() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("value", Json::Num(1.2034)),
            ("name", Json::str("a \"quoted\" \\ line\nbreak")),
            ("list", Json::Arr(vec![Json::Null, Json::Num(-0.5e-3)])),
            ("empty", Json::obj(Vec::<(String, Json)>::new())),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert!(text.contains("\"attempted\": 1000,"), "{text}");
        assert!(text.contains("1.2034"), "{text}");
    }

    #[test]
    fn malformed_text_is_an_error_and_nan_is_null() {
        for bad in ["", "{", "[1 2]", "{\"a\" 1}", "\"open", "tru", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn lookups() {
        let v = Json::parse(r#"{"a": {"b": [1, 2.5, "x"]}}"#).unwrap();
        let b = v.get("a").and_then(|a| a.get("b")).unwrap();
        assert_eq!(b.items()[0].as_f64(), Some(1.0));
        assert_eq!(b.items()[1].as_f64(), Some(2.5));
        assert_eq!(b.items()[2].as_str(), Some("x"));
        assert!(v.get("zzz").is_none());
        assert_eq!(v.pairs().len(), 1);
    }
}
