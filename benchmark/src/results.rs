//! Results files and the compare mode.
//!
//! Every run appends one JSON line — workload, seed, environment and
//! every metric it measured — to a results file. `compare` reads two
//! such files and reports, per workload and metric, both medians with
//! their quartiles, the change and a verdict.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::catalog::{self, Better};
use crate::stats::Summary;

/// A JSON value; objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Shortest round-trip form: every digit as measured.
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }
}

/// Nesting deeper than this is refused rather than recursed into.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("JSON nested too deeply".into());
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
            None => Err("unexpected end of JSON".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at offset {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // `pos` only ever advances by whole characters.
            let rest = &self.text[self.pos..];
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars.next().ok_or("unterminated escape")?;
                    self.pos += e.len_utf8();
                    match e {
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            let hex = rest.get(2..6).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

/// One run as the results file records it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub env: Vec<(String, String)>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, String)>,
}

fn metric_object(metrics: &[(String, f64, String)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str(unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

impl Record {
    /// The result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter limited to `names`.
    pub fn result_line(&self, names: &[&str]) -> String {
        let chosen: Vec<(String, f64, String)> = names
            .iter()
            .filter_map(|n| self.metrics.iter().find(|m| m.0 == *n).cloned())
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), metric_object(&chosen)),
        ])
        .to_line()
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            // Seeds travel as strings: a u64 need not fit an f64.
            ("seed".into(), Json::Str(self.seed.to_string())),
            ("trace".into(), Json::Bool(self.trace)),
            (
                "env".into(),
                Json::Obj(
                    self.env
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), metric_object(&self.metrics)),
        ])
    }

    pub fn from_json(json: &Json) -> Result<Record, String> {
        let field = |key: &str| json.get(key).ok_or(format!("record lacks `{key}`"));
        let text = |key: &str| -> Result<String, String> {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or(format!("`{key}` is not a string"))
        };
        let count = |key: &str| -> Result<u64, String> {
            field(key)?
                .as_f64()
                .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                .map(|v| v as u64)
                .ok_or(format!("`{key}` is not a count"))
        };
        let flag = |key: &str| -> Result<bool, String> {
            match field(key)? {
                Json::Bool(b) => Ok(*b),
                _ => Err(format!("`{key}` is not a boolean")),
            }
        };
        let env = field("env")?
            .as_object()
            .ok_or("`env` is not an object")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_str().ok_or("env value")?.to_string())))
            .collect::<Result<Vec<_>, String>>()?;
        let metrics = field("metrics")?
            .as_object()
            .ok_or("`metrics` is not an object")?
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or("metric value")?;
                let unit = m.get("unit").and_then(Json::as_str).ok_or("metric unit")?;
                Ok((name.clone(), value, unit.to_string()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Record {
            workload: text("workload")?,
            seed: text("seed")?.parse().map_err(|_| "`seed` is not a u64")?,
            trace: flag("trace")?,
            env,
            correct: flag("correct")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// Parses a results file: one record per non-empty line.
pub fn parse_file(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            Json::parse(line)
                .and_then(|j| Record::from_json(&j))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Change from `a` to `b` as a share of `a`'s median, signed so that a
/// positive value is a worsening.
pub fn worsening(a: &Summary, b: &Summary, better: Better) -> f64 {
    if a.median == 0.0 {
        return if b.median == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let rel = (b.median - a.median) / a.median.abs();
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// The verdict on one metric. A bounded metric is unresolved when either
/// side's quartile spread exceeds the bound, worse when it worsened by
/// more than the bound, better when it improved by more than the spread
/// with disjoint quartile ranges, and within bound otherwise. An
/// unbounded (per-layer) metric is judged on its quartile ranges alone.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: Option<f64>) -> Verdict {
    let worse_by = worsening(a, b, better);
    let spread = a.spread().max(b.spread());
    let disjoint = a.q3 < b.q1 || b.q3 < a.q1;
    match bound {
        Some(bound) if spread > bound => Verdict::Unresolved,
        Some(bound) if worse_by > bound => Verdict::Worse,
        _ if disjoint && worse_by < 0.0 && -worse_by > spread => Verdict::Better,
        Some(_) => Verdict::WithinBound,
        None if worse_by == 0.0 => Verdict::WithinBound,
        None if disjoint => {
            if worse_by > 0.0 {
                Verdict::Worse
            } else {
                Verdict::Better
            }
        }
        None => Verdict::Unresolved,
    }
}

/// Values of every `(workload, metric)` pair across a file's runs.
fn collect(records: &[Record]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in records {
        for (name, value, _) in &r.metrics {
            out.entry((r.workload.clone(), name.clone()))
                .or_default()
                .push(*value);
        }
    }
    out
}

/// The compare table for two results files (`a` the reference).
pub fn compare(a: &[Record], b: &[Record]) -> String {
    let (a, b) = (collect(a), collect(b));
    let mut out = String::from(
        "| workload | metric | A median [q1, q3] (n) | B median [q1, q3] (n) | delta | verdict |\n\
         |---|---|---|---|---|---|\n",
    );
    for ((workload, name), a_values) in &a {
        let Some(b_values) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let (sa, sb) = (Summary::of(a_values), Summary::of(b_values));
        let spec = catalog::find(name);
        let better = spec.map_or(Better::Lower, |m| m.better);
        let bound = spec.and_then(|m| m.bound);
        let delta = if sa.median == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:+.2}%", (sb.median - sa.median) / sa.median.abs() * 100.0)
        };
        let _ = writeln!(
            out,
            "| {workload} | {name} | {:.6} [{:.6}, {:.6}] ({}) | {:.6} [{:.6}, {:.6}] ({}) | {delta} | {} |",
            sa.median,
            sa.q1,
            sa.q3,
            sa.n,
            sb.median,
            sb.q1,
            sb.q3,
            sb.n,
            verdict(&sa, &sb, better, bound).name()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64, campaign_s: f64) -> Record {
        Record {
            workload: "fig8-sweep".into(),
            seed,
            trace: false,
            env: vec![
                ("nproc".into(), "2".into()),
                ("cpu".into(), "a \"quoted\" cpu".into()),
            ],
            correct: true,
            attempted: 25,
            failed: 0,
            metrics: vec![
                ("campaign_s".into(), campaign_s, "s".into()),
                ("setup_s".into(), 1.25e-5, "s".into()),
            ],
        }
    }

    #[test]
    fn results_file_round_trips() {
        let records = vec![record(u64::MAX, 14.031_415_926_535), record(7, 0.1 + 0.2)];
        let text: String = records
            .iter()
            .map(|r| r.to_json().to_line() + "\n")
            .collect();
        assert_eq!(parse_file(&text).unwrap(), records);
        assert!(parse_file("{\"workload\":1}\n").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let line = record(1, 2.5).result_line(&["campaign_s"]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":25,\"failed\":0,\
             \"metrics\":{\"campaign_s\":{\"value\":2.5,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn json_parses_nested_values_and_escapes() {
        let j = Json::parse(r#" {"a": [1, -2.5e3, true, null], "b": "x\"A"} "#).unwrap();
        assert_eq!(
            j.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(4)
        );
        assert_eq!(j.get("b").and_then(Json::as_str), Some("x\"A"));
        assert!(Json::parse("[1,").is_err());
        assert!(Json::parse(&"[".repeat(100)).is_err());
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let s = |v: &[f64]| Summary::of(v);
        let base = s(&[10.0, 10.1, 9.9, 10.0, 10.05]);
        let slower = s(&[12.0, 12.1, 11.9, 12.0, 12.05]);
        let faster = s(&[8.0, 8.1, 7.9, 8.0, 8.05]);
        let close = s(&[10.2, 10.3, 10.1, 10.2, 10.25]);
        let noisy = s(&[5.0, 15.0, 10.5, 7.0, 13.0]);
        assert_eq!(
            verdict(&base, &slower, Better::Lower, Some(0.1)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &faster, Better::Lower, Some(0.1)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &close, Better::Lower, Some(0.1)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, Some(0.1)),
            Verdict::Unresolved
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&base, &slower, Better::Higher, Some(0.1)),
            Verdict::Better
        );
        // Unbounded metrics: disjoint quartiles decide, overlap is open.
        assert_eq!(verdict(&base, &slower, Better::Lower, None), Verdict::Worse);
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, None),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &base, Better::Lower, None),
            Verdict::WithinBound
        );
    }

    #[test]
    fn compare_lists_shared_metrics() {
        let a = vec![record(1, 10.0), record(2, 10.2), record(3, 9.8)];
        // campaign_s is bounded at 0.25; a 30% slowdown is a regression.
        let b = vec![record(1, 13.0), record(2, 13.2), record(3, 12.8)];
        let table = compare(&a, &b);
        assert!(table.contains("| fig8-sweep | campaign_s |"));
        assert!(table.contains("+30.00%"));
        assert!(table.contains("| worse |"));
    }
}
