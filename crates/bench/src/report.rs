//! The one gate harness behind every `bench_*` binary.
//!
//! A binary starts with [`Run::from_args`] (shared flags `--smoke`,
//! `--out PATH`, `--baseline PATH` plus its own value flags; the baseline
//! is read here, before the workload, so `--out` may overwrite it), builds
//! its result as an ordered [`Json`] document, collects its checks as
//! [`Gate`]s and ends with [`Run::finish`], which
//!
//! 1. adds the `baseline_keys` gate: every key of the baseline (and every
//!    gate name in its `gates` list) must still exist in the fresh
//!    document, so a dashboard never silently loses a field;
//! 2. adds the `document_header` gate: the document's `bench` name is the
//!    baseline's, and its `smoke` flag (or `mode`) is the mode it ran in;
//!    then appends the `gates` list, writes the file, reads it back and
//!    fails the run unless it re-parses to the same document;
//! 3. prints an advisory delta table for the numbers baseline and fresh
//!    document share, then the gate table, and returns exit status 1 if
//!    any enforced gate failed.
//!
//! Enforcement: a [`Kind::Deterministic`] gate (counts, exact protocol
//! properties, document checks) is enforced in every mode; a
//! [`Kind::WallClock`] gate only in full runs, since `--smoke` workloads
//! are too small for timings to mean anything. Both kinds are always
//! evaluated and written.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A JSON value whose objects keep their keys in insertion order, so the
/// writer's output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number kept as its literal text: fixed-point formats survive, and
    /// a written document re-parses to an identical value.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// `v` with exactly `decimals` digits after the point (`null` if not
/// finite).
pub fn fixed(v: f64, decimals: usize) -> Json {
    if v.is_finite() {
        Json::Num(format!("{v:.decimals$}"))
    } else {
        Json::Null
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v.to_string())
            }
        }
    )*};
}
json_from_int!(u32, u64, usize, i32);

/// Shortest text that reads back as `v` (`null` if not finite).
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v.to_string())
        } else {
            Json::Null
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

impl Json {
    /// An empty object, to be filled with [`Json::with`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append `key: value` to an object (builder style).
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(members) => members.push((key.to_string(), value.into())),
            _ => panic!("Json::with on a non-object"),
        }
        self
    }

    /// Object member `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member at a dotted path, e.g. `"wire.ring_msgs_per_sec"`.
    pub fn at(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items; empty for anything but an array.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// Object keys in order; empty for anything but an object.
    pub fn keys(&self) -> BTreeSet<&str> {
        match self {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => BTreeSet::new(),
        }
    }

    /// The document as text: two-space indentation, one member per line,
    /// except that an array or object holding only scalars is written on
    /// one line. Ends in a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) => return out.push_str(text),
            Json::Str(s) => return out.push_str(&quote(s)),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(members) => (
                '{',
                '}',
                members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let leaf = members
            .iter()
            .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        let newline = |indent: usize| match leaf {
            true => String::new(),
            false => format!("\n{}", " ".repeat(indent)),
        };
        out.push(open);
        for (i, (key, v)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(if leaf { ", " } else { "," });
            }
            out.push_str(&newline(indent + 2));
            if let Some(k) = key {
                let _ = write!(out, "{}: ", quote(k));
            }
            v.write(out, indent + 2);
        }
        out.push_str(&newline(indent));
        out.push(close);
    }

    /// Parse a complete JSON text.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Visit every value below this one with its path: object members as
    /// `a.b`, array elements as `a[3]`, or all as `a[]` when `fold`.
    fn walk(&self, path: &str, fold: bool, f: &mut impl FnMut(&str, &Json)) {
        let children: Vec<(String, &Json)> = match self {
            Json::Obj(members) => members
                .iter()
                .map(|(k, v)| {
                    (
                        if path.is_empty() {
                            k.clone()
                        } else {
                            format!("{path}.{k}")
                        },
                        v,
                    )
                })
                .collect(),
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    (
                        if fold {
                            format!("{path}[]")
                        } else {
                            format!("{path}[{i}]")
                        },
                        v,
                    )
                })
                .collect(),
            _ => return,
        };
        for (p, v) in children {
            f(&p, v);
            v.walk(&p, fold, f);
        }
    }

    /// Every key path, array elements folded together.
    fn shape(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.walk("", true, &mut |p, _| {
            out.insert(p.to_string());
        });
        out
    }

    /// Every number by path.
    fn numbers(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        self.walk("", false, &mut |p, v| {
            if let Some(x) = v.as_f64() {
                out.insert(p.to_string(), x);
            }
        });
        out
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.list(b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.eat(b':')?;
                    members.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.list(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while self.i < self.b.len() && b"+-.eE0123456789".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).expect("ASCII");
                match text.parse::<f64>() {
                    Ok(_) => Ok(Json::Num(text.to_string())),
                    Err(_) => Err(self.err("bad number")),
                }
            }
            _ => Err(self.err("expected a value")),
        }
    }

    /// Comma-separated items up to `close` (the opening bracket already
    /// consumed).
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(&c) if c == close => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .b
            .get(self.i..self.i + 4)
            .ok_or_else(|| self.err("short \\u escape"))?;
        let text = std::str::from_utf8(digits).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.i += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        if self.b.get(self.i) != Some(&b'"') {
            return Err(self.err("expected a string"));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let c = *self
                .b
                .get(self.i)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.err("bad UTF-8")),
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or_else(|| self.err("bad escape"))?;
                    self.i += 1;
                    let ch = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        // Our writers never split a character into a
                        // surrogate pair; a lone surrogate reads as U+FFFD.
                        b'u' => char::from_u32(self.hex4()?).unwrap_or('\u{FFFD}'),
                        _ => return Err(self.err("bad escape")),
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                }
                c => out.push(c),
            }
        }
    }
}

/// Read and parse a JSON file.
pub fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// When a gate is enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Counts and exact properties: enforced in every mode.
    Deterministic,
    /// Timings: enforced in full runs only.
    WallClock,
}

/// One named check: `value op bound`, e.g. `wire_speedup 4.9 >= 3`.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: String,
    pub value: f64,
    pub op: &'static str,
    pub bound: f64,
    pub pass: bool,
    pub kind: Kind,
}

impl Gate {
    fn cmp(name: &str, value: f64, op: &'static str, bound: f64, pass: bool) -> Gate {
        Gate {
            name: name.to_string(),
            value,
            op,
            bound,
            pass,
            kind: Kind::Deterministic,
        }
    }

    pub fn at_least(name: &str, value: f64, bound: f64) -> Gate {
        Gate::cmp(name, value, ">=", bound, value >= bound)
    }

    pub fn at_most(name: &str, value: f64, bound: f64) -> Gate {
        Gate::cmp(name, value, "<=", bound, value <= bound)
    }

    pub fn above(name: &str, value: f64, bound: f64) -> Gate {
        Gate::cmp(name, value, ">", bound, value > bound)
    }

    pub fn below(name: &str, value: f64, bound: f64) -> Gate {
        Gate::cmp(name, value, "<", bound, value < bound)
    }

    pub fn equal(name: &str, value: f64, bound: f64) -> Gate {
        Gate::cmp(name, value, "==", bound, value == bound)
    }

    /// A yes/no property: value 1 when it holds, bound 1.
    pub fn holds(name: &str, ok: bool) -> Gate {
        Gate::equal(name, ok as u8 as f64, 1.0)
    }

    /// Mark as a timing gate (enforced in full runs only).
    pub fn wall_clock(mut self) -> Gate {
        self.kind = Kind::WallClock;
        self
    }

    pub fn enforced(&self, smoke: bool) -> bool {
        self.kind == Kind::Deterministic || !smoke
    }

    fn to_json(&self, smoke: bool) -> Json {
        let round = |v: f64| (v * 1e4).round() / 1e4;
        Json::obj()
            .with("name", self.name.as_str())
            .with(
                "kind",
                if self.kind == Kind::Deterministic {
                    "deterministic"
                } else {
                    "wall_clock"
                },
            )
            .with("value", round(self.value))
            .with("op", self.op)
            .with("bound", round(self.bound))
            .with("enforced", self.enforced(smoke))
            .with("pass", self.pass)
    }
}

/// Print the gate table; true when every enforced gate passed.
pub fn gate_table(bench: &str, gates: &[Gate], smoke: bool) -> bool {
    let mut ok = true;
    for g in gates {
        let enforced = g.enforced(smoke);
        let verdict = match (g.pass, enforced) {
            (true, _) => "PASS",
            (false, true) => "FAIL",
            (false, false) => "fail (not enforced in --smoke)",
        };
        ok &= g.pass || !enforced;
        println!(
            "  gate {:<40} {:>12.4} {:>2} {:<12.4} {verdict}",
            g.name, g.value, g.op, g.bound
        );
    }
    let n = gates.iter().filter(|g| g.enforced(smoke)).count();
    println!(
        "{bench}: {} ({n} of {} gates enforced)",
        if ok {
            "all enforced gates PASS"
        } else {
            "GATE FAILURE"
        },
        gates.len()
    );
    ok
}

/// Gates over a chrome-trace document written by a binary: it holds
/// events, `lanes` endpoint lanes (when given), and at
/// least one flow arrow whose send and receive sit on different lanes with
/// no receive before its send.
pub fn trace_gates(trace: &Json, lanes: Option<usize>) -> Vec<Gate> {
    let events = trace.get("traceEvents").map_or(&[][..], Json::items);
    let mut gates = vec![Gate::above("trace_events", events.len() as f64, 0.0)];
    if let Some(want) = lanes {
        // Endpoint lanes only: switch-shard counter lanes are named
        // "switch N".
        let pids: BTreeSet<String> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .filter(|e| {
                e.at("args.name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("endpoint"))
            })
            .filter_map(|e| e.get("pid").map(Json::render))
            .collect();
        gates.push(Gate::equal(
            "trace_endpoint_lanes",
            pids.len() as f64,
            want as f64,
        ));
        // flow id -> (send, finish) as (pid, ts)
        let mut flows: BTreeMap<String, [Option<(String, f64)>; 2]> = BTreeMap::new();
        for e in events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("flow"))
        {
            let end = match e.get("ph").and_then(Json::as_str) {
                Some("s") => 0,
                Some("f") => 1,
                _ => continue,
            };
            let id = e.get("id").map(Json::render).unwrap_or_default();
            let pid = e.get("pid").map(Json::render).unwrap_or_default();
            let ts = e.get("ts").and_then(Json::as_f64).unwrap_or(f64::NAN);
            flows.entry(id).or_default()[end] = Some((pid, ts));
        }
        let cross: Vec<(f64, f64)> = flows
            .values()
            .filter_map(|f| match f {
                [Some((sp, st)), Some((fp, ft))] if sp != fp => Some((*st, *ft)),
                _ => None,
            })
            .collect();
        // A missing timestamp (NaN) counts as out of order.
        let backwards = cross
            .iter()
            .filter(|(s, f)| f.partial_cmp(s).is_none_or(|o| o.is_lt()))
            .count();
        gates.push(Gate::at_least("trace_cross_flows", cross.len() as f64, 1.0));
        gates.push(Gate::at_most(
            "trace_receive_before_send",
            backwards as f64,
            0.0,
        ));
    }
    gates
}

/// Gates over the three files `trace_merge` and `trace_scaling` write
/// under `prefix`: the chrome trace ([`trace_gates`] with `lanes` endpoint
/// lanes) and the Prometheus and CSV scrapes, each read back with its
/// header line.
pub fn trace_file_gates(prefix: &str, lanes: usize) -> Vec<Gate> {
    let read = |ext: &str| std::fs::read_to_string(format!("{prefix}.{ext}")).unwrap_or_default();
    let trace = Json::parse(&read("trace.json")).unwrap_or(Json::Null);
    let mut gates = trace_gates(&trace, Some(lanes));
    gates.push(Gate::holds(
        "prom_header",
        read("prom").starts_with("# HELP"),
    ));
    gates.push(Gate::holds("csv_header", read("csv").starts_with("node,")));
    gates
}

/// Prometheus exposition samples: `(series with labels, value)`. A value
/// that does not parse reads as NaN.
pub fn prom_samples(text: &str) -> Vec<(&str, f64)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.rsplit_once(' ').unwrap_or((l, ""));
            (name, value.parse().unwrap_or(f64::NAN))
        })
        .collect()
}

/// A document check named `sizes`: the `n` members of the array at
/// `path` are exactly `want`, in order.
pub fn sizes_gate(doc: &Json, path: &str, want: &[u64]) -> Gate {
    let got: Vec<Option<f64>> = doc
        .get(path)
        .map_or(&[][..], Json::items)
        .iter()
        .map(|p| p.get("n").and_then(Json::as_f64))
        .collect();
    let want: Vec<Option<f64>> = want.iter().map(|&n| Some(n as f64)).collect();
    Gate::holds("sizes", got == want)
}

/// The gates [`Run::finish`] adds itself; a baseline's copies of them are
/// not compared by name.
const FINISH_GATES: [&str; 2] = ["baseline_keys", "document_header"];

/// The parsed command line of one `bench_*` run, with its baseline.
pub struct Run {
    bench: &'static str,
    pub smoke: bool,
    pub out: String,
    baseline_path: Option<String>,
    baseline: Option<Json>,
    flags: Vec<(&'static str, String)>,
}

impl Run {
    /// Parse the process arguments (see [`Run::parse`]); exits 2 with a
    /// usage line on a bad command line.
    pub fn from_args(bench: &'static str, default_out: &str, flags: &[&'static str]) -> Run {
        Run::parse(bench, default_out, flags, std::env::args().skip(1)).unwrap_or_else(|e| {
            let extra: String = flags.iter().map(|f| format!(" [{f} VALUE]")).collect();
            eprintln!("{bench}: {e}");
            eprintln!("usage: {bench} [--smoke] [--out PATH] [--baseline PATH]{extra}");
            std::process::exit(2);
        })
    }

    /// Parse `--smoke`, `--out PATH`, `--baseline PATH` and the value flags
    /// in `flags`, then read the baseline: `--baseline`, else
    /// `default_out` when that file exists.
    pub fn parse(
        bench: &'static str,
        default_out: &str,
        flags: &[&'static str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Run, String> {
        let mut run = Run {
            bench,
            smoke: false,
            out: default_out.to_string(),
            baseline_path: None,
            baseline: None,
            flags: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if a == "--smoke" {
                run.smoke = true;
                continue;
            }
            let mut value = || args.next().ok_or(format!("{a} requires a value"));
            match a.as_str() {
                "--out" => run.out = value()?,
                "--baseline" => run.baseline_path = Some(value()?),
                f => match flags.iter().find(|&&known| known == f) {
                    Some(&known) => run.flags.push((known, value()?)),
                    None => return Err(format!("unknown argument `{a}`")),
                },
            }
        }
        if run.baseline_path.is_none() && std::path::Path::new(default_out).exists() {
            run.baseline_path = Some(default_out.to_string());
        }
        if let Some(path) = &run.baseline_path {
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    run.baseline =
                        Some(Json::parse(&text).map_err(|e| format!("baseline {path}: {e}"))?)
                }
                Err(e) => {
                    eprintln!("{bench}: no baseline read from {path} ({e}); shape check skipped")
                }
            }
        }
        Ok(run)
    }

    /// The last value given for a binary-specific flag.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn baseline(&self) -> Option<&Json> {
        self.baseline.as_ref()
    }

    pub fn baseline_path(&self) -> Option<&str> {
        self.baseline.as_ref().and(self.baseline_path.as_deref())
    }

    /// Check the document against the baseline, write it with its `gates`
    /// list, read it back, print the delta and gate tables. Returns the
    /// process exit status: 1 if an enforced gate failed or the written
    /// file does not read back, else 0.
    pub fn finish(self, doc: Json, mut gates: Vec<Gate>) -> i32 {
        let fresh = doc.shape();
        let mut missing = Vec::new();
        if let Some(base) = &self.baseline {
            let old = base.shape();
            // The gates list is compared by gate name below.
            let is_gates = |k: &&String| k.split(['.', '[']).next() == Some("gates");
            missing.extend(old.difference(&fresh).filter(|k| !is_gates(k)).cloned());
            let names: BTreeSet<&str> = gates.iter().map(|g| g.name.as_str()).collect();
            let old_gates = base.get("gates").map_or(&[][..], Json::items);
            for name in old_gates
                .iter()
                .filter_map(|g| g.get("name").and_then(Json::as_str))
            {
                if !names.contains(name) && !FINISH_GATES.contains(&name) {
                    missing.push(format!("gates[{name}]"));
                }
            }
            print_deltas(self.bench, base, &doc);
        }
        for key in &missing {
            eprintln!(
                "{}: baseline key missing from the fresh document: {key}",
                self.bench
            );
        }
        gates.push(Gate::at_most("baseline_keys", missing.len() as f64, 0.0));
        let base_bench = self.baseline.as_ref().map(|b| b.get("bench"));
        let mode = match (doc.get("smoke"), doc.get("mode").and_then(Json::as_str)) {
            (Some(Json::Bool(smoke)), _) => *smoke == self.smoke,
            (None, Some(mode)) => mode == if self.smoke { "smoke" } else { "full" },
            _ => false,
        };
        gates.push(Gate::holds(
            "document_header",
            mode && base_bench.is_none_or(|b| b == doc.get("bench")),
        ));

        let smoke = self.smoke;
        let doc = doc.with(
            "gates",
            gates.iter().map(|g| g.to_json(smoke)).collect::<Vec<_>>(),
        );
        let text = doc.render();
        if let Err(e) = std::fs::write(&self.out, &text) {
            eprintln!("{}: cannot write {}: {e}", self.bench, self.out);
            return 1;
        }
        match read_json(&self.out) {
            Ok(back) if back == doc => {}
            Ok(_) => {
                eprintln!("{}: {} does not read back as written", self.bench, self.out);
                return 1;
            }
            Err(e) => {
                eprintln!("{}: {e}", self.bench);
                return 1;
            }
        }
        println!("{}: wrote {}", self.bench, self.out);
        if gate_table(self.bench, &gates, smoke) {
            0
        } else {
            1
        }
    }
}

/// Advisory table of the numbers the baseline and the fresh document share
/// and that moved.
fn print_deltas(bench: &str, base: &Json, doc: &Json) {
    let (old, new) = (base.numbers(), doc.numbers());
    let moved: Vec<_> = new
        .iter()
        .filter_map(|(k, &b)| old.get(k).map(|&a| (k, a, b)))
        .filter(|&(k, a, b)| a != b && !k.starts_with("gates["))
        .collect();
    if moved.is_empty() {
        return;
    }
    const SHOWN: usize = 25;
    println!(
        "{bench}: {} shared numbers moved vs the baseline (advisory):",
        moved.len()
    );
    for &(k, a, b) in moved.iter().take(SHOWN) {
        let pct = if a != 0.0 {
            format!("{:+.1}%", 100.0 * (b - a) / a.abs())
        } else {
            "-".into()
        };
        println!("  {k:<52} {a:>14} -> {b:<14} {pct}");
    }
    if moved.len() > SHOWN {
        println!("  ... and {} more", moved.len() - SHOWN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_out(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("fm_report_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("out.json").to_string_lossy().into_owned()
    }

    fn run(out: &str, baseline: Option<&str>, smoke: bool) -> Run {
        let mut args = vec!["--out".to_string(), out.to_string()];
        if let Some(b) = baseline {
            args.extend(["--baseline".to_string(), b.to_string()]);
        }
        if smoke {
            args.push("--smoke".into());
        }
        Run::parse("test", out, &[], args).unwrap()
    }

    fn sample(smoke: bool) -> Json {
        Json::obj()
            .with("bench", "t \"quoted\"\n")
            .with("smoke", smoke)
            .with("rate", 0.05)
            .with("p50_us", fixed(8.0, 2))
            .with("none", Json::Null)
            .with(
                "points",
                vec![Json::obj().with("n", 2u64).with("mbs", fixed(83.18, 2))],
            )
            .with(
                "nested",
                Json::obj().with("deep", Json::obj().with("x", fixed(-1.0, 1))),
            )
    }

    #[test]
    fn write_parse_round_trip() {
        let doc = sample(false);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert!(
            text.contains("\"p50_us\": 8.00"),
            "fixed formats survive: {text}"
        );
        // Scalar-only containers sit on one line, the rest one member per line.
        assert!(text.contains("\n  \"points\": [\n    {\"n\": 2, \"mbs\": 83.18}\n  ],"));
        assert_eq!(doc.at("nested.deep.x").and_then(Json::as_f64), Some(-1.0));
        let empty = Json::obj().with("xs", Vec::new()).with("o", Json::obj());
        assert_eq!(empty.render(), "{\n  \"xs\": [],\n  \"o\": {}\n}\n");
        let esc = Json::parse(r#"{"a": "é😀\/"}"#).unwrap();
        assert_eq!(esc.get("a").and_then(Json::as_str), Some("é😀/"));
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
    }

    #[test]
    fn passing_run_writes_its_gates() {
        let out = temp_out("pass");
        assert_eq!(
            run(&out, None, false).finish(sample(false), vec![Gate::holds("ok", true)]),
            0
        );
        let back = read_json(&out).unwrap();
        let names: Vec<&str> = back
            .get("gates")
            .unwrap()
            .items()
            .iter()
            .filter_map(|g| g.get("name")?.as_str())
            .collect();
        assert_eq!(names, ["ok", "baseline_keys", "document_header"]);
    }

    #[test]
    fn dropped_baseline_key_fails_the_run() {
        let base = temp_out("base");
        assert_eq!(
            run(&base, None, false).finish(sample(false), vec![Gate::holds("g", true)]),
            0
        );
        let out = temp_out("dropped");
        let fewer = Json::obj()
            .with("bench", "t \"quoted\"\n")
            .with("smoke", true)
            .with("points", Vec::new());
        assert_eq!(
            run(&out, Some(&base), true).finish(fewer, vec![Gate::holds("g", true)]),
            1
        );
        // A baseline gate that vanished counts as a dropped key too.
        assert_eq!(run(&out, Some(&base), true).finish(sample(true), vec![]), 1);
        // Same shape, different numbers: passes (the delta is advisory).
        let moved = sample(true).with("extra", 1u64);
        assert_eq!(
            run(&out, Some(&base), true).finish(moved, vec![Gate::holds("g", true)]),
            0
        );
    }

    #[test]
    fn document_header_matches_baseline_and_mode() {
        let header =
            |bench: &str, smoke: bool| Json::obj().with("bench", bench).with("smoke", smoke);
        let base = temp_out("header_base");
        assert_eq!(
            run(&base, None, false).finish(header("t", false), vec![]),
            0
        );
        let out = temp_out("header");
        assert_eq!(
            run(&out, Some(&base), false).finish(header("t", false), vec![]),
            0
        );
        // A different bench name than the baseline's.
        assert_eq!(
            run(&out, Some(&base), false).finish(header("u", false), vec![]),
            1
        );
        // The document claims the other mode.
        assert_eq!(
            run(&out, Some(&base), true).finish(header("t", false), vec![]),
            1
        );
        // `mode` stands in for `smoke` in documents without a bench name.
        let by_mode = Json::obj().with("mode", "smoke");
        let out = temp_out("header_mode");
        assert_eq!(run(&out, None, true).finish(by_mode.clone(), vec![]), 0);
        assert_eq!(run(&out, None, false).finish(by_mode, vec![]), 1);
    }

    #[test]
    fn document_checks() {
        let doc = sample(false);
        assert!(sizes_gate(&doc, "points", &[2]).pass);
        assert!(!sizes_gate(&doc, "points", &[2, 4]).pass);
        assert!(!sizes_gate(&doc, "missing", &[2]).pass);
    }

    #[test]
    fn failing_enforced_gate_exits_1() {
        let out = temp_out("fail");
        let gates = vec![Gate::at_least("speedup", 2.0, 3.0)];
        assert_eq!(run(&out, None, true).finish(sample(true), gates), 1);
        let nan = vec![Gate::below("ratio", f64::NAN, 1.0)];
        assert_eq!(run(&out, None, false).finish(sample(false), nan), 1);
    }

    #[test]
    fn wall_clock_gate_in_smoke_is_reported_not_enforced() {
        let out = temp_out("smoke");
        let gate = || vec![Gate::at_least("speedup", 2.0, 3.0).wall_clock()];
        assert_eq!(run(&out, None, true).finish(sample(true), gate()), 0);
        let back = read_json(&out).unwrap();
        let g = &back.get("gates").unwrap().items()[0];
        assert_eq!(g.get("pass"), Some(&Json::Bool(false)));
        assert_eq!(g.get("enforced"), Some(&Json::Bool(false)));
        assert_eq!(run(&out, None, false).finish(sample(false), gate()), 1);
    }

    #[test]
    fn flags_parse() {
        let args = ["--smoke", "--prom", "a.prom", "--out", "x.json"].map(String::from);
        let r = Run::parse("t", "/nonexistent/default.json", &["--prom"], args).unwrap();
        assert!(r.smoke);
        assert_eq!(r.out, "x.json");
        assert_eq!(r.flag("--prom"), Some("a.prom"));
        assert!(r.baseline().is_none());
        assert!(Run::parse("t", "d", &[], ["--bogus".to_string()]).is_err());
        assert!(Run::parse("t", "d", &[], ["--out".to_string()]).is_err());
    }

    #[test]
    fn trace_and_prom_checks() {
        let trace = Json::parse(
            r#"{"traceEvents":[
                {"name":"process_name","ph":"M","pid":0,"args":{"name":"endpoint 0"}},
                {"name":"process_name","ph":"M","pid":1,"args":{"name":"endpoint 1"}},
                {"name":"process_name","ph":"M","pid":9,"args":{"name":"switch 0"}},
                {"cat":"flow","ph":"s","id":7,"pid":0,"ts":10},{"cat":"flow","ph":"f","id":7,"pid":1,"ts":12}]}"#,
        )
        .unwrap();
        assert!(trace_gates(&trace, Some(2)).iter().all(|g| g.pass));
        assert!(!trace_gates(&trace, Some(3)).iter().all(|g| g.pass));
        assert!(!trace_gates(&Json::obj(), None)[0].pass);
        let samples = prom_samples("# HELP x\nfm_a{k=\"v\"} 2\nfm_b NaN\n");
        assert_eq!(samples[0], ("fm_a{k=\"v\"}", 2.0));
        assert!(samples[1].1.is_nan());
    }
}
