//! InfluxQL-subset parsing.
//!
//! The dashboards and analysis of LMS need exactly this much query language:
//!
//! ```text
//! SELECT mean("value"), max("value") FROM "cpu_load"
//!   WHERE "hostname" = 'h1' AND time >= now() - 10m AND time < now()
//!   GROUP BY time(30s), "hostname" FILL(none)
//!   ORDER BY time DESC LIMIT 500
//!
//! SELECT "value" FROM events
//! SHOW MEASUREMENTS WHERE ("hostname" = 'h1' OR "hostname" = 'h2')
//! SHOW TAG VALUES FROM "cpu" WITH KEY = "hostname"
//! SHOW FIELD KEYS FROM "cpu"
//! CREATE DATABASE userdb
//! ```
//!
//! Identifiers may be bare or double-quoted; string literals are
//! single-quoted; time literals are nanosecond integers, duration literals
//! (`10m`, `30s`, ...) or `now() ± duration`; only `AND`-conjunctions are
//! supported (all LMS dashboards are AND-shaped), and one parenthesised
//! form: an `OR` of equalities on one tag key, which names a job's hosts.
//!
//! A trailing `PARTIAL` marks the **partial form** of a SELECT. It is
//! router-internal: the cluster router writes it, with absolute time
//! bounds, to ask each node for every matching series' own aggregate state
//! or raw rows instead of a folded answer (see [`crate::exec::Plan`]).

use lms_util::{Error, Result};

/// Aggregation functions of the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Arithmetic mean of numeric values.
    Mean,
    /// Sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Count of non-null values (works on strings too).
    Count,
    /// Earliest value in the window.
    First,
    /// Latest value in the window.
    Last,
    /// Population standard deviation.
    Stddev,
}

impl AggFunc {
    fn parse(name: &str) -> Option<Self> {
        Some(match name.to_ascii_lowercase().as_str() {
            "mean" => AggFunc::Mean,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "count" => AggFunc::Count,
            "first" => AggFunc::First,
            "last" => AggFunc::Last,
            "stddev" => AggFunc::Stddev,
            _ => return None,
        })
    }

    /// The result column name (InfluxDB convention: the function name).
    pub fn column_name(self) -> &'static str {
        match self {
            AggFunc::Mean => "mean",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Count => "count",
            AggFunc::First => "first",
            AggFunc::Last => "last",
            AggFunc::Stddev => "stddev",
        }
    }
}

/// One projected column.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// A raw field.
    Field(String),
    /// `func(field)`.
    Agg(AggFunc, String),
}

/// A time bound: absolute nanoseconds or relative to `now()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeValue {
    /// Absolute ns since epoch.
    Abs(i64),
    /// `now() + offset` (offset may be negative).
    NowOffset(i64),
}

impl TimeValue {
    /// Resolves against the evaluation-time `now`.
    pub fn resolve(self, now_ns: i64) -> i64 {
        match self {
            TimeValue::Abs(v) => v,
            TimeValue::NowOffset(off) => now_ns.saturating_add(off),
        }
    }
}

/// One WHERE conjunct.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// `time >= v` (inclusive lower bound).
    TimeGe(TimeValue),
    /// `time > v`.
    TimeGt(TimeValue),
    /// `time <= v`.
    TimeLe(TimeValue),
    /// `time < v` (exclusive upper bound).
    TimeLt(TimeValue),
    /// `tag = 'value'`.
    TagEq(String, String),
    /// `tag != 'value'`.
    TagNe(String, String),
    /// `(tag = 'a' OR tag = 'b' …)`: the tag takes one of the values,
    /// held sorted and deduplicated.
    TagIn(String, Vec<String>),
}

impl Condition {
    /// True for a tag predicate, false for a time bound.
    pub fn is_tag(&self) -> bool {
        matches!(self, Condition::TagEq(..) | Condition::TagNe(..) | Condition::TagIn(..))
    }
}

/// Renders a condition as parseable InfluxQL, string values quoted with
/// `''` escaping a quote (relative `now()` bounds stay relative).
impl std::fmt::Display for Condition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = |k: &str, op: &str, v: &str| format!("\"{k}\" {op} '{}'", v.replace('\'', "''"));
        let (op, v) = match self {
            Condition::TimeGe(v) => (">=", v),
            Condition::TimeGt(v) => (">", v),
            Condition::TimeLe(v) => ("<=", v),
            Condition::TimeLt(v) => ("<", v),
            Condition::TagEq(k, v) => return f.write_str(&tag(k, "=", v)),
            Condition::TagNe(k, v) => return f.write_str(&tag(k, "!=", v)),
            Condition::TagIn(k, values) => {
                let terms: Vec<String> = values.iter().map(|v| tag(k, "=", v)).collect();
                return write!(f, "({})", terms.join(" OR "));
            }
        };
        match v {
            TimeValue::Abs(ns) => write!(f, "time {op} {ns}"),
            TimeValue::NowOffset(0) => write!(f, "time {op} now()"),
            TimeValue::NowOffset(off) if *off < 0 => {
                write!(f, "time {op} now() - {}ns", off.unsigned_abs())
            }
            TimeValue::NowOffset(off) => write!(f, "time {op} now() + {off}ns"),
        }
    }
}

/// Empty-window fill policy for `GROUP BY time(...)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fill {
    /// Skip empty windows (our default; keeps results compact).
    #[default]
    None,
    /// Emit `null` for empty windows (InfluxDB's default).
    Null,
    /// Emit `0`.
    Zero,
}

/// A parsed SELECT.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    /// Projected columns, in order.
    pub projections: Vec<Projection>,
    /// Source measurement.
    pub measurement: String,
    /// AND-ed conditions.
    pub conditions: Vec<Condition>,
    /// `GROUP BY time(window)` in ns.
    pub group_time: Option<i64>,
    /// `GROUP BY <tags>`.
    pub group_tags: Vec<String>,
    /// `GROUP BY *`: group by the full tag set, one group per series.
    pub group_all: bool,
    /// Fill policy.
    pub fill: Fill,
    /// `ORDER BY time DESC`.
    pub order_desc: bool,
    /// `LIMIT n`.
    pub limit: Option<usize>,
    /// The router-internal `PARTIAL` marker: answer every matching
    /// series' own rows or window aggregates, unfolded (see the module
    /// docs).
    pub partial: bool,
}

fn render_ident(out: &mut String, ident: &str) {
    out.push('"');
    out.push_str(ident);
    out.push('"');
}

impl Select {
    /// Parses `q` as a SELECT bounded to `[start, end)` ns and, with
    /// `step`, bucketed to `step`-ns windows: the statement a
    /// `/query_range` request runs, on a node and through the router
    /// alike. The bounds intersect with any already in `q`; `step`
    /// replaces its `GROUP BY time(...)`.
    pub fn for_range(q: &str, start: i64, end: i64, step: Option<i64>) -> Result<Select> {
        if start >= end {
            return Err(Error::protocol("query_range: start must be < end"));
        }
        let Statement::Select(mut sel) = Statement::parse(q)? else {
            return Err(Error::protocol("query_range: only SELECT statements are supported"));
        };
        sel.conditions.push(Condition::TimeGe(TimeValue::Abs(start)));
        sel.conditions.push(Condition::TimeLt(TimeValue::Abs(end)));
        if let Some(step) = step {
            if step <= 0 {
                return Err(Error::protocol("query_range: step must be positive"));
            }
            sel.group_time = Some(step);
        }
        Ok(sel)
    }

    /// Renders the statement back to parseable InfluxQL. The output
    /// round-trips: `Statement::parse(sel.render())` yields `sel` again
    /// (relative `now()` bounds stay relative). Used by the router to
    /// write the partial form it sends to the nodes.
    pub fn render(&self) -> String {
        let mut out = String::from("SELECT ");
        for (i, p) in self.projections.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match p {
                Projection::Field(f) => render_ident(&mut out, f),
                Projection::Agg(func, f) => {
                    out.push_str(func.column_name());
                    out.push('(');
                    render_ident(&mut out, f);
                    out.push(')');
                }
            }
        }
        out.push_str(" FROM ");
        render_ident(&mut out, &self.measurement);
        for (i, c) in self.conditions.iter().enumerate() {
            out.push_str(if i == 0 { " WHERE " } else { " AND " });
            out.push_str(&c.to_string());
        }
        let mut group_items: Vec<String> = Vec::new();
        if let Some(w) = self.group_time {
            group_items.push(format!("time({w}ns)"));
        }
        if self.group_all {
            group_items.push("*".to_string());
        }
        for t in &self.group_tags {
            group_items.push(format!("\"{t}\""));
        }
        if !group_items.is_empty() {
            out.push_str(" GROUP BY ");
            out.push_str(&group_items.join(", "));
        }
        match self.fill {
            Fill::None => {}
            Fill::Null => out.push_str(" FILL(null)"),
            Fill::Zero => out.push_str(" FILL(0)"),
        }
        if self.order_desc {
            out.push_str(" ORDER BY time DESC");
        }
        if let Some(n) = self.limit {
            out.push_str(&format!(" LIMIT {n}"));
        }
        if self.partial {
            out.push_str(" PARTIAL");
        }
        out
    }
}

/// Any parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A SELECT query.
    Select(Select),
    /// `SHOW MEASUREMENTS [WHERE <tag predicates>]`: the measurements
    /// holding a series the predicates admit.
    ShowMeasurements(Vec<Condition>),
    /// `SHOW DATABASES`
    ShowDatabases,
    /// `SHOW TAG VALUES FROM m WITH KEY = k`
    ShowTagValues {
        /// Source measurement.
        measurement: String,
        /// Tag key to enumerate.
        key: String,
    },
    /// `SHOW FIELD KEYS FROM m`
    ShowFieldKeys {
        /// Source measurement.
        measurement: String,
    },
    /// `CREATE DATABASE name`
    CreateDatabase(String),
}

impl Statement {
    /// Parses one statement.
    pub fn parse(text: &str) -> Result<Statement> {
        let tokens = tokenize(text)?;
        let mut p = P { t: &tokens, i: 0 };
        let stmt = p.statement()?;
        if p.i != p.t.len() {
            return Err(Error::protocol(format!(
                "query: unexpected `{}` after statement",
                p.t[p.i].text()
            )));
        }
        Ok(stmt)
    }
}

/// Splits the text of a `/query` request into its `;`-separated
/// statements, trimmed; blank statements (a trailing `;`, `;;`) are
/// dropped. A `;` inside a single-quoted string (`''` escapes a quote), a
/// double-quoted identifier or a `/regex/` (`\/` escapes a slash) belongs
/// to its statement. An unterminated quote runs to the end of the text,
/// where [`Statement::parse`] reports it.
pub fn split_statements(text: &str) -> Vec<&str> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b';' => {
                out.push(&text[start..i]);
                start = i + 1;
            }
            // `''` closes and reopens, which scans the same as an escape.
            quote @ (b'\'' | b'"' | b'/') => {
                i += 1;
                while i < b.len() && b[i] != quote {
                    i += if quote == b'/' && b[i] == b'\\' { 2 } else { 1 };
                }
            }
            _ => {}
        }
        i += 1;
    }
    out.push(&text[start..]);
    out.into_iter().map(str::trim).filter(|s| !s.is_empty()).collect()
}

/// Parses a duration literal body like `10m`, `30s`, `500ms`, `2h` into ns.
pub fn parse_duration_ns(s: &str) -> Result<i64> {
    let digits_end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    if digits_end == 0 {
        return Err(Error::protocol(format!("bad duration `{s}`")));
    }
    let n: i64 = s[..digits_end].parse()?;
    let unit = &s[digits_end..];
    let mult: i64 = match unit {
        "ns" => 1,
        "u" | "µ" | "us" => 1_000,
        "ms" => 1_000_000,
        "s" => 1_000_000_000,
        "m" => 60 * 1_000_000_000,
        "h" => 3_600 * 1_000_000_000,
        "d" => 86_400 * 1_000_000_000,
        "w" => 7 * 86_400 * 1_000_000_000,
        other => return Err(Error::protocol(format!("bad duration unit `{other}`"))),
    };
    n.checked_mul(mult)
        .ok_or_else(|| Error::protocol(format!("duration `{s}` overflows")))
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    /// Bare or double-quoted identifier (quoted flag kept for `time`).
    Ident(String, bool),
    /// Single-quoted string literal.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Duration literal (ns).
    Dur(i64),
    /// Punctuation / operator.
    Sym(&'static str),
}

impl Tok {
    fn text(&self) -> String {
        match self {
            Tok::Ident(s, _) => s.clone(),
            Tok::Str(s) => format!("'{s}'"),
            Tok::Int(i) => i.to_string(),
            Tok::Dur(d) => format!("{d}ns"),
            Tok::Sym(s) => s.to_string(),
        }
    }
}

fn tokenize(text: &str) -> Result<Vec<Tok>> {
    let b = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\n' | b'\r' | b';' => i += 1,
            b'(' => {
                out.push(Tok::Sym("("));
                i += 1;
            }
            b')' => {
                out.push(Tok::Sym(")"));
                i += 1;
            }
            b',' => {
                out.push(Tok::Sym(","));
                i += 1;
            }
            b'=' => {
                out.push(Tok::Sym("="));
                i += 1;
            }
            b'+' => {
                out.push(Tok::Sym("+"));
                i += 1;
            }
            b'-' => {
                out.push(Tok::Sym("-"));
                i += 1;
            }
            b'!' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Sym("!="));
                i += 2;
            }
            b'<' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Sym("<="));
                i += 2;
            }
            b'>' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Sym(">="));
                i += 2;
            }
            b'<' if b.get(i + 1) == Some(&b'>') => {
                out.push(Tok::Sym("!="));
                i += 2;
            }
            b'<' => {
                out.push(Tok::Sym("<"));
                i += 1;
            }
            b'>' => {
                out.push(Tok::Sym(">"));
                i += 1;
            }
            b'\'' => {
                let start = i + 1;
                let mut j = start;
                let mut s = String::new();
                loop {
                    if j >= b.len() {
                        return Err(Error::protocol("query: unterminated string literal"));
                    }
                    if b[j] == b'\'' {
                        if b.get(j + 1) == Some(&b'\'') {
                            s.push('\'');
                            j += 2;
                            continue;
                        }
                        break;
                    }
                    s.push(b[j] as char);
                    j += 1;
                }
                out.push(Tok::Str(s));
                i = j + 1;
            }
            b'"' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != b'"' {
                    j += 1;
                }
                if j >= b.len() {
                    return Err(Error::protocol("query: unterminated identifier quote"));
                }
                out.push(Tok::Ident(text[start..j].to_string(), true));
                i = j + 1;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                // duration suffix?
                let suffix_start = i;
                while i < b.len() && (b[i].is_ascii_alphabetic() || b[i] == 0xC2) {
                    i += 1; // 0xC2 covers 'µ' first byte
                }
                if i > suffix_start {
                    let dur = parse_duration_ns(&text[start..i])?;
                    out.push(Tok::Dur(dur));
                } else {
                    out.push(Tok::Int(text[start..i].parse()?));
                }
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    i += 1;
                }
                out.push(Tok::Ident(text[start..i].to_string(), false));
            }
            b'*' => {
                out.push(Tok::Sym("*"));
                i += 1;
            }
            other => {
                return Err(Error::protocol(format!(
                    "query: unexpected character `{}`",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

struct P<'a> {
    t: &'a [Tok],
    i: usize,
}

impl P<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.t.get(self.i)
    }

    fn next(&mut self) -> Option<&Tok> {
        let t = self.t.get(self.i);
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s, false)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.i += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(Error::protocol(format!(
                "query: expected `{kw}`, found `{}`",
                self.peek().map(Tok::text).unwrap_or_else(|| "end".into())
            )))
        }
    }

    fn sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(x)) if *x == s) {
            self.i += 1;
            return true;
        }
        false
    }

    fn expect_sym(&mut self, s: &str) -> Result<()> {
        if self.sym(s) {
            Ok(())
        } else {
            Err(Error::protocol(format!(
                "query: expected `{s}`, found `{}`",
                self.peek().map(Tok::text).unwrap_or_else(|| "end".into())
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s, _)) => Ok(s.clone()),
            other => Err(Error::protocol(format!(
                "query: expected identifier, found `{}`",
                other.map(Tok::text).unwrap_or_else(|| "end".into())
            ))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.keyword("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.keyword("SHOW") {
            if self.keyword("MEASUREMENTS") {
                let conditions = if self.keyword("WHERE") { self.conditions()? } else { Vec::new() };
                if !conditions.iter().all(Condition::is_tag) {
                    return Err(Error::protocol("query: SHOW MEASUREMENTS takes tag predicates only"));
                }
                return Ok(Statement::ShowMeasurements(conditions));
            }
            if self.keyword("DATABASES") {
                return Ok(Statement::ShowDatabases);
            }
            if self.keyword("TAG") {
                self.expect_keyword("VALUES")?;
                self.expect_keyword("FROM")?;
                let measurement = self.ident()?;
                self.expect_keyword("WITH")?;
                self.expect_keyword("KEY")?;
                self.expect_sym("=")?;
                let key = self.ident()?;
                return Ok(Statement::ShowTagValues { measurement, key });
            }
            if self.keyword("FIELD") {
                self.expect_keyword("KEYS")?;
                self.expect_keyword("FROM")?;
                let measurement = self.ident()?;
                return Ok(Statement::ShowFieldKeys { measurement });
            }
            return Err(Error::protocol("query: unsupported SHOW statement"));
        }
        if self.keyword("CREATE") {
            self.expect_keyword("DATABASE")?;
            return Ok(Statement::CreateDatabase(self.ident()?));
        }
        Err(Error::protocol("query: expected SELECT, SHOW or CREATE"))
    }

    fn select(&mut self) -> Result<Select> {
        let mut projections = Vec::new();
        loop {
            projections.push(self.projection()?);
            if !self.sym(",") {
                break;
            }
        }
        self.expect_keyword("FROM")?;
        let measurement = self.ident()?;

        let conditions = if self.keyword("WHERE") { self.conditions()? } else { Vec::new() };

        let mut group_time = None;
        let mut group_tags = Vec::new();
        let mut group_all = false;
        if self.keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                if self.sym("*") {
                    group_all = true;
                    if !self.sym(",") {
                        break;
                    }
                    continue;
                }
                if let Some(Tok::Ident(name, false)) = self.peek() {
                    if name.eq_ignore_ascii_case("time") && self.t.get(self.i + 1) == Some(&Tok::Sym("(")) {
                        self.i += 2;
                        let w = match self.next() {
                            Some(Tok::Dur(d)) => *d,
                            Some(Tok::Int(n)) => *n,
                            other => {
                                return Err(Error::protocol(format!(
                                    "query: expected window duration, found `{}`",
                                    other.map(Tok::text).unwrap_or_else(|| "end".into())
                                )))
                            }
                        };
                        if w <= 0 {
                            return Err(Error::protocol("query: window must be positive"));
                        }
                        self.expect_sym(")")?;
                        group_time = Some(w);
                        if !self.sym(",") {
                            break;
                        }
                        continue;
                    }
                }
                group_tags.push(self.ident()?);
                if !self.sym(",") {
                    break;
                }
            }
        }

        let mut fill = Fill::default();
        if self.keyword("FILL") {
            self.expect_sym("(")?;
            fill = match self.next() {
                Some(Tok::Ident(s, _)) if s.eq_ignore_ascii_case("none") => Fill::None,
                Some(Tok::Ident(s, _)) if s.eq_ignore_ascii_case("null") => Fill::Null,
                Some(Tok::Int(0)) => Fill::Zero,
                other => {
                    return Err(Error::protocol(format!(
                        "query: unsupported fill `{}`",
                        other.map(Tok::text).unwrap_or_else(|| "end".into())
                    )))
                }
            };
            self.expect_sym(")")?;
        }

        let mut order_desc = false;
        if self.keyword("ORDER") {
            self.expect_keyword("BY")?;
            let col = self.ident()?;
            if !col.eq_ignore_ascii_case("time") {
                return Err(Error::protocol("query: can only ORDER BY time"));
            }
            if self.keyword("DESC") {
                order_desc = true;
            } else {
                let _ = self.keyword("ASC");
            }
        }

        let mut limit = None;
        if self.keyword("LIMIT") {
            match self.next() {
                Some(Tok::Int(n)) if *n > 0 => limit = Some(*n as usize),
                other => {
                    return Err(Error::protocol(format!(
                        "query: bad LIMIT `{}`",
                        other.map(Tok::text).unwrap_or_else(|| "end".into())
                    )))
                }
            }
        }
        let partial = self.keyword("PARTIAL");

        Ok(Select {
            projections,
            measurement,
            conditions,
            group_time,
            group_tags,
            group_all,
            fill,
            order_desc,
            limit,
            partial,
        })
    }

    fn projection(&mut self) -> Result<Projection> {
        // func(field) or bare/quoted field
        if let Some(Tok::Ident(name, false)) = self.peek() {
            if let Some(func) = AggFunc::parse(name) {
                if self.t.get(self.i + 1) == Some(&Tok::Sym("(")) {
                    self.i += 2;
                    let field = self.ident()?;
                    self.expect_sym(")")?;
                    return Ok(Projection::Agg(func, field));
                }
            }
        }
        Ok(Projection::Field(self.ident()?))
    }

    fn conditions(&mut self) -> Result<Vec<Condition>> {
        let mut conditions = vec![self.condition()?];
        while self.keyword("AND") {
            conditions.push(self.condition()?);
        }
        Ok(conditions)
    }

    /// `(k = 'a' OR k = 'b' …)`, after its `(`: equalities on one tag key
    /// and nothing else.
    fn tag_set(&mut self) -> Result<Condition> {
        let (mut key, mut values) = (None::<String>, Vec::new());
        loop {
            let lhs = match self.next() {
                Some(Tok::Ident(k, quoted)) if *quoted || !k.eq_ignore_ascii_case("time") => k.clone(),
                _ => return Err(Error::protocol("query: parentheses hold `tag = 'v' OR …` only")),
            };
            if key.replace(lhs.clone()).is_some_and(|key| key != lhs) || !self.sym("=") {
                return Err(Error::protocol("query: parentheses hold one tag key's `=` only"));
            }
            values.push(self.string_literal()?);
            if !self.keyword("OR") {
                break;
            }
        }
        self.expect_sym(")")?;
        values.sort_unstable();
        values.dedup();
        Ok(Condition::TagIn(key.expect("one equality parsed"), values))
    }

    fn condition(&mut self) -> Result<Condition> {
        if self.sym("(") {
            return self.tag_set();
        }
        let lhs = match self.next().cloned() {
            Some(Tok::Ident(s, quoted)) => (s, quoted),
            other => {
                return Err(Error::protocol(format!(
                    "query: expected condition, found `{}`",
                    other.map(|t| t.text()).unwrap_or_else(|| "end".into())
                )))
            }
        };
        let is_time = !lhs.1 && lhs.0.eq_ignore_ascii_case("time");
        if is_time {
            let op = match self.next() {
                Some(Tok::Sym(s @ (">=" | ">" | "<=" | "<" | "="))) => *s,
                other => {
                    return Err(Error::protocol(format!(
                        "query: bad time operator `{}`",
                        other.map(Tok::text).unwrap_or_else(|| "end".into())
                    )))
                }
            };
            let value = self.time_value()?;
            return match op {
                ">=" => Ok(Condition::TimeGe(value)),
                ">" => Ok(Condition::TimeGt(value)),
                "<=" => Ok(Condition::TimeLe(value)),
                "<" => Ok(Condition::TimeLt(value)),
                // Exact-instant matches are never what a dashboard wants;
                // keep the AST a pure range and reject `time =`.
                _ => Err(Error::protocol("query: use a range instead of `time =`")),
            };
        }
        // tag condition
        if self.sym("=") {
            let v = self.string_literal()?;
            Ok(Condition::TagEq(lhs.0, v))
        } else if self.sym("!=") {
            let v = self.string_literal()?;
            Ok(Condition::TagNe(lhs.0, v))
        } else {
            Err(Error::protocol(format!("query: bad condition on `{}`", lhs.0)))
        }
    }

    fn string_literal(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Str(s)) => Ok(s.clone()),
            other => Err(Error::protocol(format!(
                "query: expected 'string', found `{}`",
                other.map(Tok::text).unwrap_or_else(|| "end".into())
            ))),
        }
    }

    fn time_value(&mut self) -> Result<TimeValue> {
        // Unary minus: negative absolute timestamps are legal (pre-epoch).
        if self.sym("-") {
            return match self.next() {
                Some(Tok::Int(v)) => Ok(TimeValue::Abs(-v)),
                Some(Tok::Dur(v)) => Ok(TimeValue::Abs(-v)),
                other => Err(Error::protocol(format!(
                    "query: bad time value after `-`: `{}`",
                    other.map(Tok::text).unwrap_or_else(|| "end".into())
                ))),
            };
        }
        match self.next().cloned() {
            Some(Tok::Int(v)) => Ok(TimeValue::Abs(v)),
            Some(Tok::Dur(v)) => Ok(TimeValue::Abs(v)),
            Some(Tok::Ident(s, false)) if s.eq_ignore_ascii_case("now") => {
                self.expect_sym("(")?;
                self.expect_sym(")")?;
                let mut offset = 0i64;
                if self.sym("-") {
                    offset = -self.duration()?;
                } else if self.sym("+") {
                    offset = self.duration()?;
                }
                Ok(TimeValue::NowOffset(offset))
            }
            other => Err(Error::protocol(format!(
                "query: bad time value `{}`",
                other.map(|t| t.text()).unwrap_or_else(|| "end".into())
            ))),
        }
    }

    fn duration(&mut self) -> Result<i64> {
        match self.next() {
            Some(Tok::Dur(d)) => Ok(*d),
            Some(Tok::Int(n)) => Ok(*n),
            other => Err(Error::protocol(format!(
                "query: expected duration, found `{}`",
                other.map(Tok::text).unwrap_or_else(|| "end".into())
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(q: &str) -> Select {
        match Statement::parse(q).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn minimal_select() {
        let s = sel("SELECT value FROM cpu");
        assert_eq!(s.projections, vec![Projection::Field("value".into())]);
        assert_eq!(s.measurement, "cpu");
        assert!(s.conditions.is_empty());
        assert_eq!(s.group_time, None);
        assert!(!s.order_desc);
        assert_eq!(s.limit, None);
    }

    #[test]
    fn full_select() {
        let s = sel(
            "SELECT mean(\"value\"), max(\"value\") FROM \"cpu_load\" \
             WHERE \"hostname\" = 'h1' AND time >= now() - 10m AND time < now() \
             GROUP BY time(30s), \"hostname\" FILL(none) ORDER BY time DESC LIMIT 500",
        );
        assert_eq!(
            s.projections,
            vec![
                Projection::Agg(AggFunc::Mean, "value".into()),
                Projection::Agg(AggFunc::Max, "value".into()),
            ]
        );
        assert_eq!(s.measurement, "cpu_load");
        assert_eq!(s.conditions.len(), 3);
        assert_eq!(s.conditions[0], Condition::TagEq("hostname".into(), "h1".into()));
        assert_eq!(
            s.conditions[1],
            Condition::TimeGe(TimeValue::NowOffset(-600_000_000_000))
        );
        assert_eq!(s.conditions[2], Condition::TimeLt(TimeValue::NowOffset(0)));
        assert_eq!(s.group_time, Some(30_000_000_000));
        assert_eq!(s.group_tags, vec!["hostname"]);
        assert_eq!(s.fill, Fill::None);
        assert!(s.order_desc);
        assert_eq!(s.limit, Some(500));
    }

    #[test]
    fn absolute_time_bounds() {
        let s = sel("SELECT v FROM m WHERE time >= 100 AND time <= 200");
        assert_eq!(s.conditions[0], Condition::TimeGe(TimeValue::Abs(100)));
        assert_eq!(s.conditions[1], Condition::TimeLe(TimeValue::Abs(200)));
        assert_eq!(TimeValue::Abs(100).resolve(999), 100);
        assert_eq!(TimeValue::NowOffset(-10).resolve(999), 989);
    }

    #[test]
    fn negative_time_literals() {
        // Pre-epoch bounds arise from renderer margins; must parse.
        let s = sel("SELECT v FROM m WHERE time >= -5000000000 AND time <= 100");
        assert_eq!(s.conditions[0], Condition::TimeGe(TimeValue::Abs(-5_000_000_000)));
        assert!(Statement::parse("SELECT v FROM m WHERE time >= -").is_err());
    }

    #[test]
    fn tag_not_equal_and_quoted_escapes() {
        let s = sel("SELECT v FROM m WHERE state != 'it''s fine'");
        assert_eq!(s.conditions[0], Condition::TagNe("state".into(), "it's fine".into()));
    }

    #[test]
    fn group_by_tag_only() {
        let s = sel("SELECT mean(v) FROM m GROUP BY hostname");
        assert_eq!(s.group_time, None);
        assert_eq!(s.group_tags, vec!["hostname"]);
    }

    #[test]
    fn group_by_star() {
        let s = sel("SELECT mean(v) FROM m GROUP BY *");
        assert!(s.group_all);
        assert!(s.group_tags.is_empty());

        let s = sel("SELECT mean(v) FROM m GROUP BY time(1m), *");
        assert!(s.group_all);
        assert_eq!(s.group_time, Some(60_000_000_000));
    }

    #[test]
    fn render_round_trips() {
        for q in [
            "SELECT v FROM m",
            "SELECT \"v\", mean(\"v\") FROM \"m\"",
            "SELECT count(v) FROM m WHERE time >= now() - 600000000000ns AND h = 'a''b'",
            "SELECT mean(v) FROM m WHERE time >= 0 AND time < 100 \
             GROUP BY time(30s), *, \"hostname\" FILL(0) ORDER BY time DESC LIMIT 5",
            "SELECT sum(v) FROM m WHERE time > now() AND s != 'x' GROUP BY time(1h) FILL(null)",
            "SELECT first(v) FROM m WHERE time >= 5 GROUP BY time(1m) FILL(0) LIMIT 2 PARTIAL",
            "SELECT v FROM m PARTIAL",
            "SELECT mean(v) FROM m WHERE (\"h\" = 'a' OR \"h\" = 'o''b') AND time >= 5 GROUP BY \"h\" PARTIAL",
            "SELECT v FROM m WHERE (h = 'x')",
        ] {
            let parsed = sel(q);
            let rendered = parsed.render();
            assert_eq!(sel(&rendered), parsed, "render of `{q}` -> `{rendered}`");
        }
    }

    #[test]
    fn fill_variants() {
        assert_eq!(sel("SELECT mean(v) FROM m GROUP BY time(1m) FILL(null)").fill, Fill::Null);
        assert_eq!(sel("SELECT mean(v) FROM m GROUP BY time(1m) FILL(0)").fill, Fill::Zero);
        assert_eq!(sel("SELECT mean(v) FROM m GROUP BY time(1m)").fill, Fill::None);
    }

    #[test]
    fn show_statements() {
        assert_eq!(Statement::parse("SHOW MEASUREMENTS").unwrap(), Statement::ShowMeasurements(vec![]));
        assert_eq!(
            Statement::parse("SHOW TAG VALUES FROM \"cpu\" WITH KEY = \"hostname\"").unwrap(),
            Statement::ShowTagValues { measurement: "cpu".into(), key: "hostname".into() }
        );
        assert_eq!(
            Statement::parse("SHOW FIELD KEYS FROM cpu").unwrap(),
            Statement::ShowFieldKeys { measurement: "cpu".into() }
        );
    }

    #[test]
    fn create_database() {
        assert_eq!(
            Statement::parse("CREATE DATABASE user_alice").unwrap(),
            Statement::CreateDatabase("user_alice".into())
        );
    }

    #[test]
    fn durations() {
        assert_eq!(parse_duration_ns("10m").unwrap(), 600_000_000_000);
        assert_eq!(parse_duration_ns("30s").unwrap(), 30_000_000_000);
        assert_eq!(parse_duration_ns("500ms").unwrap(), 500_000_000);
        assert_eq!(parse_duration_ns("2h").unwrap(), 7_200_000_000_000);
        assert_eq!(parse_duration_ns("1d").unwrap(), 86_400_000_000_000);
        assert_eq!(parse_duration_ns("1w").unwrap(), 604_800_000_000_000);
        assert!(parse_duration_ns("10x").is_err());
        assert!(parse_duration_ns("m").is_err());
    }

    #[test]
    fn case_insensitive_keywords() {
        let s = sel("select Mean(v) from m where h = 'x' group by time(1s) order by time desc limit 5");
        assert_eq!(s.projections[0], Projection::Agg(AggFunc::Mean, "v".into()));
        assert!(s.order_desc);
    }

    #[test]
    fn statement_lists_split_on_semicolons_outside_quotes() {
        assert_eq!(
            split_statements("SELECT v FROM a; SHOW MEASUREMENTS ;SELECT v FROM b"),
            vec!["SELECT v FROM a", "SHOW MEASUREMENTS", "SELECT v FROM b"]
        );
        // Trailing `;` and blank statements are ignored.
        assert_eq!(split_statements("SELECT v FROM a;"), vec!["SELECT v FROM a"]);
        assert_eq!(split_statements(" ;; SELECT v FROM a ;\n; "), vec!["SELECT v FROM a"]);
        assert!(split_statements("").is_empty());
        assert!(split_statements(" ; ;").is_empty());
        // A `;` inside a string (with its `''` escape), a quoted identifier
        // or a regex stays with its statement.
        let quoted = "SELECT v FROM m WHERE h = 'a;''b;'; SELECT \"x;y\" FROM m";
        assert_eq!(
            split_statements(quoted),
            vec!["SELECT v FROM m WHERE h = 'a;''b;'", "SELECT \"x;y\" FROM m"]
        );
        let regex = r"SELECT v FROM /cpu;\/;.*/ WHERE h = 'x'; SHOW MEASUREMENTS";
        assert_eq!(
            split_statements(regex),
            vec![r"SELECT v FROM /cpu;\/;.*/ WHERE h = 'x'", "SHOW MEASUREMENTS"]
        );
        // An unterminated quote runs to the end, for the parser to report.
        assert_eq!(split_statements("SELECT v FROM m WHERE h = 'a; SELECT 1").len(), 1);
        assert!(Statement::parse("SELECT v FROM m WHERE h = 'a; SELECT 1").is_err());
    }

    #[test]
    fn parsing_one_statement_is_what_it_was() {
        // The tokenizer still skips a `;`, so a lone statement parses the
        // same with or without its terminator, and a tag value keeps its.
        assert_eq!(
            Statement::parse("SELECT v FROM m;").unwrap(),
            Statement::parse("SELECT v FROM m").unwrap()
        );
        let s = sel("SELECT v FROM m WHERE h = 'a;b'");
        assert_eq!(s.conditions, vec![Condition::TagEq("h".into(), "a;b".into())]);
        for stmt in split_statements("SELECT mean(v) FROM m GROUP BY time(1m); SHOW MEASUREMENTS;") {
            Statement::parse(stmt).unwrap();
        }
    }

    #[test]
    fn reject_malformed() {
        for bad in [
            "",
            "SELECT FROM m",
            "SELECT v",
            "SELECT v FROM",
            "SELECT v FROM m WHERE",
            "SELECT v FROM m WHERE time ~ 5",
            "SELECT v FROM m WHERE tag = unquoted",
            "SELECT v FROM m GROUP BY time()",
            "SELECT v FROM m GROUP BY time(0s)",
            "SELECT v FROM m ORDER BY hostname",
            "SELECT v FROM m LIMIT 0",
            "SELECT v FROM m LIMIT abc",
            "SELECT nosuchfunc(v) FROM m extra",
            "DROP DATABASE x",
            "SELECT v FROM m WHERE time = 5",
            "SHOW GRANTS",
        ] {
            assert!(Statement::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn a_tag_set_parses_sorted_and_deduplicated_and_renders_back() {
        let s = sel("SELECT v FROM m WHERE (\"hostname\" = 'h2' OR hostname = 'o''brien' OR \"hostname\" = 'h2')");
        let set = Condition::TagIn("hostname".into(), vec!["h2".into(), "o'brien".into()]);
        assert_eq!(s.conditions, vec![set.clone()]);
        assert_eq!(set.to_string(), "(\"hostname\" = 'h2' OR \"hostname\" = 'o''brien')");
        // The order of the values is not part of the predicate.
        let swapped = sel("SELECT v FROM m WHERE (hostname = 'o''brien' OR hostname = 'h2')");
        assert_eq!(swapped, s);
        assert_eq!(
            Statement::parse("SHOW MEASUREMENTS WHERE (hostname = 'h1') AND user = 'u'").unwrap(),
            Statement::ShowMeasurements(vec![
                Condition::TagIn("hostname".into(), vec!["h1".into()]),
                Condition::TagEq("user".into(), "u".into()),
            ])
        );
    }

    #[test]
    fn parentheses_hold_one_keys_equalities_only() {
        for bad in [
            "SELECT v FROM m WHERE (h = 'a' OR g = 'b')",
            "SELECT v FROM m WHERE (h = 'a' OR h != 'b')",
            "SELECT v FROM m WHERE (h != 'a')",
            "SELECT v FROM m WHERE (time >= 5)",
            "SELECT v FROM m WHERE (h = 'a' OR time >= 5)",
            "SELECT v FROM m WHERE ((h = 'a'))",
            "SELECT v FROM m WHERE (h = 'a' OR (h = 'b'))",
            "SELECT v FROM m WHERE (h = 'a' AND h = 'b')",
            "SELECT v FROM m WHERE (h = 'a' OR)",
            "SELECT v FROM m WHERE (h = 'a'",
            "SELECT v FROM m WHERE ()",
            "SELECT v FROM m WHERE h = 'a' OR h = 'b'",
            "SHOW MEASUREMENTS WHERE time >= 5",
            "SHOW MEASUREMENTS WHERE",
        ] {
            assert!(Statement::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn quoted_time_is_a_tag_not_the_time_column() {
        // "time" (quoted) refers to a tag named time, per InfluxQL rules.
        let s = sel("SELECT v FROM m WHERE \"time\" = 'x'");
        assert_eq!(s.conditions[0], Condition::TagEq("time".into(), "x".into()));
    }
}
