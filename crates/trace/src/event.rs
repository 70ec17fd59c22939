//! The event record: stage taxonomy, severity, typed field values.

use std::fmt;

use crate::json::{self, parse_json_object};

/// Which pipeline stage emitted an event.
///
/// The taxonomy follows the paper's workflow: `ksplice-create` builds and
/// diffs (§3), run-pre matching verifies and resolves (§4), apply/undo
/// redirect under `stop_machine` (§5). `Cli` and `Bench` cover the
/// tooling around the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// `ksplice-create`: patch → update pack (§5.1).
    Create,
    /// Pre-post object differencing (§3).
    Differ,
    /// Run-pre matching and symbol recovery (§4).
    RunPre,
    /// Applying an update under `stop_machine` (§5.2).
    Apply,
    /// The post-apply quarantine watch window: health probes running
    /// against the freshly patched kernel, and any automatic rollback
    /// they trigger.
    Watch,
    /// Reversing a live update.
    Undo,
    /// Command-line tooling around the pipeline.
    Cli,
    /// Benchmark and evaluation harnesses.
    Bench,
    /// Randomized patch campaigns and the differential oracle.
    Fuzz,
    /// Fleet-scale rollout: wave orchestration, pack transport, node
    /// contact and mass rollback.
    Fleet,
    /// Porting an update across kernel-version drift: fuzzy unit
    /// matching, hunk rewriting and the rebased-pack verification gate.
    Rebase,
}

impl Stage {
    /// Every stage, in taxonomy order.
    pub const ALL: [Stage; 11] = [
        Stage::Create,
        Stage::Differ,
        Stage::RunPre,
        Stage::Apply,
        Stage::Watch,
        Stage::Undo,
        Stage::Cli,
        Stage::Bench,
        Stage::Fuzz,
        Stage::Fleet,
        Stage::Rebase,
    ];

    /// The lowercase wire name (`"apply"`, `"runpre"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Create => "create",
            Stage::Differ => "differ",
            Stage::RunPre => "runpre",
            Stage::Apply => "apply",
            Stage::Watch => "watch",
            Stage::Undo => "undo",
            Stage::Cli => "cli",
            Stage::Bench => "bench",
            Stage::Fuzz => "fuzz",
            Stage::Fleet => "fleet",
            Stage::Rebase => "rebase",
        }
    }

    /// Inverse of [`Stage::as_str`].
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.as_str() == s)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Event severity, ordered: `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Per-attempt detail; hidden by default in human output.
    Debug,
    /// Normal pipeline milestones.
    Info,
    /// Recoverable trouble (a failed stack check that will retry).
    Warn,
    /// An abort or verification failure.
    Error,
}

impl Severity {
    /// The lowercase wire name (`"debug"`, `"info"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Inverse of [`Severity::as_str`].
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "debug" => Some(Severity::Debug),
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed field value, and the one JSON value of the trace formats:
/// [`crate::parse_json_object`] reads into it and [`Value::to_json`]
/// writes every compact JSON document the crates emit.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned count, address, or step reading.
    U64(u64),
    /// A signed quantity (deltas, offsets).
    I64(i64),
    /// A flag, e.g. `restored` on rollback verification.
    Bool(bool),
    /// Free text: names, details, messages.
    Str(String),
    /// A JSON object; entries keep their order.
    Object(Vec<(String, Value)>),
    /// A JSON array (the Chrome-trace `traceEvents` list is one).
    Array(Vec<Value>),
}

impl Value {
    /// An object of `entries`, in order.
    pub fn object<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a key in an `Object`; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`; in-range `I64`s convert.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice, for `Str` only.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, for `Bool` only.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, for `Array` only.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as compact JSON: no whitespace, object entries in
    /// order, strings escaped by [`crate::json_escape`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Str(s) => out.push_str(&json::escape(s)),
            Value::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json::escape(k));
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_json(out);
                }
                out.push(']');
            }
        }
    }
}

/// A string prints as its text, anything else as its JSON.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            other => f.write_str(&other.to_json()),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// The JSONL wire-schema version stamped on every emitted event line as
/// `"v"`. Version history:
///
/// * **1** (implicit — lines with no `v` key): seq/ts_steps/stage/
///   severity/event/fields.
/// * **2**: identical layout plus the explicit `v` key; span lifecycle
///   events (`span.begin`/`span.end`) carry `span_id`/`parent_id`
///   fields.
///
/// The reader accepts any version up to this one.
pub const EVENT_SCHEMA_VERSION: u64 = 2;

/// One structured trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic per-tracer sequence number (1-based).
    pub seq: u64,
    /// Kernel step-clock reading when emitted (0 when no kernel is
    /// involved, e.g. create-time differencing).
    pub ts_steps: u64,
    /// Which pipeline stage emitted the event.
    pub stage: Stage,
    /// How serious the event is.
    pub severity: Severity,
    /// Dotted event name, e.g. `runpre.mismatch`.
    pub name: String,
    /// Typed key/value payload, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Shortcut: a u64 field.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(Value::as_u64)
    }

    /// Shortcut: a string field.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.field(key).and_then(Value::as_str)
    }

    /// One JSON object, no trailing newline. Stable field order:
    /// v, seq, ts_steps, stage, severity, event, fields.
    pub fn to_json(&self) -> String {
        Value::object([
            ("v", EVENT_SCHEMA_VERSION.into()),
            ("seq", self.seq.into()),
            ("ts_steps", self.ts_steps.into()),
            ("stage", self.stage.as_str().into()),
            ("severity", self.severity.as_str().into()),
            ("event", self.name.as_str().into()),
            ("fields", Value::Object(self.fields.clone())),
        ])
        .to_json()
    }

    /// Parses one line of [`Event::to_json`] output (the `ksplice report`
    /// reader). Tolerates unknown keys; requires stage/severity/event.
    /// Lines without a `"v"` key are read as schema v1; versions newer
    /// than [`EVENT_SCHEMA_VERSION`] are rejected.
    pub fn from_json(line: &str) -> Result<Event, String> {
        let Value::Object(top) = parse_json_object(line)? else {
            return Err("event line is not a JSON object".to_string());
        };
        let get = |key: &str| top.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        if let Some(Value::U64(v)) = get("v") {
            if *v > EVENT_SCHEMA_VERSION {
                return Err(format!(
                    "event schema v{v} is newer than supported v{EVENT_SCHEMA_VERSION}"
                ));
            }
        }
        let stage_str = match get("stage") {
            Some(Value::Str(s)) => s.as_str(),
            _ => return Err("missing stage".to_string()),
        };
        let stage = Stage::parse(stage_str).ok_or_else(|| format!("bad stage `{stage_str}`"))?;
        let sev_str = match get("severity") {
            Some(Value::Str(s)) => s.as_str(),
            _ => return Err("missing severity".to_string()),
        };
        let severity =
            Severity::parse(sev_str).ok_or_else(|| format!("bad severity `{sev_str}`"))?;
        let name = match get("event") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("missing event name".to_string()),
        };
        let num = |key: &str| match get(key) {
            Some(Value::U64(v)) => *v,
            _ => 0,
        };
        let fields = match get("fields") {
            Some(Value::Object(fs)) => fs.clone(),
            _ => Vec::new(),
        };
        Ok(Event {
            seq: num("seq"),
            ts_steps: num("ts_steps"),
            stage,
            severity,
            name,
            fields,
        })
    }

    /// Human-readable single-line rendering: a fixed-width header, the
    /// event name, a free-text `msg` field (if present) and the remaining
    /// fields as `key=value`.
    pub fn render_human(&self) -> String {
        let mut s = format!(
            "[{:>10} {:<6} {:<5}] {}",
            self.ts_steps,
            self.stage.as_str(),
            self.severity.as_str(),
            self.name
        );
        if let Some(msg) = self.str_field("msg") {
            s.push_str(": ");
            s.push_str(msg);
        }
        for (k, v) in &self.fields {
            if k != "msg" {
                s.push_str(&format!(" {k}={v}"));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event {
            seq: 7,
            ts_steps: 12345,
            stage: Stage::Apply,
            severity: Severity::Warn,
            name: "apply.stop_machine".to_string(),
            fields: vec![
                ("attempt".to_string(), Value::U64(2)),
                ("ok".to_string(), Value::Bool(false)),
                (
                    "busy_fn".to_string(),
                    Value::Str("worker \"x\"".to_string()),
                ),
                ("delta".to_string(), Value::I64(-4)),
            ],
        }
    }

    #[test]
    fn json_roundtrip() {
        let e = sample();
        let parsed = Event::from_json(&e.to_json()).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn json_carries_schema_version() {
        let line = sample().to_json();
        assert!(line.starts_with("{\"v\":2,"), "{line}");
        // A v1 line (no `v` key) still parses.
        let v1 = "{\"seq\":1,\"ts_steps\":5,\"stage\":\"apply\",\"severity\":\"info\",\
                  \"event\":\"x\",\"fields\":{}}";
        assert_eq!(Event::from_json(v1).unwrap().name, "x");
        // A future version is rejected loudly rather than misread.
        let v9 = "{\"v\":9,\"stage\":\"apply\",\"severity\":\"info\",\"event\":\"x\"}";
        assert!(Event::from_json(v9).unwrap_err().contains("schema"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let line = sample().to_json();
        assert!(line.contains("\"busy_fn\":\"worker \\\"x\\\"\""), "{line}");
        assert!(Event::from_json("not json").is_err());
        assert!(Event::from_json("{\"stage\":\"nope\"}").is_err());
    }

    #[test]
    fn a_nested_field_is_kept_and_prints_as_json() {
        let line = "{\"v\":2,\"seq\":1,\"ts_steps\":5,\"stage\":\"apply\",\"severity\":\"info\",\
                    \"event\":\"x\",\"fields\":{\"n\":{\"a\":[1,-2,\"q\\\"\"]},\"k\":3}}";
        let e = Event::from_json(line).unwrap();
        assert_eq!(e.to_json(), line);
        assert_eq!(
            e.render_human(),
            "[         5 apply  info ] x n={\"a\":[1,-2,\"q\\\"\"]} k=3"
        );
    }

    #[test]
    fn human_rendering_promotes_msg() {
        let mut e = sample();
        e.fields
            .push(("msg".to_string(), Value::Str("retrying".to_string())));
        let line = e.render_human();
        assert!(line.contains("apply.stop_machine: retrying"), "{line}");
        assert!(line.contains("attempt=2"), "{line}");
        assert!(!line.contains("msg="), "{line}");
    }

    #[test]
    fn stage_and_severity_parse_roundtrip() {
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.as_str()), Some(s));
        }
        for sev in [
            Severity::Debug,
            Severity::Info,
            Severity::Warn,
            Severity::Error,
        ] {
            assert_eq!(Severity::parse(sev.as_str()), Some(sev));
        }
        assert!(Severity::Debug < Severity::Error);
    }
}
