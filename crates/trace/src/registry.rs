//! The labeled metrics registry: counters, gauges and log2 histograms
//! keyed by `(name, label set)`, with snapshot/diff, Prometheus-style
//! text and JSONL export.
//!
//! Every series is stored under a canonical **series key**:
//! `name{k="v",k2="v2"}` with labels sorted by key (a bare `name` when
//! unlabeled). Metric names follow the `stage.noun_verb` convention
//! (`apply.trampolines_written`, `watch.probes_failed`).

use std::collections::BTreeMap;

use crate::json;
use crate::metrics::{Counters, Histogram};

/// Encodes a name plus label pairs into the canonical series key.
/// Labels are sorted by key; values are JSON-escaped, so any byte is
/// representable and the encoding is unambiguous.
pub fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_unstable();
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}={}", json::escape(v)))
        .collect();
    format!("{name}{{{}}}", body.join(","))
}

/// The registry: one table per metric kind, all keyed by series key.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Counters,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `n` to an unlabeled counter.
    pub fn inc(&mut self, name: &str, n: u64) {
        self.counters.add(name, n);
    }

    /// Adds `n` to a labeled counter series.
    pub fn inc_labeled(&mut self, name: &str, labels: &[(&str, &str)], n: u64) {
        self.counters.add(&series_key(name, labels), n);
    }

    /// Reads a counter series by its exact key (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key)
    }

    /// Reads a labeled counter series.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters.get(&series_key(name, labels))
    }

    /// The whole counter table (series key → value, sorted).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Sets a gauge to an absolute value (last write wins).
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: i64) {
        self.gauges.insert(series_key(name, labels), value);
    }

    /// Reads a gauge series (`None` when never set).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        self.gauges.get(&series_key(name, labels)).copied()
    }

    /// All gauges in series-key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Records one observation into an unlabeled histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Records one observation into a labeled histogram series.
    pub fn observe_labeled(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.histograms
            .entry(series_key(name, labels))
            .or_default()
            .record(value);
    }

    /// A histogram series by exact key.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// All histograms in series-key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Merges another registry into this one: counters and histogram
    /// observations add; gauges take the elementwise maximum (the only
    /// order-independent merge for absolute values, which keeps parallel
    /// worker absorption deterministic).
    pub fn absorb(&mut self, other: &Registry) {
        self.counters.absorb(&other.counters);
        for (key, v) in &other.gauges {
            self.gauges
                .entry(key.clone())
                .and_modify(|g| *g = (*g).max(*v))
                .or_insert(*v);
        }
        for (key, h) in &other.histograms {
            self.histograms.entry(key.clone()).or_default().absorb(h);
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// A point-in-time copy of every series, for later [`Snapshot::diff`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.iter().map(|(k, v)| (k.to_string(), v)).collect(),
            gauges: self.gauges.clone(),
            observations: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), (h.count(), h.sum())))
                .collect(),
        }
    }

    /// Prometheus-style text exposition: `# TYPE` headers, one
    /// `series value` line per series. Dots in metric names become
    /// underscores (Prometheus names cannot contain `.`); label sets are
    /// emitted verbatim. Histograms export `_count`/`_sum`/`_min`/`_max`
    /// gauge series.
    pub fn prometheus_text(&self) -> String {
        fn mangle(key: &str) -> (String, &str) {
            let (name, labels) = match key.find('{') {
                Some(i) => key.split_at(i),
                None => (key, ""),
            };
            (name.replace('.', "_"), labels)
        }
        let mut out = String::new();
        let mut last_header = String::new();
        let mut header = |out: &mut String, name: &str, kind: &str| {
            if *name != last_header {
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_header = name.to_string();
            }
        };
        for (key, v) in self.counters.iter() {
            let (name, labels) = mangle(key);
            header(&mut out, &name, "counter");
            out.push_str(&format!("{name}{labels} {v}\n"));
        }
        for (key, v) in &self.gauges {
            let (name, labels) = mangle(key);
            header(&mut out, &name, "gauge");
            out.push_str(&format!("{name}{labels} {v}\n"));
        }
        for (key, h) in &self.histograms {
            let (name, labels) = mangle(key);
            header(&mut out, &name, "summary");
            out.push_str(&format!("{name}_count{labels} {}\n", h.count()));
            out.push_str(&format!("{name}_sum{labels} {}\n", h.sum()));
            out.push_str(&format!("{name}_min{labels} {}\n", h.min()));
            out.push_str(&format!("{name}_max{labels} {}\n", h.max()));
        }
        out
    }

    /// JSONL exposition: one JSON object per series, stable order
    /// (counters, then gauges, then histograms; each table sorted by
    /// series key).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (key, v) in self.counters.iter() {
            out.push_str(&format!(
                "{{\"kind\":\"counter\",\"series\":{},\"value\":{v}}}\n",
                json::escape(key)
            ));
        }
        for (key, v) in &self.gauges {
            out.push_str(&format!(
                "{{\"kind\":\"gauge\",\"series\":{},\"value\":{v}}}\n",
                json::escape(key)
            ));
        }
        for (key, h) in &self.histograms {
            out.push_str(&format!(
                "{{\"kind\":\"histogram\",\"series\":{},\"value\":{}}}\n",
                json::escape(key),
                h.to_json()
            ));
        }
        out
    }
}

/// A point-in-time copy of a [`Registry`]'s series values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    /// Histogram series → (count, sum) at snapshot time.
    observations: BTreeMap<String, (u64, u64)>,
}

impl Snapshot {
    /// The change from `earlier` to `self`: only series that moved are
    /// reported. Counter deltas are saturating (a counter that went
    /// backwards — impossible in one registry — reads as 0).
    pub fn diff(&self, earlier: &Snapshot) -> SnapshotDiff {
        let mut d = SnapshotDiff::default();
        for (key, v) in &self.counters {
            let before = earlier.counters.get(key).copied().unwrap_or(0);
            if *v != before {
                d.counters.push((key.clone(), v.saturating_sub(before)));
            }
        }
        for (key, v) in &self.gauges {
            let before = earlier.gauges.get(key).copied();
            if before != Some(*v) {
                d.gauges.push((key.clone(), *v - before.unwrap_or(0)));
            }
        }
        for (key, (count, sum)) in &self.observations {
            let (c0, s0) = earlier.observations.get(key).copied().unwrap_or((0, 0));
            if *count != c0 {
                d.observations.push((
                    key.clone(),
                    count.saturating_sub(c0),
                    sum.saturating_sub(s0),
                ));
            }
        }
        d
    }
}

/// What changed between two [`Snapshot`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotDiff {
    /// Counter series that advanced: (series key, delta).
    pub counters: Vec<(String, u64)>,
    /// Gauges that moved: (series key, signed delta).
    pub gauges: Vec<(String, i64)>,
    /// Histograms with new observations: (series key, count delta,
    /// sum delta).
    pub observations: Vec<(String, u64, u64)>,
}

impl SnapshotDiff {
    /// True when nothing changed between the snapshots.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.observations.is_empty()
    }

    /// One line per change, for human output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, delta) in &self.counters {
            out.push_str(&format!("{key} +{delta}\n"));
        }
        for (key, delta) in &self.gauges {
            out.push_str(&format!("{key} {delta:+}\n"));
        }
        for (key, count, sum) in &self.observations {
            out.push_str(&format!("{key} +{count} obs (+{sum})\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_keys_sort_labels_and_escape_values() {
        assert_eq!(series_key("a.b", &[]), "a.b");
        assert_eq!(
            series_key("a.b", &[("z", "1"), ("a", "x\"y")]),
            "a.b{a=\"x\\\"y\",z=\"1\"}"
        );
    }

    #[test]
    fn labeled_series_are_independent() {
        let mut r = Registry::new();
        r.inc_labeled("apply.trampolines_written", &[("cve", "a")], 2);
        r.inc_labeled("apply.trampolines_written", &[("cve", "b")], 5);
        assert_eq!(r.counter_labeled("apply.trampolines_written", &[("cve", "a")]), 2);
        assert_eq!(r.counter_labeled("apply.trampolines_written", &[("cve", "b")]), 5);
        r.set_gauge("watch.packs_active", &[], 3);
        assert_eq!(r.gauge("watch.packs_active", &[]), Some(3));
        r.observe_labeled("apply.pause_us", &[("cve", "a")], 700);
        assert_eq!(
            r.histogram("apply.pause_us{cve=\"a\"}").unwrap().count(),
            1
        );
    }

    #[test]
    fn absorb_adds_counters_and_maxes_gauges() {
        let mut a = Registry::new();
        a.inc("x.y", 1);
        a.set_gauge("g.h", &[], 5);
        let mut b = Registry::new();
        b.inc("x.y", 2);
        b.set_gauge("g.h", &[], 3);
        b.set_gauge("g.i", &[], 7);
        b.observe("h.o", 10);
        a.absorb(&b);
        assert_eq!(a.counter("x.y"), 3);
        assert_eq!(a.gauge("g.h", &[]), Some(5)); // max wins
        assert_eq!(a.gauge("g.i", &[]), Some(7));
        assert_eq!(a.histogram("h.o").unwrap().count(), 1);
        // Absorb order does not matter for the merged values.
        let mut c = Registry::new();
        c.absorb(&b);
        let mut a2 = Registry::new();
        a2.inc("x.y", 1);
        a2.set_gauge("g.h", &[], 5);
        c.absorb(&a2);
        assert_eq!(c.counter("x.y"), a.counter("x.y"));
        assert_eq!(c.gauge("g.h", &[]), a.gauge("g.h", &[]));
    }

    #[test]
    fn snapshot_diff_reports_only_changes() {
        let mut r = Registry::new();
        r.inc("a.b", 1);
        r.set_gauge("g.h", &[], 2);
        r.observe("h.o", 4);
        let before = r.snapshot();
        assert!(before.diff(&before).is_empty());
        r.inc("a.b", 3);
        r.inc("c.d", 1);
        r.set_gauge("g.h", &[], 1);
        r.observe("h.o", 6);
        let d = r.snapshot().diff(&before);
        assert_eq!(d.counters, vec![("a.b".into(), 3), ("c.d".into(), 1)]);
        assert_eq!(d.gauges, vec![("g.h".into(), -1)]);
        assert_eq!(d.observations, vec![("h.o".into(), 1, 6)]);
        assert!(d.render().contains("a.b +3"));
        assert!(d.render().contains("g.h -1"));
    }

    #[test]
    fn prometheus_text_mangles_names() {
        let mut r = Registry::new();
        r.inc_labeled("apply.updates_committed", &[("cve", "x")], 2);
        r.set_gauge("watch.packs_active", &[], 1);
        r.observe("apply.pause_us", 700);
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE apply_updates_committed counter"), "{text}");
        assert!(text.contains("apply_updates_committed{cve=\"x\"} 2"), "{text}");
        assert!(text.contains("watch_packs_active 1"), "{text}");
        assert!(text.contains("apply_pause_us_count 1"), "{text}");
        assert!(text.contains("apply_pause_us_sum 700"), "{text}");
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut r = Registry::new();
        r.inc_labeled("a.b", &[("k", "v")], 1);
        r.set_gauge("g.h", &[], -2);
        r.observe("h.o", 3);
        for line in r.to_jsonl().lines() {
            let v = crate::json::parse_json_object(line).unwrap();
            assert!(v.get("kind").is_some(), "{line}");
            assert!(v.get("series").is_some(), "{line}");
        }
    }
}
