//! The labeled metrics registry: counters, gauges and log2 histograms
//! keyed by `(name, label set)`.
//!
//! Every series is stored under a canonical **series key**:
//! `name{k="v",k2="v2"}` with labels sorted by key (a bare `name` when
//! unlabeled). Metric names follow the `stage.noun_verb` convention
//! (`apply.trampolines_written`, `watch.probes_failed`).

use std::collections::BTreeMap;

use crate::json;
use crate::metrics::Histogram;

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
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `n` to an unlabeled counter, creating it at zero first.
    pub fn inc(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Adds `n` to a labeled counter series.
    pub fn inc_labeled(&mut self, name: &str, labels: &[(&str, &str)], n: u64) {
        self.inc(&series_key(name, labels), n);
    }

    /// Reads a counter series by its exact key (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// All counters in series-key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
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
        for (key, n) in other.counters() {
            self.inc(key, n);
        }
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
        assert_eq!(r.counter("apply.trampolines_written{cve=\"a\"}"), 2);
        assert_eq!(r.counter("apply.trampolines_written{cve=\"b\"}"), 5);
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
}
