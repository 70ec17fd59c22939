//! Power-of-two histograms.

/// A histogram over u64 observations with power-of-two buckets: bucket
/// `i` counts values whose bit length is `i` (bucket 0 holds zeros).
/// Constant memory, O(1) record, good enough resolution for step counts
/// and microsecond pauses.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let bucket = 64 - value.leading_zeros() as usize; // bit length
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another histogram's observations into this one, as if
    /// every value had been recorded here.
    pub fn absorb(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (bucket, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *bucket += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Occupied buckets as `(lower_bound_inclusive, count)`.
    pub fn occupied(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
            .collect()
    }

    /// JSON object with the summary stats and occupied buckets.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .occupied()
            .iter()
            .map(|(lo, n)| format!("[{lo},{n}]"))
            .collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.1},\"buckets\":\"{}\"}}",
            self.count,
            self.sum,
            self.min(),
            self.max,
            self.mean(),
            buckets.join(" ")
        )
    }

    /// One-line human summary.
    pub fn render(&self) -> String {
        format!(
            "n={} min={} mean={:.1} max={} sum={}",
            self.count,
            self.min(),
            self.mean(),
            self.max,
            self.sum
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 1010);
        // 0 → bucket 0; 1 → [1,2); 2,3 → [2,4); 4 → [4,8); 1000 → [512,1024).
        assert_eq!(h.occupied(), vec![(0, 1), (1, 1), (2, 2), (4, 1), (512, 1)]);
    }

    #[test]
    fn histograms_absorb_each_other() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(700);
        let mut b = Histogram::new();
        b.record(0);
        b.record(900);
        a.absorb(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 1601);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 900);
        // Absorbing an empty histogram changes nothing (min stays valid).
        let before = a.occupied();
        a.absorb(&Histogram::new());
        assert_eq!(a.occupied(), before);
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.to_json().contains("\"count\":0"));
    }
}
