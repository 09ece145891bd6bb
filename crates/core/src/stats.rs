//! Statistics collected by the analyzer: branch/prediction figures
//! (Table 2) and misprediction-distance data (Figures 6 and 7).

use std::collections::BTreeMap;

/// Branch statistics for one analyzed trace — the paper's Table 2 row.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct BranchReport {
    /// Dynamic conditional branches in the raw trace.
    pub cond_branches: u64,
    /// How many were taken.
    pub taken: u64,
    /// How many the configured predictor got right.
    pub predicted_correctly: u64,
    /// Dynamic computed jumps (never predicted).
    pub computed_jumps: u64,
    /// Total raw dynamic instructions (before inlining/unrolling removal).
    pub raw_instrs: u64,
    /// Register-defining instructions whose produced value was predicted
    /// correctly under the configured value-prediction mode (0 when the
    /// axis is `Off`).
    pub value_pred_hits: u64,
    /// Register-defining instructions seen by the value predictor (its
    /// training set; counted even when the axis is `Off`).
    pub value_pred_eligible: u64,
}

impl BranchReport {
    /// Prediction rate in percent (the paper's Table 2, column 1).
    pub fn prediction_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            100.0
        } else {
            100.0 * self.predicted_correctly as f64 / self.cond_branches as f64
        }
    }

    /// Average dynamic instructions between conditional branches
    /// (Table 2, column 2).
    pub fn instrs_between_branches(&self) -> f64 {
        if self.cond_branches == 0 {
            self.raw_instrs as f64
        } else {
            self.raw_instrs as f64 / self.cond_branches as f64
        }
    }

    /// Value-prediction hit rate in percent over register-defining
    /// instructions (100.0 when none were eligible, e.g. under `Off`
    /// nothing hits — the rate is then 0.0 unless the trace had no defs).
    pub fn value_prediction_rate(&self) -> f64 {
        if self.value_pred_eligible == 0 {
            100.0
        } else {
            100.0 * self.value_pred_hits as f64 / self.value_pred_eligible as f64
        }
    }
}

/// Misprediction-distance statistics from the SP machine (Figures 6, 7).
///
/// A *segment* is the run of (non-ignored) instructions between two
/// consecutive mispredicted branches; its *distance* is its length and its
/// *parallelism* is length divided by the cycles the SP machine needed for
/// it.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MispredictionStats {
    /// distance -> number of segments with that distance.
    histogram: BTreeMap<u32, u64>,
    /// distance -> (Σ 1/parallelism, segment count) for harmonic means.
    inverse_sums: BTreeMap<u32, (f64, u64)>,
}

impl MispredictionStats {
    /// Creates empty statistics.
    pub fn new() -> MispredictionStats {
        MispredictionStats::default()
    }

    /// Records one segment.
    pub fn record_segment(&mut self, distance: u32, parallelism: f64) {
        if distance == 0 {
            return;
        }
        *self.histogram.entry(distance).or_insert(0) += 1;
        let entry = self.inverse_sums.entry(distance).or_insert((0.0, 0));
        entry.0 += 1.0 / parallelism.max(f64::MIN_POSITIVE);
        entry.1 += 1;
    }

    /// Total recorded segments (= mispredictions observed, ±1 for the
    /// trailing partial segment).
    pub fn total_segments(&self) -> u64 {
        self.histogram.values().sum()
    }

    /// The raw distance histogram.
    pub fn histogram(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.histogram.iter().map(|(&d, &n)| (d, n))
    }

    /// Cumulative distribution of misprediction distances — Figure 6.
    /// Returns `(distance, fraction of segments with distance ≤ d)` pairs.
    pub fn cumulative_distribution(&self) -> Vec<(u32, f64)> {
        let total = self.total_segments();
        if total == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.histogram.len());
        let mut running = 0u64;
        for (&distance, &count) in &self.histogram {
            running += count;
            out.push((distance, running as f64 / total as f64));
        }
        out
    }

    /// Fraction of segments with distance ≤ `d`.
    pub fn fraction_within(&self, d: u32) -> f64 {
        let total = self.total_segments();
        if total == 0 {
            return 1.0;
        }
        let within: u64 = self
            .histogram
            .iter()
            .take_while(|&(&distance, _)| distance <= d)
            .map(|(_, &count)| count)
            .sum();
        within as f64 / total as f64
    }

    /// Harmonic-mean parallelism per distance bucket — Figure 7. Buckets
    /// are geometric: `[1,2), [2,4), [4,8), ...`. Returns
    /// `(bucket_low, harmonic_mean_parallelism, segment_count)`.
    pub fn parallelism_by_distance(&self) -> Vec<(u32, f64, u64)> {
        let mut buckets: BTreeMap<u32, (f64, u64)> = BTreeMap::new();
        for (&distance, &(inv_sum, count)) in &self.inverse_sums {
            let bucket = if distance == 0 {
                1
            } else {
                1u32 << (31 - distance.leading_zeros())
            };
            let entry = buckets.entry(bucket).or_insert((0.0, 0));
            entry.0 += inv_sum;
            entry.1 += count;
        }
        buckets
            .into_iter()
            .map(|(bucket, (inv_sum, count))| {
                let hmean = if inv_sum > 0.0 {
                    count as f64 / inv_sum
                } else {
                    0.0
                };
                (bucket, hmean, count)
            })
            .collect()
    }

    /// Merges another statistics object into this one (used to combine all
    /// benchmarks for the paper's Figure 7).
    pub fn merge(&mut self, other: &MispredictionStats) {
        for (&d, &n) in &other.histogram {
            *self.histogram.entry(d).or_insert(0) += n;
        }
        for (&d, &(inv, n)) in &other.inverse_sums {
            let entry = self.inverse_sums.entry(d).or_insert((0.0, 0));
            entry.0 += inv;
            entry.1 += n;
        }
    }
}

/// The harmonic mean of a sequence of positive values — the paper's
/// summary statistic for parallelism across benchmarks.
///
/// Returns 0.0 for an empty sequence.
///
/// # Example
///
/// ```
/// let hm = clfp_limits::harmonic_mean([2.0, 6.0]);
/// assert!((hm - 3.0).abs() < 1e-12);
/// ```
pub fn harmonic_mean<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut inv_sum = 0.0;
    let mut count = 0u64;
    for value in values {
        inv_sum += 1.0 / value.max(f64::MIN_POSITIVE);
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        count as f64 / inv_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_report_rates() {
        let report = BranchReport {
            cond_branches: 200,
            taken: 120,
            predicted_correctly: 180,
            computed_jumps: 2,
            raw_instrs: 1200,
            value_pred_hits: 300,
            value_pred_eligible: 400,
        };
        assert!((report.prediction_rate() - 90.0).abs() < 1e-12);
        assert!((report.instrs_between_branches() - 6.0).abs() < 1e-12);
        assert!((report.value_prediction_rate() - 75.0).abs() < 1e-12);
        assert_eq!(BranchReport::default().value_prediction_rate(), 100.0);
    }

    #[test]
    fn branch_report_no_branches() {
        let report = BranchReport {
            raw_instrs: 10,
            ..BranchReport::default()
        };
        assert_eq!(report.prediction_rate(), 100.0);
        assert_eq!(report.instrs_between_branches(), 10.0);
    }

    #[test]
    fn cumulative_distribution_reaches_one() {
        let mut stats = MispredictionStats::new();
        stats.record_segment(5, 2.0);
        stats.record_segment(5, 3.0);
        stats.record_segment(100, 8.0);
        stats.record_segment(1000, 12.0);
        let dist = stats.cumulative_distribution();
        assert_eq!(dist.first().unwrap().0, 5);
        assert!((dist.last().unwrap().1 - 1.0).abs() < 1e-12);
        assert!((stats.fraction_within(100) - 0.75).abs() < 1e-12);
        assert_eq!(stats.total_segments(), 4);
    }

    #[test]
    fn zero_distance_segments_ignored() {
        let mut stats = MispredictionStats::new();
        stats.record_segment(0, 1.0);
        assert_eq!(stats.total_segments(), 0);
    }

    #[test]
    fn parallelism_buckets_are_geometric() {
        let mut stats = MispredictionStats::new();
        stats.record_segment(3, 2.0);
        stats.record_segment(3, 2.0);
        stats.record_segment(9, 4.0);
        let buckets = stats.parallelism_by_distance();
        // 3 -> bucket 2; 9 -> bucket 8.
        assert_eq!(buckets[0].0, 2);
        assert!((buckets[0].1 - 2.0).abs() < 1e-12);
        assert_eq!(buckets[0].2, 2);
        assert_eq!(buckets[1].0, 8);
    }

    #[test]
    fn merge_combines() {
        let mut a = MispredictionStats::new();
        a.record_segment(4, 2.0);
        let mut b = MispredictionStats::new();
        b.record_segment(4, 2.0);
        b.record_segment(7, 3.0);
        a.merge(&b);
        assert_eq!(a.total_segments(), 3);
    }

    #[test]
    fn harmonic_mean_examples() {
        assert_eq!(harmonic_mean([]), 0.0);
        assert!((harmonic_mean([4.0]) - 4.0).abs() < 1e-12);
        assert!((harmonic_mean([1.0, 1.0, 4.0]) - (3.0 / 2.25)).abs() < 1e-12);
    }
}
