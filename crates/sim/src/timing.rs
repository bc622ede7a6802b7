//! Decoder execution-time analysis (Table IV and Figure 10 c).
//!
//! The mesh decoder reports its work in clock cycles; the synthesized module
//! latency (Table III) converts cycles into wall-clock nanoseconds.  This
//! module aggregates per-decode samples into the max / average / standard
//! deviation rows of Table IV and the cycle-count distributions of
//! Figure 10(c).

use crate::stats::{histogram, SampleCounts, Summary};
use serde::{Deserialize, Serialize};

/// Converts decoder cycles into nanoseconds using a fixed cycle period.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CycleTimeConverter {
    cycle_time_ps: f64,
}

impl CycleTimeConverter {
    /// Creates a converter from a cycle period in picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive.
    #[must_use]
    pub fn new(cycle_time_ps: f64) -> Self {
        assert!(cycle_time_ps > 0.0, "cycle time must be positive");
        CycleTimeConverter { cycle_time_ps }
    }

    /// The paper's synthesized module latency (162.72 ps, Table III).
    #[must_use]
    pub fn paper_reference() -> Self {
        CycleTimeConverter::new(162.72)
    }

    /// The cycle period in picoseconds.
    #[must_use]
    pub fn cycle_time_ps(&self) -> f64 {
        self.cycle_time_ps
    }

    /// Converts a cycle count into nanoseconds.
    #[must_use]
    pub fn cycles_to_ns(&self, cycles: usize) -> f64 {
        cycles as f64 * self.cycle_time_ps * 1e-3
    }
}

/// One row of Table IV: decoder execution time for one code distance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTimeRow {
    /// Code distance.
    pub distance: usize,
    /// Maximum observed decode time in nanoseconds.
    pub max_ns: f64,
    /// Average decode time in nanoseconds.
    pub average_ns: f64,
    /// Standard deviation of the decode time in nanoseconds.
    pub std_dev_ns: f64,
    /// Number of decodes behind the row.
    pub samples: usize,
}

impl ExecutionTimeRow {
    /// Builds the row from cycle counts and a cycle-time converter.
    #[must_use]
    pub fn from_cycles(
        distance: usize,
        cycles: &SampleCounts<usize>,
        converter: &CycleTimeConverter,
    ) -> Self {
        let times = cycles.runs().iter();
        let summary = Summary::of_runs(times.map(|&(c, n)| (converter.cycles_to_ns(c), n)));
        ExecutionTimeRow {
            distance,
            max_ns: summary.max.max(0.0),
            average_ns: summary.mean,
            std_dev_ns: summary.std_dev,
            samples: summary.count,
        }
    }
}

/// The Figure 10(c)-style truncated cycle-count distribution for one distance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleDistribution {
    /// Code distance.
    pub distance: usize,
    /// Bin edges (in cycles).
    pub bin_edges: Vec<f64>,
    /// Estimated probability mass per bin.
    pub densities: Vec<f64>,
}

impl CycleDistribution {
    /// Builds the distribution from cycle counts, truncated at `max_cycles`.
    #[must_use]
    pub fn from_cycles(
        distance: usize,
        cycles: &SampleCounts<usize>,
        bins: usize,
        max_cycles: usize,
    ) -> Self {
        let runs = cycles.runs().iter().map(|&(c, n)| (c as f64, n));
        let (bin_edges, densities) = histogram(runs, bins, max_cycles as f64);
        CycleDistribution {
            distance,
            bin_edges,
            densities,
        }
    }

    /// The bin (by lower edge, in cycles) with the highest probability mass.
    #[must_use]
    pub fn mode_cycles(&self) -> f64 {
        let mut best = 0usize;
        for (i, &d) in self.densities.iter().enumerate() {
            if d > self.densities[best] {
                best = i;
            }
        }
        self.bin_edges.get(best).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_matches_paper_units() {
        let converter = CycleTimeConverter::paper_reference();
        // 118 cycles at 162.72 ps is about 19.2 ns — the paper's d=9 maximum.
        let ns = converter.cycles_to_ns(118);
        assert!((ns - 19.2).abs() < 0.1, "{ns}");
        assert_eq!(converter.cycles_to_ns(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_cycle_time_is_rejected() {
        let _ = CycleTimeConverter::new(0.0);
    }

    #[test]
    fn execution_row_statistics() {
        let converter = CycleTimeConverter::new(1000.0); // 1 ns per cycle
        let cycles = SampleCounts::from_runs(vec![(1, 1), (2, 1), (3, 1), (10, 1)]);
        let row = ExecutionTimeRow::from_cycles(5, &cycles, &converter);
        assert_eq!(row.distance, 5);
        assert_eq!(row.samples, 4);
        assert!((row.max_ns - 10.0).abs() < 1e-9);
        assert!((row.average_ns - 4.0).abs() < 1e-9);
        assert!(row.std_dev_ns > 3.0 && row.std_dev_ns < 4.0);
    }

    #[test]
    fn empty_samples_produce_zero_row() {
        let converter = CycleTimeConverter::paper_reference();
        let row = ExecutionTimeRow::from_cycles(3, &SampleCounts::default(), &converter);
        assert_eq!(row.samples, 0);
        assert_eq!(row.average_ns, 0.0);
    }

    #[test]
    fn cycle_distribution_mode() {
        let cycles = SampleCounts::from_runs(vec![(1, 1), (2, 3), (3, 1), (9, 2)]);
        let dist = CycleDistribution::from_cycles(3, &cycles, 5, 10);
        assert_eq!(dist.densities.len(), 5);
        assert!(dist.mode_cycles() <= 4.0);
        let sum: f64 = dist.densities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
