//! Stochastic error channels used by the Monte-Carlo lifetime simulations.
//!
//! The paper's methodology section (Section VII) evaluates the decoder under
//! the **depolarizing channel** (Pauli X, Y, Z each with probability `p/3`)
//! and presents its headline results under the **pure dephasing channel**
//! (Pauli Z with probability `p`), sampled i.i.d. on every data qubit each
//! cycle.  Both channels are provided here, together with a generic biased
//! channel that interpolates between them.

use crate::error::QecError;
use crate::lattice::Lattice;
use crate::pauli::{Pauli, PauliString};
use rand::Rng;
use std::fmt;

/// A stochastic single-qubit error channel applied i.i.d. to every data qubit.
pub trait ErrorModel {
    /// The total probability that a given data qubit suffers *some* error in
    /// one cycle.
    fn physical_error_rate(&self) -> f64;

    /// Samples an error pattern over all data qubits of a lattice.
    fn sample<R: Rng + ?Sized>(&self, lattice: &Lattice, rng: &mut R) -> PauliString {
        let mut error = PauliString::default();
        self.sample_into(lattice, rng, &mut error);
        error
    }

    /// Samples an error pattern over all data qubits of a lattice into a
    /// caller-provided buffer (resized to the lattice, its allocation
    /// reused), by gap sampling: one draw per *faulty* qubit for the distance
    /// to it, one more where the channel has several fault types to pick
    /// from, and one closing draw that runs past the last qubit — `flips + 1`
    /// draws under pure dephasing, whatever the lattice's size.  A seed's
    /// stream is the same on every platform: a gap is read off an integer
    /// threshold table built by IEEE multiplication, with no libm call.
    fn sample_into<R: Rng + ?Sized>(&self, lattice: &Lattice, rng: &mut R, error: &mut PauliString);
}

/// How many thresholds a [`GapTable`] holds: a gap of fewer qubits is one
/// table walk, a longer one skips this many qubits per rescale of the draw.
/// With the 256-byte index this is 2 KiB a channel.
const TABLE_GAPS: usize = 223;

/// `2⁵³`, the scale of a draw's mantissa.
const DRAW_SCALE: f64 = (1u64 << 53) as f64;

/// The uniform → gap map of the sampler, as a table of integer thresholds.
///
/// A draw is the top 53 bits `m` of one `u64` word — the mantissa
/// `gen::<f64>()` makes of the same word, `u = m / 2⁵³`.  With `q = 1 − p`
/// the draw's gap, the healthy qubits before the next faulty one, is the
/// number of `k ≥ 1` with `m ≤ T_k = ⌊2⁵³ qᵏ⌋`: gap `≥ k` exactly when
/// `u ≤ qᵏ`, so `P(gap ≥ k) = qᵏ` — the geometric law of i.i.d. faults of
/// rate `p`.  It is the map `⌊ln u / ln q⌋` up to the rounding of either
/// side within a few ulps of a threshold, and the tests hold the two equal
/// draw for draw.
///
/// The powers `qᵏ` come from repeated multiplication, so the table is
/// bit-for-bit the same on every IEEE platform.  A draw's top byte indexes
/// the gap at the top of its bucket, and a short forward scan finishes the
/// count.  A draw at or below `T_K` (`K` = [`TABLE_GAPS`]) has a gap of at
/// least `K`; the law being memoryless, the sampler skips `K` qubits and
/// rescales the draw by `q⁻ᴷ`, so one table serves every lattice.  At
/// `p = 0` every threshold is `2⁵³` and no draw finds a fault; at `p = 1`
/// every threshold is 0 and every draw is a fault, the zero draw included.
#[derive(Clone, PartialEq)]
struct GapTable {
    /// `thresholds[k]` is `T_{k+1}`, non-increasing.
    thresholds: [u64; TABLE_GAPS],
    /// Per top byte `b` of a draw: the gap of the bucket's largest draw,
    /// `(b + 1)·2⁴⁵ − 1`, which no draw of the bucket is below.
    start: [u8; 256],
    /// `q⁻ᴷ`, the rescale of a draw that skips `K` qubits.
    rescale: f64,
}

impl GapTable {
    fn new(rate: f64) -> Self {
        let healthy = 1.0 - rate;
        // `qᵏ` for k = 1…4, then four interleaved chains of `·q⁴`, which do
        // not wait on each other; IEEE products round the same on every
        // host.
        let mut powers = [healthy; 4];
        for k in 1..4 {
            powers[k] = powers[k - 1] * healthy;
        }
        let stride = powers[3];
        let mut thresholds = [0u64; TABLE_GAPS];
        for (k, threshold) in thresholds.iter_mut().enumerate() {
            if k >= 4 {
                powers[k % 4] *= stride;
            }
            // `qᵏ ≤ 1`: the product is exact and the cast floors it.
            *threshold = (powers[k % 4] * DRAW_SCALE) as i64 as u64;
        }
        // One merge of the thresholds with the bucket tops, top bucket first.
        let mut start = [0u8; 256];
        let mut gap = 0;
        for (bucket, slot) in start.iter_mut().enumerate().rev() {
            let top = ((bucket as u64 + 1) << 45) - 1;
            while gap < TABLE_GAPS && thresholds[gap] >= top {
                gap += 1;
            }
            *slot = gap as u8;
        }
        GapTable {
            thresholds,
            start,
            rescale: powers[(TABLE_GAPS - 1) % 4].recip(),
        }
    }

    /// The gap of the draw `word`, or any value of at least `limit` once the
    /// gap is known to reach it (the gap of a zero draw is unbounded unless
    /// `p = 1`).
    fn gap(&self, word: u64, limit: usize) -> usize {
        let mut draw = word >> 11;
        let mut skipped = 0;
        let last = self.thresholds[TABLE_GAPS - 1];
        if draw <= last {
            if draw == 0 {
                // `u = 0`: the `ln` map's `+∞` (saturated), or its NaN (0) at `p = 1`.
                return if self.thresholds[0] == 0 {
                    0
                } else {
                    usize::MAX
                };
            }
            // A gap of at least `K`: skip `K` qubits per rescale, until the
            // draw rises above `T_K` or the gap reaches `limit`.
            let (mut scaled, above) = (draw as f64, (last + 1) as f64);
            while scaled < above {
                skipped += TABLE_GAPS;
                if skipped >= limit {
                    return skipped;
                }
                scaled *= self.rescale;
            }
            draw = (scaled as u64).min((1 << 53) - 1);
        }
        // `draw > T_K`: the scan stops inside the table.
        let mut gap = usize::from(self.start[(draw >> 45) as usize]);
        while self.thresholds[gap] >= draw {
            gap += 1;
        }
        skipped + gap
    }
}

impl fmt::Debug for GapTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GapTable").finish_non_exhaustive()
    }
}

/// The one sampler behind every channel: walks the data qubits gap by gap
/// ([`GapTable`]) and asks `fault` which Pauli each faulty qubit suffers.
fn sample_faults<R: Rng + ?Sized>(
    table: &GapTable,
    lattice: &Lattice,
    rng: &mut R,
    error: &mut PauliString,
    mut fault: impl FnMut(&mut R) -> Pauli,
) {
    let num_qubits = lattice.num_data();
    error.reset_identity(num_qubits);
    let mut qubit = 0usize;
    loop {
        qubit = qubit.saturating_add(table.gap(rng.next_u64(), num_qubits - qubit));
        if qubit >= num_qubits {
            return;
        }
        error.set(qubit, fault(rng));
        qubit += 1;
    }
}

/// Checks that `p` is a probability, `0 ≤ p ≤ 1`, and returns it — what each
/// channel's constructor checks, without building its table.
///
/// # Errors
///
/// Returns [`QecError::InvalidProbability`] otherwise.
pub fn check_probability(p: f64) -> Result<f64, QecError> {
    if (0.0..=1.0).contains(&p) && p.is_finite() {
        Ok(p)
    } else {
        Err(QecError::InvalidProbability { value: p })
    }
}

/// The symmetric depolarizing channel: X, Y and Z each occur with probability `p/3`.
///
/// A channel owns its 2 KiB gap table ([`ErrorModel::sample_into`]), so it
/// is `Clone`, not `Copy`.
#[derive(Debug, Clone, PartialEq)]
pub struct Depolarizing {
    p: f64,
    table: GapTable,
}

impl Depolarizing {
    /// Creates a depolarizing channel of total error probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidProbability`] if `p` is outside `[0, 1]`.
    pub fn new(p: f64) -> Result<Self, QecError> {
        Ok(Depolarizing {
            p: check_probability(p)?,
            table: GapTable::new(p),
        })
    }

    /// The total error probability `p`.
    #[must_use]
    pub fn probability(&self) -> f64 {
        self.p
    }
}

impl ErrorModel for Depolarizing {
    fn physical_error_rate(&self) -> f64 {
        self.p
    }

    fn sample_into<R: Rng + ?Sized>(
        &self,
        lattice: &Lattice,
        rng: &mut R,
        error: &mut PauliString,
    ) {
        sample_faults(&self.table, lattice, rng, error, |rng| {
            Pauli::ERRORS[(rng.gen::<f64>() * 3.0) as usize]
        });
    }
}

/// The pure dephasing channel: Z occurs with probability `p`, nothing else.
///
/// This is the error model under which the paper reports its accuracy
/// threshold (≈5%) and pseudo-thresholds (3.5%–5%).
#[derive(Debug, Clone, PartialEq)]
pub struct PureDephasing {
    p: f64,
    table: GapTable,
}

impl PureDephasing {
    /// Creates a pure dephasing channel of error probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidProbability`] if `p` is outside `[0, 1]`.
    pub fn new(p: f64) -> Result<Self, QecError> {
        Ok(PureDephasing {
            p: check_probability(p)?,
            table: GapTable::new(p),
        })
    }

    /// The phase-flip probability `p`.
    #[must_use]
    pub fn probability(&self) -> f64 {
        self.p
    }
}

impl ErrorModel for PureDephasing {
    fn physical_error_rate(&self) -> f64 {
        self.p
    }

    fn sample_into<R: Rng + ?Sized>(
        &self,
        lattice: &Lattice,
        rng: &mut R,
        error: &mut PauliString,
    ) {
        sample_faults(&self.table, lattice, rng, error, |_| Pauli::Z);
    }
}

/// A biased Pauli channel with independent probabilities for X, Y and Z.
///
/// `BiasedChannel` generalizes both [`Depolarizing`] (`px = py = pz = p/3`)
/// and [`PureDephasing`] (`px = py = 0`).
#[derive(Debug, Clone, PartialEq)]
pub struct BiasedChannel {
    px: f64,
    py: f64,
    pz: f64,
    table: GapTable,
}

impl BiasedChannel {
    /// Creates a biased channel from individual X, Y and Z probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidProbability`] if any probability is outside
    /// `[0, 1]` or if they sum to more than 1.
    pub fn new(px: f64, py: f64, pz: f64) -> Result<Self, QecError> {
        check_probability(px)?;
        check_probability(py)?;
        check_probability(pz)?;
        let rate = check_probability(px + py + pz)?;
        Ok(BiasedChannel {
            px,
            py,
            pz,
            table: GapTable::new(rate),
        })
    }

    /// The individual probabilities `(px, py, pz)`.
    #[must_use]
    pub fn probabilities(&self) -> (f64, f64, f64) {
        (self.px, self.py, self.pz)
    }
}

impl ErrorModel for BiasedChannel {
    fn physical_error_rate(&self) -> f64 {
        self.px + self.py + self.pz
    }

    fn sample_into<R: Rng + ?Sized>(
        &self,
        lattice: &Lattice,
        rng: &mut R,
        error: &mut PauliString,
    ) {
        let rate = self.physical_error_rate();
        // Shares of a fault, as cumulative fractions: with `pz = 0` the
        // second is exactly 1 and a `Z` is impossible, not merely unlikely.
        let (x_share, xy_share) = (self.px / rate, (self.px + self.py) / rate);
        sample_faults(&self.table, lattice, rng, error, |rng| {
            let r: f64 = rng.gen();
            if r < x_share {
                Pauli::X
            } else if r < xy_share {
                Pauli::Y
            } else {
                Pauli::Z
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The oracle the gap sampler is checked against: one Bernoulli draw per
    /// data qubit, in qubit order — the sampler this module used to run.
    fn sample_single<R: Rng + ?Sized>((px, py, pz): (f64, f64, f64), rng: &mut R) -> Pauli {
        let r: f64 = rng.gen();
        if r < px {
            Pauli::X
        } else if r < px + py {
            Pauli::Y
        } else if r < px + py + pz {
            Pauli::Z
        } else {
            Pauli::I
        }
    }

    fn oracle_sample<R: Rng + ?Sized>(
        rates: (f64, f64, f64),
        lattice: &Lattice,
        rng: &mut R,
    ) -> PauliString {
        (0..lattice.num_data())
            .map(|_| sample_single(rates, rng))
            .collect()
    }

    /// Significance level of every χ² test below; they run at fixed seeds, so
    /// each either passes forever or never did.
    const Z_ALPHA_0_001: f64 = 3.0902;

    /// The χ² critical value at `α = 0.001` (Wilson–Hilferty).
    fn chi2_critical(df: usize) -> f64 {
        let k = df as f64;
        k * (1.0 - 2.0 / (9.0 * k) + Z_ALPHA_0_001 * (2.0 / (9.0 * k)).sqrt()).powi(3)
    }

    /// Two-sample χ² of homogeneity between histograms of equal totals:
    /// `(statistic, degrees of freedom)`.  Neighbouring cells are pooled until
    /// each holds 20 observations between the samples.
    fn chi2_two_sample(a: &[u64], b: &[u64]) -> (f64, usize) {
        assert_eq!(a.iter().sum::<u64>(), b.iter().sum::<u64>());
        let mut cells: Vec<(u64, u64)> = Vec::new();
        let mut pool = (0u64, 0u64);
        for (&x, &y) in a.iter().zip(b) {
            pool = (pool.0 + x, pool.1 + y);
            if pool.0 + pool.1 >= 20 {
                cells.push(std::mem::take(&mut pool));
            }
        }
        if let Some(last) = cells.last_mut() {
            *last = (last.0 + pool.0, last.1 + pool.1);
        }
        let statistic = cells
            .iter()
            .map(|&(x, y)| (x as f64 - y as f64).powi(2) / (x + y) as f64)
            .sum();
        (statistic, cells.len().saturating_sub(1))
    }

    /// Weight histogram and per-qubit fault counts of `rounds` samples.
    fn tally(
        lattice: &Lattice,
        rounds: u64,
        mut sample: impl FnMut() -> PauliString,
    ) -> (Vec<u64>, Vec<u64>) {
        let n = lattice.num_data();
        let (mut weights, mut marginals) = (vec![0u64; n + 1], vec![0u64; n]);
        for _ in 0..rounds {
            let error = sample();
            assert_eq!(error.len(), n);
            weights[error.weight()] += 1;
            for (qubit, op) in error.iter().enumerate() {
                marginals[qubit] += u64::from(op != Pauli::I);
            }
        }
        (weights, marginals)
    }

    /// Distribution parity with the per-qubit oracle at every size and rate
    /// the repository samples at: the error-weight histogram, and each
    /// qubit's fault count as its own 2 × 2 table (qubits are independent
    /// within either sampler, so the statistics add to a χ² of `n` degrees).
    #[test]
    fn gap_sampling_matches_the_per_qubit_oracle_in_weight_and_position() {
        const ROUNDS: u64 = 20_000;
        for distance in [3, 5, 9] {
            let lattice = Lattice::new(distance).unwrap();
            for p in [0.001, 0.03, 0.05, 0.3] {
                let model = PureDephasing::new(p).unwrap();
                let mut rng = ChaCha8Rng::seed_from_u64(2020);
                let mut oracle_rng = ChaCha8Rng::seed_from_u64(2021);
                let (weights, marginals) =
                    tally(&lattice, ROUNDS, || model.sample(&lattice, &mut rng));
                let (oracle_weights, oracle_marginals) = tally(&lattice, ROUNDS, || {
                    oracle_sample((0.0, 0.0, p), &lattice, &mut oracle_rng)
                });
                let (statistic, df) = chi2_two_sample(&weights, &oracle_weights);
                assert!(
                    df >= 1 && statistic < chi2_critical(df),
                    "d={distance} p={p} weights: chi2 {statistic:.1} at {df} df"
                );
                let statistic: f64 = marginals
                    .iter()
                    .zip(&oracle_marginals)
                    .map(|(&x, &y)| chi2_two_sample(&[x, ROUNDS - x], &[y, ROUNDS - y]).0)
                    .sum();
                let df = lattice.num_data();
                assert!(
                    statistic < chi2_critical(df),
                    "d={distance} p={p} marginals: chi2 {statistic:.1} at {df} df"
                );
            }
        }
    }

    /// `I : X : Y : Z` shares of the two channels that spend a draw on which
    /// fault, against the oracle.
    #[test]
    fn empirical_rates_are_close_to_nominal() {
        fn shares(mut sample: impl FnMut() -> PauliString) -> [u64; 4] {
            let mut counts = [0u64; 4];
            for _ in 0..20_000 {
                for op in sample().iter() {
                    counts[op as usize] += 1;
                }
            }
            counts
        }
        let lattice = Lattice::new(5).unwrap();
        let depolarizing = Depolarizing::new(0.1).unwrap();
        let lopsided = BiasedChannel::new(0.01, 0.002, 0.1).unwrap();
        let third = 0.1 / 3.0;
        let mut rng = ChaCha8Rng::seed_from_u64(2020);
        let mut oracle_rng = ChaCha8Rng::seed_from_u64(2021);
        for (name, rates, sampled) in [
            (
                "depolarizing",
                (third, third, third),
                shares(|| depolarizing.sample(&lattice, &mut rng)),
            ),
            (
                "biased",
                lopsided.probabilities(),
                shares(|| lopsided.sample(&lattice, &mut rng)),
            ),
        ] {
            let oracle = shares(|| oracle_sample(rates, &lattice, &mut oracle_rng));
            let (statistic, df) = chi2_two_sample(&sampled, &oracle);
            assert_eq!(df, 3, "{name}: {sampled:?} vs {oracle:?}");
            assert!(
                statistic < chi2_critical(df),
                "{name}: chi2 {statistic:.1}, {sampled:?} vs {oracle:?}"
            );
        }
    }

    /// An RNG that counts the draws made from it.
    struct Counting<R>(R, u64);

    impl<R: rand::RngCore> rand::RngCore for Counting<R> {
        fn next_u32(&mut self) -> u32 {
            self.1 += 1;
            self.0.next_u32()
        }

        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    /// What a round costs: one draw per fault plus the closing one under
    /// dephasing — at `p = 0` and `p = 1` too — and one more per fault where
    /// the channel picks among fault types.
    #[test]
    fn a_round_draws_once_per_fault_plus_once() {
        let lattice = Lattice::new(9).unwrap();
        let mut rng = Counting(ChaCha8Rng::seed_from_u64(7), 0);
        let mut error = PauliString::default();
        for p in [0.0, 0.001, 0.05, 0.3, 1.0] {
            for _ in 0..200 {
                let before = rng.1;
                PureDephasing::new(p)
                    .unwrap()
                    .sample_into(&lattice, &mut rng, &mut error);
                assert_eq!(rng.1 - before, error.weight() as u64 + 1, "p = {p}");
                let before = rng.1;
                Depolarizing::new(p)
                    .unwrap()
                    .sample_into(&lattice, &mut rng, &mut error);
                assert_eq!(rng.1 - before, 2 * error.weight() as u64 + 1, "p = {p}");
            }
        }
    }

    /// The map the sampler evaluated before the threshold table, kept as
    /// its oracle: `⌊ln u / ln(1 − p)⌋` of the draw `u = gen::<f64>()` makes
    /// of `word`, the cast saturating (`p = 0` divides by `−0.0` and yields
    /// `usize::MAX` for every `u`, `p = 1` divides by `−∞` and yields 0).
    fn ln_gap(word: u64, p: f64) -> usize {
        let u = (word >> 11) as f64 / DRAW_SCALE;
        (u.ln() / (-p).ln_1p()) as usize
    }

    /// The table map at its edges and on one pinned stream.
    #[test]
    fn gap_map_edges_and_first_gaps_of_a_seed() {
        let word = |u: f64| ((u * DRAW_SCALE) as u64) << 11;
        // p = 0 (and a rate too small to tell from it): no draw finds a
        // fault, the largest and the zero draw included; p = 1: every draw
        // is a fault.
        for x in [0, word(0.5), u64::MAX] {
            for p in [0.0, 1e-300] {
                assert!(GapTable::new(p).gap(x, 1861) >= 1861, "p = {p}, x = {x:#x}");
            }
            assert_eq!(GapTable::new(1.0).gap(x, 1861), 0);
        }
        // 0.95^13 = 0.5133…, 0.95^14 = 0.4876…
        let table = GapTable::new(0.05);
        assert_eq!(
            (table.gap(word(0.5), 100), table.gap(word(0.96), 100)),
            (13, 0)
        );
        assert_eq!(table.gap(0, 100), usize::MAX);
        let mut rng = ChaCha8Rng::seed_from_u64(2020);
        let first: Vec<usize> = (0..8).map(|_| table.gap(rng.next_u64(), 100)).collect();
        assert_eq!(first, [50, 5, 24, 2, 0, 7, 36, 47]);
    }

    /// The table map is the `ln` map, draw for draw: a million draws at each
    /// rate, unbounded, and bounded by the data qubits of d = 13 and d = 31,
    /// whose gaps run past the table and through its rescale.
    #[test]
    fn table_gaps_equal_the_ln_map_on_a_million_draws() {
        let bounds = [usize::MAX, Lattice::new(13).unwrap().num_data(), 1861];
        for (seed, p) in (1u64..).zip([1e-4, 1e-3, 0.03, 0.05, 0.3, 0.5]) {
            let table = GapTable::new(p);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for _ in 0..1_000_000 {
                let x = rng.next_u64();
                let expected = ln_gap(x, p);
                for limit in bounds {
                    assert_eq!(
                        table.gap(x, limit).min(limit),
                        expected.min(limit),
                        "p = {p}, x = {x:#x}, limit = {limit}"
                    );
                }
            }
        }
    }

    /// The index and scan agree with a linear count of the thresholds at
    /// every bucket edge and on both sides of every threshold.
    #[test]
    fn the_index_agrees_with_a_linear_count_at_every_edge() {
        for p in [1e-4, 1e-3, 0.03, 0.05, 0.3, 0.5, 0.9, 1.0] {
            let table = GapTable::new(p);
            let edges = (0..256u64).flat_map(|b| [b << 45, ((b + 1) << 45) - 1]);
            let sides = table
                .thresholds
                .iter()
                .flat_map(|&t| [t.saturating_sub(1), t, t + 1]);
            for draw in edges.chain(sides).filter(|&m| m > 0 && m < 1 << 53) {
                let linear = table.thresholds.iter().take_while(|&&t| t >= draw).count();
                let gap = table.gap(draw << 11, usize::MAX);
                if linear < TABLE_GAPS {
                    assert_eq!(gap, linear, "p = {p}, draw = {draw:#x}");
                } else {
                    assert!(gap >= TABLE_GAPS, "p = {p}, draw = {draw:#x}");
                }
            }
        }
    }

    #[test]
    fn sample_into_draws_what_sample_draws() {
        let lattice = Lattice::new(5).unwrap();
        let model = Depolarizing::new(0.2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut rng_into = ChaCha8Rng::seed_from_u64(99);
        // Starts at the wrong length: `sample_into` resizes its buffer.
        let mut buffer = PauliString::identity(3);
        for _ in 0..20 {
            model.sample_into(&lattice, &mut rng_into, &mut buffer);
            assert_eq!(buffer, model.sample(&lattice, &mut rng));
        }
    }

    #[test]
    fn invalid_probabilities_are_rejected() {
        assert!(Depolarizing::new(-0.1).is_err());
        assert!(Depolarizing::new(1.1).is_err());
        assert!(Depolarizing::new(f64::NAN).is_err());
        assert!(PureDephasing::new(2.0).is_err());
        assert!(BiasedChannel::new(0.5, 0.5, 0.5).is_err());
        assert!(BiasedChannel::new(0.1, 0.1, 0.1).is_ok());
    }

    #[test]
    fn zero_probability_never_errors() {
        let lattice = Lattice::new(5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let model = PureDephasing::new(0.0).unwrap();
        for _ in 0..100 {
            assert!(model.sample(&lattice, &mut rng).is_identity());
        }
    }

    #[test]
    fn unit_probability_always_errors() {
        let lattice = Lattice::new(5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let model = PureDephasing::new(1.0).unwrap();
        let depol = Depolarizing::new(1.0).unwrap();
        for _ in 0..100 {
            assert!(model
                .sample(&lattice, &mut rng)
                .iter()
                .all(|op| op == Pauli::Z));
            assert_eq!(
                depol.sample(&lattice, &mut rng).weight(),
                lattice.num_data()
            );
        }
    }

    #[test]
    fn dephasing_only_produces_z() {
        let lattice = Lattice::new(5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = PureDephasing::new(0.5).unwrap();
        for _ in 0..100 {
            let error = model.sample(&lattice, &mut rng);
            assert!(error.weight() > 0);
            assert!(error.iter().all(|op| op == Pauli::I || op == Pauli::Z));
        }
    }

    #[test]
    fn biased_channel_matches_components() {
        let lattice = Lattice::new(5).unwrap();
        let model = BiasedChannel::new(0.0, 0.0, 0.25).unwrap();
        assert!((model.physical_error_rate() - 0.25).abs() < 1e-12);
        assert_eq!(model.probabilities(), (0.0, 0.0, 0.25));
        // A share of zero is impossible, not merely unlikely.
        let no_z = BiasedChannel::new(0.2, 0.1, 0.0).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..100 {
            let error = model.sample(&lattice, &mut rng);
            assert!(error.iter().all(|op| op == Pauli::I || op == Pauli::Z));
            assert!(no_z
                .sample(&lattice, &mut rng)
                .iter()
                .all(|op| op != Pauli::Z));
        }
    }

    #[test]
    fn sample_covers_all_data_qubits() {
        let lattice = Lattice::new(5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let model = Depolarizing::new(0.2).unwrap();
        let error = model.sample(&lattice, &mut rng);
        assert_eq!(error.len(), lattice.num_data());
    }

    #[test]
    fn deterministic_with_same_seed() {
        let lattice = Lattice::new(7).unwrap();
        let model = Depolarizing::new(0.1).unwrap();
        let a = model.sample(&lattice, &mut ChaCha8Rng::seed_from_u64(42));
        let b = model.sample(&lattice, &mut ChaCha8Rng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
