//! The seeded endless syndrome stream.
//!
//! A [`SyndromeSource`] reproduces, round after round, exactly what the
//! quantum machine would hand the decoder: sample an error pattern from a
//! stochastic channel, extract the stabilizer syndrome.  It is deterministic
//! in its seed, which is what makes the stream-versus-batch equivalence
//! tests possible — the same `(lattice, noise, seed)` triple always yields
//! the same infinite syndrome sequence, whether consumed by the streaming
//! engine or by a plain offline loop.
//!
//! In the pipeline (`crate::stage`), an [`InterleavedSource`] is the heart
//! of the *source* stage, which paces it to each lattice's cadence and feeds
//! its rounds into the run's one channel.

use crate::lattice_set::LatticeSet;
use nisqplus_qec::error_model::{Depolarizing, ErrorModel, PureDephasing};
use nisqplus_qec::lattice::Lattice;
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use nisqplus_qec::QecError;
use nisqplus_sim::timing::CycleTimeConverter;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which stochastic error channel drives the stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoiseSpec {
    /// Pure dephasing: `Z` with probability `p` (the paper's headline model).
    PureDephasing {
        /// Phase-flip probability per data qubit per round.
        p: f64,
    },
    /// Symmetric depolarizing: `X`, `Y`, `Z` each with probability `p/3`.
    Depolarizing {
        /// Total error probability per data qubit per round.
        p: f64,
    },
}

impl NoiseSpec {
    /// The total physical error rate of the channel.
    #[must_use]
    pub fn physical_error_rate(&self) -> f64 {
        match *self {
            NoiseSpec::PureDephasing { p } | NoiseSpec::Depolarizing { p } => p,
        }
    }

    /// The channel's kind, as a [`NoiseEpoch`] labels it.
    fn label(&self) -> &'static str {
        match self {
            NoiseSpec::PureDephasing { .. } => "dephasing",
            NoiseSpec::Depolarizing { .. } => "depolarizing",
        }
    }
}

/// The validated channel behind a [`NoiseSpec`], its gap table built.
#[derive(Debug, Clone)]
enum NoiseModel {
    Dephasing(PureDephasing),
    Depolarizing(Depolarizing),
}

impl NoiseModel {
    fn build(noise: NoiseSpec) -> Result<Self, QecError> {
        Ok(match noise {
            NoiseSpec::PureDephasing { p } => NoiseModel::Dephasing(PureDephasing::new(p)?),
            NoiseSpec::Depolarizing { p } => NoiseModel::Depolarizing(Depolarizing::new(p)?),
        })
    }

    /// Samples one round's error pattern into `error`, reusing its
    /// allocation.  Both arms gap-sample ([`ErrorModel::sample_into`]), so
    /// a round consumes as many draws as it has faults: the stream is a
    /// function of the seed and of every channel that was ever in force,
    /// and a re-tune leaves the rounds before it untouched, not the rounds
    /// after.
    fn sample_into<R: rand::Rng + ?Sized>(
        &self,
        lattice: &Lattice,
        rng: &mut R,
        error: &mut PauliString,
    ) {
        match self {
            NoiseModel::Dephasing(m) => m.sample_into(lattice, rng, error),
            NoiseModel::Depolarizing(m) => m.sample_into(lattice, rng, error),
        }
    }
}

/// One segment of a lattice's noise schedule, clipped to the rounds the
/// lattice emitted — so run verdicts can be correlated with the noise regime
/// that produced them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseEpoch {
    /// First lattice round (inclusive) the epoch covers.
    pub start_round: u64,
    /// One past the last covered round.
    pub end_round: u64,
    /// The physical error rate of the epoch's channel (its `p`).
    pub mean_rate: f64,
    /// The epoch's channel kind: `"dephasing"` or `"depolarizing"`.
    pub label: String,
}

/// One segment of a lattice's noise schedule: the rounds from `start_round`
/// up to the next segment's start are sampled from `noise`.
#[derive(Debug, Clone)]
struct Segment {
    start_round: u64,
    noise: NoiseSpec,
    /// The channel the segment's rounds are sampled from, built once.
    model: NoiseModel,
}

impl Segment {
    fn new(start_round: u64, noise: NoiseSpec) -> Result<Self, QecError> {
        Ok(Segment {
            start_round,
            noise,
            model: NoiseModel::build(noise)?,
        })
    }
}

/// An endless, seeded stream of surface-code syndromes.
#[derive(Debug, Clone)]
pub struct SyndromeSource {
    lattice: Arc<Lattice>,
    /// The noise schedule — the base channel and every re-tune as one list
    /// of segments, sorted by strictly increasing start, the first at round
    /// 0.  Every cut is keyed by the lattice's own round index, never by
    /// wall clock or extra randomness, so a stream replays exactly.
    schedule: Vec<Segment>,
    /// The segment the last round was sampled from (0 before the first).
    cursor: usize,
    rng: ChaCha8Rng,
    rounds_emitted: u64,
}

impl SyndromeSource {
    /// Creates a stream over `lattice` driven by `noise`, seeded with `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidProbability`] if the noise probability is
    /// outside `[0, 1]`.
    pub fn new(lattice: Arc<Lattice>, noise: NoiseSpec, seed: u64) -> Result<Self, QecError> {
        Ok(SyndromeSource {
            lattice,
            schedule: vec![Segment::new(0, noise)?],
            cursor: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
            rounds_emitted: 0,
        })
    }

    /// Swaps the stream's channel from lattice round `round` on — a
    /// re-calibration, or one edge of a burst of noise — up to the next
    /// re-tune's round.  Re-tunes take effect in round order whatever order
    /// they are added in; of two at the same round, the one added last
    /// wins.  Replaying the stream with the same re-tunes reproduces it bit
    /// for bit; a stream re-tuned differently shares only the rounds before
    /// the first difference.
    ///
    /// # Errors
    ///
    /// Returns the [`QecError`] of the new channel if it is invalid.
    ///
    /// # Panics
    ///
    /// Panics if a round has been emitted: a re-tune is part of the stream's
    /// identity from round zero.
    pub fn with_retune(mut self, round: u64, noise: NoiseSpec) -> Result<Self, QecError> {
        assert_eq!(self.rounds_emitted, 0, "a re-tune must precede the stream");
        let segment = Segment::new(round, noise)?;
        let at = self.schedule.partition_point(|s| s.start_round < round);
        if self
            .schedule
            .get(at)
            .is_some_and(|s| s.start_round == round)
        {
            self.schedule[at] = segment;
        } else {
            self.schedule.insert(at, segment);
        }
        Ok(self)
    }

    /// The stream's noise timeline: one [`NoiseEpoch`] per segment of its
    /// schedule, clipped to the rounds it has emitted.
    #[must_use]
    pub fn noise_epochs(&self) -> Vec<NoiseEpoch> {
        let total = self.rounds_emitted;
        let ends = self.schedule.iter().skip(1).map(|next| next.start_round);
        (self.schedule.iter().zip(ends.chain([total])))
            .take_while(|(segment, _)| segment.start_round < total)
            .map(|(segment, end)| NoiseEpoch {
                start_round: segment.start_round,
                end_round: end.min(total),
                mean_rate: segment.noise.physical_error_rate(),
                label: segment.noise.label().to_string(),
            })
            .collect()
    }

    /// The lattice whose syndromes are being streamed.
    #[must_use]
    pub fn lattice(&self) -> &Arc<Lattice> {
        &self.lattice
    }

    /// Generates the next round's syndrome.  Never exhausts.
    pub fn next_syndrome(&mut self) -> Syndrome {
        self.next_error_and_syndrome().1
    }

    /// Generates the next round, returning the sampled physical error
    /// together with its syndrome.  Consumes exactly the same randomness as
    /// [`SyndromeSource::next_syndrome`], so a second source with the same
    /// `(lattice, noise, seed)` triple can *replay* a run's error stream.
    /// The error is what rides the wire beside the syndrome when the run
    /// analyzes residuals.
    pub fn next_error_and_syndrome(&mut self) -> (PauliString, Syndrome) {
        let (mut error, mut syndrome) = (PauliString::default(), Syndrome::default());
        self.next_error_and_syndrome_into(&mut error, &mut syndrome);
        (error, syndrome)
    }

    /// [`SyndromeSource::next_error_and_syndrome`] into caller-provided
    /// buffers (resized to the lattice, their allocations reused): the same
    /// draws in the same order, so the two forms can be mixed freely on one
    /// stream.  This is the form the pipeline's source stage drives — a
    /// round generated this way allocates nothing.  Returns whether the
    /// round is the first of a new segment of the noise schedule.
    pub fn next_error_and_syndrome_into(
        &mut self,
        error: &mut PauliString,
        syndrome: &mut Syndrome,
    ) -> bool {
        let round = self.rounds_emitted;
        let next = self.schedule.get(self.cursor + 1);
        let crossed = next.is_some_and(|next| next.start_round == round);
        self.cursor += usize::from(crossed);
        self.schedule[self.cursor]
            .model
            .sample_into(&self.lattice, &mut self.rng, error);
        self.rounds_emitted += 1;
        self.lattice.syndrome_into(error, syndrome);
        crossed
    }
}

/// One round emitted by an [`InterleavedSource`].  The default value is an
/// empty round, ready to be filled by [`InterleavedSource::next_round_into`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SourcedRound {
    /// Id of the lattice the round belongs to.
    pub lattice_id: u32,
    /// Zero-based round index *within that lattice's stream*.
    pub round: u64,
    /// The virtual instant (nanoseconds since the run epoch) at which the
    /// round is due under the lattice's cadence; `0.0` for unpaced lattices.
    pub due_ns: f64,
    /// The round's syndrome.
    pub syndrome: Syndrome,
    /// The seeded physical error behind the syndrome.  Carrying it costs the
    /// producer nothing extra — [`SyndromeSource::next_error_and_syndrome`]
    /// consumes exactly the randomness [`SyndromeSource::next_syndrome`]
    /// would — and is what lets the pipeline classify residuals *in stream*
    /// (shed rounds at the producer, decoded rounds in the workers) instead
    /// of replaying every lattice at the end of the run.
    pub error: PauliString,
    /// Whether the round is the first of a new segment of its lattice's
    /// noise schedule (a re-tune's round): the source stage
    /// journals it as one `noise_change`.
    pub noise_change: bool,
}

/// Per-lattice stream state inside an [`InterleavedSource`].
#[derive(Debug, Clone)]
struct LatticeStream {
    source: SyndromeSource,
    cadence_ns: f64,
    rounds: u64,
    emitted: u64,
}

/// N seeded per-lattice syndrome streams, interleaved on independent
/// cadences — what a full NISQ+ machine hands its decoder fabric.
///
/// Each registered lattice gets its own [`SyndromeSource`] (own seed, own
/// noise channel), so *per-lattice* content is independent of the
/// interleaving: lattice `i`'s round sequence is byte-identical to what a
/// standalone `SyndromeSource` with the same `(lattice, noise, seed)` would
/// produce, which is what the sharded stream-versus-batch equivalence tests
/// rely on.
///
/// Ordering: the next round emitted is the one with the earliest due time
/// `emitted * cadence_ns` (ties broken by fewest rounds emitted, then lowest
/// lattice id).  Unpaced lattices (`cadence_cycles == 0`) are always due, so
/// an all-unpaced set interleaves round-robin; mixing paced and unpaced
/// lattices drains the unpaced ones first.  Selection is a binary heap over
/// the per-lattice next-due times, so emitting a round costs `O(log N)` on
/// the producer hot path rather than a full scan of the machine.
#[derive(Debug, Clone)]
pub struct InterleavedSource {
    streams: Vec<LatticeStream>,
    /// Min-heap of each non-exhausted lattice's next due round.
    due: std::collections::BinaryHeap<std::cmp::Reverse<DueEntry>>,
}

/// One lattice's next due round, ordered by `(due_ns, emitted, lattice_id)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DueEntry {
    due_ns: f64,
    emitted: u64,
    lattice_id: usize,
}

impl Eq for DueEntry {}

impl PartialOrd for DueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.due_ns
            .partial_cmp(&other.due_ns)
            .expect("cadences are finite")
            .then(self.emitted.cmp(&other.emitted))
            .then(self.lattice_id.cmp(&other.lattice_id))
    }
}

impl InterleavedSource {
    /// Builds one stream per lattice of `set`, mapping each lattice's
    /// `cadence_cycles` to nanoseconds through `cycle_time`.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidProbability`] if any lattice's noise
    /// probability, or that of any of its re-tunes, is outside `[0, 1]`.
    pub fn new(set: &LatticeSet, cycle_time: &CycleTimeConverter) -> Result<Self, QecError> {
        let mut streams = Vec::with_capacity(set.len());
        let mut due = std::collections::BinaryHeap::with_capacity(set.len());
        for (lattice_id, spec, lattice) in set.iter() {
            let mut source = SyndromeSource::new(lattice.clone(), spec.noise, spec.seed)?;
            for &(round, noise) in &spec.retunes {
                source = source.with_retune(round, noise)?;
            }
            streams.push(LatticeStream {
                source,
                cadence_ns: cycle_time.cycles_to_ns(spec.cadence_cycles),
                rounds: spec.rounds,
                emitted: 0,
            });
            due.push(std::cmp::Reverse(DueEntry {
                due_ns: 0.0,
                emitted: 0,
                lattice_id,
            }));
        }
        Ok(InterleavedSource { streams, due })
    }

    /// Every lattice's noise timeline over the rounds it has emitted.
    #[must_use]
    pub fn noise_epochs(&self) -> Vec<Vec<NoiseEpoch>> {
        self.streams
            .iter()
            .map(|stream| stream.source.noise_epochs())
            .collect()
    }

    /// Emits the next due round, or `None` when every lattice's stream has
    /// ended.
    pub fn next_round(&mut self) -> Option<SourcedRound> {
        let mut round = SourcedRound::default();
        self.next_round_into(&mut round).then_some(round)
    }

    /// [`InterleavedSource::next_round`] into a caller-provided round whose
    /// syndrome and error buffers are reused (they are resized to the
    /// emitting lattice): returns `false`, leaving `out` untouched, when
    /// every lattice's stream has ended.  Once `out` has served the
    /// machine's largest lattice, emitting a round allocates nothing.
    pub fn next_round_into(&mut self, out: &mut SourcedRound) -> bool {
        let Some(std::cmp::Reverse(entry)) = self.due.pop() else {
            return false;
        };
        let stream = &mut self.streams[entry.lattice_id];
        debug_assert_eq!(stream.emitted, entry.emitted, "heap out of sync");
        let round = entry.emitted;
        stream.emitted += 1;
        if stream.emitted < stream.rounds {
            self.due.push(std::cmp::Reverse(DueEntry {
                due_ns: stream.emitted as f64 * stream.cadence_ns,
                emitted: stream.emitted,
                lattice_id: entry.lattice_id,
            }));
        }
        out.lattice_id = entry.lattice_id as u32;
        out.round = round;
        out.due_ns = entry.due_ns;
        out.noise_change = stream
            .source
            .next_error_and_syndrome_into(&mut out.error, &mut out.syndrome);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice_set::LatticeSpec;
    use proptest::prop_assert_eq;
    use rand::Rng;

    fn lattice() -> Arc<Lattice> {
        Arc::new(Lattice::new(5).unwrap())
    }

    #[test]
    fn same_seed_same_stream() {
        let noise = NoiseSpec::PureDephasing { p: 0.05 };
        let mut a = SyndromeSource::new(lattice(), noise, 42).unwrap();
        let mut b = SyndromeSource::new(lattice(), noise, 42).unwrap();
        for _ in 0..50 {
            assert_eq!(a.next_syndrome(), b.next_syndrome());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let noise = NoiseSpec::PureDephasing { p: 0.1 };
        let mut a = SyndromeSource::new(lattice(), noise, 1).unwrap();
        let mut b = SyndromeSource::new(lattice(), noise, 2).unwrap();
        let distinct = (0..50).any(|_| a.next_syndrome() != b.next_syndrome());
        assert!(
            distinct,
            "independent seeds should not produce equal streams"
        );
    }

    #[test]
    fn syndromes_have_lattice_width() {
        let lat = lattice();
        let mut source =
            SyndromeSource::new(lat.clone(), NoiseSpec::Depolarizing { p: 0.02 }, 7).unwrap();
        let s = source.next_syndrome();
        assert_eq!(s.len(), lat.num_ancillas());
    }

    #[test]
    fn error_and_syndrome_stream_replays_the_syndrome_stream() {
        let noise = NoiseSpec::Depolarizing { p: 0.1 };
        let mut plain = SyndromeSource::new(lattice(), noise, 9).unwrap();
        let mut replay = SyndromeSource::new(lattice(), noise, 9).unwrap();
        for _ in 0..30 {
            let syndrome = plain.next_syndrome();
            let (error, replayed) = replay.next_error_and_syndrome();
            assert_eq!(replayed, syndrome);
            assert_eq!(replay.lattice().syndrome_of(&error), syndrome);
        }
    }

    /// The `_into` form draws what the allocating form draws, round for
    /// round, whichever channel is in force — dirty, wrong-sized buffers
    /// included — and the two forms can alternate on one stream.
    #[test]
    fn into_form_yields_the_same_error_and_syndrome_sequence() {
        let calm = [
            NoiseSpec::PureDephasing { p: 0.05 },
            NoiseSpec::Depolarizing { p: 0.1 },
        ];
        let streams = calm
            .iter()
            .map(|&noise| SyndromeSource::new(lattice(), noise, 31).unwrap())
            .chain(calm.iter().map(|&noise| {
                let hot = NoiseSpec::Depolarizing { p: 0.4 };
                (SyndromeSource::new(lattice(), noise, 32).unwrap())
                    .with_retune(5, hot)
                    .and_then(|source| source.with_retune(11, noise))
                    .unwrap()
            }));
        for mut allocating in streams {
            let mut reusing = allocating.clone();
            let mut error = PauliString::identity(3);
            let mut syndrome = Syndrome::from_hot(2, &[1]);
            for round in 0..40 {
                reusing.next_error_and_syndrome_into(&mut error, &mut syndrome);
                let expected = allocating.next_error_and_syndrome();
                assert_eq!((error.clone(), syndrome.clone()), expected, "round {round}");
                if round % 7 == 0 {
                    // Same stream position, so the forms may be swapped.
                    std::mem::swap(&mut allocating, &mut reusing);
                }
            }
        }
    }

    #[test]
    fn next_round_into_matches_next_round_on_a_mixed_machine() {
        let set = LatticeSet::new(vec![
            spec(3, 1, 9, 100),
            spec(7, 2, 5, 0),
            spec(5, 3, 7, 300),
        ])
        .unwrap();
        let cycle_time = CycleTimeConverter::paper_reference();
        let mut allocating = InterleavedSource::new(&set, &cycle_time).unwrap();
        let mut reusing = allocating.clone();
        let mut round = SourcedRound::default();
        while let Some(expected) = allocating.next_round() {
            assert!(reusing.next_round_into(&mut round));
            assert_eq!(round, expected);
        }
        let last = round.clone();
        assert!(!reusing.next_round_into(&mut round));
        assert_eq!(round, last, "an exhausted source leaves the buffer alone");
    }

    #[test]
    fn invalid_probability_is_rejected() {
        assert!(SyndromeSource::new(lattice(), NoiseSpec::PureDephasing { p: 1.5 }, 0).is_err());
        assert!(SyndromeSource::new(lattice(), NoiseSpec::Depolarizing { p: -0.1 }, 0).is_err());
    }

    fn spec(distance: usize, seed: u64, rounds: u64, cadence_cycles: usize) -> LatticeSpec {
        let mut spec = LatticeSpec::new(distance);
        spec.seed = seed;
        spec.rounds = rounds;
        spec.cadence_cycles = cadence_cycles;
        spec
    }

    #[test]
    fn unpaced_streams_interleave_round_robin() {
        let set = LatticeSet::new(vec![spec(3, 1, 3, 0), spec(5, 2, 3, 0)]).unwrap();
        let mut source =
            InterleavedSource::new(&set, &CycleTimeConverter::paper_reference()).unwrap();
        let order: Vec<(u32, u64)> = std::iter::from_fn(|| source.next_round())
            .map(|r| (r.lattice_id, r.round))
            .collect();
        assert_eq!(order, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
        assert!(source.next_round().is_none());
    }

    #[test]
    fn faster_cadence_emits_proportionally_more_rounds() {
        // Lattice 0 is due every 100 cycles, lattice 1 every 300: over the
        // first rounds, lattice 0 emits three rounds per lattice-1 round.
        let set = LatticeSet::new(vec![spec(3, 1, 9, 100), spec(3, 2, 3, 300)]).unwrap();
        let mut source =
            InterleavedSource::new(&set, &CycleTimeConverter::paper_reference()).unwrap();
        let first_eight: Vec<u32> = (0..8)
            .map(|_| source.next_round().unwrap().lattice_id)
            .collect();
        assert_eq!(
            first_eight.iter().filter(|&&id| id == 0).count(),
            6,
            "order was {first_eight:?}"
        );
        // Due times are monotone in each lattice's own round index.
        let mut last_due = [f64::NEG_INFINITY; 2];
        while let Some(round) = source.next_round() {
            assert!(round.due_ns >= last_due[round.lattice_id as usize]);
            last_due[round.lattice_id as usize] = round.due_ns;
        }
    }

    /// Interleaving is content-transparent: each lattice's rounds match a
    /// standalone seeded source over the same `(lattice, noise, seed)`.
    #[test]
    fn per_lattice_content_is_independent_of_interleaving() {
        let set = LatticeSet::new(vec![spec(3, 11, 5, 0), spec(5, 22, 7, 0)]).unwrap();
        let mut source =
            InterleavedSource::new(&set, &CycleTimeConverter::paper_reference()).unwrap();
        let mut per_lattice: Vec<Vec<Syndrome>> = vec![Vec::new(), Vec::new()];
        while let Some(round) = source.next_round() {
            assert_eq!(
                per_lattice[round.lattice_id as usize].len() as u64,
                round.round
            );
            // The carried error is the one behind the carried syndrome.
            assert_eq!(
                set.lattice(round.lattice_id as usize)
                    .syndrome_of(&round.error),
                round.syndrome
            );
            per_lattice[round.lattice_id as usize].push(round.syndrome);
        }
        for (id, expected_rounds) in [(0usize, 5u64), (1, 7)] {
            let spec = set.spec(id);
            let mut reference =
                SyndromeSource::new(set.lattice(id).clone(), spec.noise, spec.seed).unwrap();
            assert_eq!(per_lattice[id].len() as u64, expected_rounds);
            for streamed in &per_lattice[id] {
                assert_eq!(streamed, &reference.next_syndrome());
            }
        }
    }

    /// A burst is two re-tunes, to the hot channel at its first round and
    /// back at its end, and it touches only its own lattice's stream.
    #[test]
    fn interleaved_burst_applies_to_one_lattice_only() {
        let (base, hot) = (
            NoiseSpec::PureDephasing { p: 0.03 },
            NoiseSpec::PureDephasing { p: 0.9 },
        );
        let calm_set = LatticeSet::new(vec![spec(3, 11, 6, 0), spec(3, 22, 6, 0)]).unwrap();
        let bursty = (spec(3, 22, 6, 0).with_retune(2, hot)).with_retune(4, base);
        let bursty_set = LatticeSet::new(vec![spec(3, 11, 6, 0), bursty]).unwrap();
        let cycle_time = CycleTimeConverter::paper_reference();
        let mut bursty = InterleavedSource::new(&bursty_set, &cycle_time).unwrap();
        let mut calm = InterleavedSource::new(&calm_set, &cycle_time).unwrap();
        while let Some(round) = bursty.next_round() {
            let reference = calm.next_round().unwrap();
            assert_eq!(round.lattice_id, reference.lattice_id);
            assert_eq!(round.round, reference.round);
            assert_eq!(
                round.noise_change,
                round.lattice_id == 1 && [2, 4].contains(&round.round)
            );
            if round.lattice_id == 0 || round.round < 2 {
                assert_eq!(round.syndrome, reference.syndrome);
            }
        }
        assert!(calm.next_round().is_none());
        let epochs = bursty.noise_epochs();
        let rates: Vec<(u64, u64, f64)> = (epochs[1].iter())
            .map(|e| (e.start_round, e.end_round, e.mean_rate))
            .collect();
        assert_eq!(rates, [(0, 2, 0.03), (2, 4, 0.9), (4, 6, 0.03)]);
    }

    /// The brute-force oracle: one round sampled with the shared generator
    /// `rng` from `noise`.
    fn oracle_round(
        lattice: &Lattice,
        noise: NoiseSpec,
        rng: &mut ChaCha8Rng,
    ) -> (PauliString, Syndrome) {
        let mut error = PauliString::default();
        NoiseModel::build(noise)
            .unwrap()
            .sample_into(lattice, rng, &mut error);
        let syndrome = lattice.syndrome_of(&error);
        (error, syndrome)
    }

    /// A random channel of either kind.
    fn random_noise(rng: &mut ChaCha8Rng) -> NoiseSpec {
        let p = 0.2 * rng.gen::<f64>();
        if rng.gen() {
            NoiseSpec::PureDephasing { p }
        } else {
            NoiseSpec::Depolarizing { p }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The schedule against a brute-force oracle: a random base and
        /// 0–5 re-tunes at random lattice rounds (past the end included),
        /// added in shuffled order before the first round, give, round for
        /// round, the stream of one generator that samples round `r` from
        /// the channel in force at `r` — the latest re-tune at or before
        /// `r`, the last added on a tie.  The epochs tile the emitted
        /// rounds, cut exactly where the stream reported crossing a
        /// boundary, and each epoch names the channel of every round in it.
        #[test]
        fn the_schedule_samples_the_channel_in_force_at_every_round(
            case in proptest::prelude::any::<u64>()
        ) {
            const TOTAL: u64 = 48;
            let mut pick = ChaCha8Rng::seed_from_u64(case);
            let base = random_noise(&mut pick);
            let mut retunes: Vec<(u64, NoiseSpec)> = Vec::new();
            for _ in 0..pick.gen_range(0..6) {
                // One draw in three repeats the last round, so ties come up.
                let round = match retunes.last() {
                    Some(&(last, _)) if pick.gen_range(0..3) == 0 => last,
                    _ => pick.gen_range(0..TOTAL as usize + 16) as u64,
                };
                retunes.push((round, random_noise(&mut pick)));
            }
            for i in (1..retunes.len()).rev() {
                retunes.swap(i, pick.gen_range(0..i + 1));
            }
            // A stable sort keeps the order added among a round's ties.
            let mut in_round_order = retunes.clone();
            in_round_order.sort_by_key(|&(round, _)| round);
            let in_force = |round: u64| {
                let retuned = in_round_order.iter().rfind(|&&(at, _)| at <= round);
                retuned.map_or(base, |&(_, noise)| noise)
            };

            let lattice = Arc::new(Lattice::new(3).unwrap());
            let mut source = SyndromeSource::new(lattice.clone(), base, case).unwrap();
            for &(round, noise) in &retunes {
                source = source.with_retune(round, noise).unwrap();
            }
            let mut oracle = ChaCha8Rng::seed_from_u64(case);
            let (mut error, mut syndrome) = (PauliString::default(), Syndrome::default());
            let mut crossed = Vec::new();
            for round in 0..TOTAL {
                if source.next_error_and_syndrome_into(&mut error, &mut syndrome) {
                    crossed.push(round);
                }
                let expected = oracle_round(&lattice, in_force(round), &mut oracle);
                prop_assert_eq!((error.clone(), syndrome.clone()), expected, "round {}", round);
            }

            let epochs = source.noise_epochs();
            let starts: Vec<u64> = epochs.iter().map(|e| e.start_round).collect();
            let ends: Vec<u64> = epochs.iter().map(|e| e.end_round).collect();
            prop_assert_eq!(starts, [&[0], &crossed[..]].concat());
            prop_assert_eq!(ends, [&crossed[..], &[TOTAL]].concat());
            for epoch in &epochs {
                for round in epoch.start_round..epoch.end_round {
                    let noise = in_force(round);
                    prop_assert_eq!(epoch.label.as_str(), noise.label());
                    prop_assert_eq!(epoch.mean_rate, noise.physical_error_rate());
                }
            }
        }
    }

    #[test]
    fn noise_spec_reports_rate() {
        assert_eq!(
            NoiseSpec::PureDephasing { p: 0.03 }.physical_error_rate(),
            0.03
        );
        assert_eq!(
            NoiseSpec::Depolarizing { p: 0.01 }.physical_error_rate(),
            0.01
        );
    }
}
