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
//! its rounds through the QoS gate into the channels.

use crate::lattice_set::LatticeSet;
use crate::scenario::script::{ScenarioAction, ScenarioError, ScenarioScript};
use nisqplus_qec::error_model::{
    BurstEvent, Depolarizing, DriftKind, DriftingErrorModel, ErrorModel, PureDephasing,
};
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
    /// Time-varying dephasing: the phase-flip probability follows a
    /// [`DriftingErrorModel`] schedule over the lattice's round index.
    Drifting {
        /// The rate schedule (ramp or sinusoid).
        model: DriftingErrorModel,
    },
}

impl NoiseSpec {
    /// The total physical error rate of the channel (at round 0 for a
    /// drifting channel).
    #[must_use]
    pub fn physical_error_rate(&self) -> f64 {
        match *self {
            NoiseSpec::PureDephasing { p } | NoiseSpec::Depolarizing { p } => p,
            NoiseSpec::Drifting { model } => model.base_rate(),
        }
    }

    /// Checks that the channel's parameters are valid without building a
    /// stream around it.
    ///
    /// # Errors
    ///
    /// Returns the [`QecError`] the channel constructor would.
    pub fn validate(&self) -> Result<(), QecError> {
        NoiseModel::build(*self).map(|_| ())
    }

    /// The channel inside `burst`'s window: every rate multiplied by the
    /// episode's factor, clamped to a valid probability.
    #[must_use]
    pub fn amplify(self, burst: &BurstEvent) -> NoiseSpec {
        match self {
            NoiseSpec::PureDephasing { p } => NoiseSpec::PureDephasing {
                p: burst.amplified_rate(p),
            },
            NoiseSpec::Depolarizing { p } => NoiseSpec::Depolarizing {
                p: burst.amplified_rate(p),
            },
            NoiseSpec::Drifting { model } => NoiseSpec::Drifting {
                model: model.amplified(burst.factor),
            },
        }
    }
}

/// The validated channel behind a [`NoiseSpec`].
#[derive(Debug, Clone, Copy)]
enum NoiseModel {
    Dephasing(PureDephasing),
    Depolarizing(Depolarizing),
    Drifting(DriftingErrorModel),
}

impl NoiseModel {
    fn build(noise: NoiseSpec) -> Result<Self, QecError> {
        Ok(match noise {
            NoiseSpec::PureDephasing { p } => NoiseModel::Dephasing(PureDephasing::new(p)?),
            NoiseSpec::Depolarizing { p } => NoiseModel::Depolarizing(Depolarizing::new(p)?),
            NoiseSpec::Drifting { model } => NoiseModel::Drifting(model),
        })
    }

    /// Samples one round's error pattern into `error`, reusing its
    /// allocation.  Every arm gap-samples
    /// ([`ErrorModel::sample_into`]), so a round consumes as many draws as
    /// it has faults: the stream is a function of the seed and of every
    /// channel (and instantaneous drifting rate) that was ever active, and
    /// a change of rate leaves the rounds before it untouched, not the
    /// rounds after.
    fn sample_into<R: rand::Rng + ?Sized>(
        &self,
        lattice: &Lattice,
        rng: &mut R,
        round: u64,
        error: &mut PauliString,
    ) {
        match *self {
            NoiseModel::Dephasing(m) => m.sample_into(lattice, rng, error),
            NoiseModel::Depolarizing(m) => m.sample_into(lattice, rng, error),
            NoiseModel::Drifting(d) => PureDephasing::new(d.rate_at(round))
                .expect("rate_at clamps to [0, 1]")
                .sample_into(lattice, rng, error),
        }
    }
}

/// One homogeneous stretch of a lattice's noise timeline, derived from the
/// stream's actual history — base channel, scripted rate changes and burst
/// windows — so run verdicts can be correlated with the noise regime that
/// produced them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseEpoch {
    /// First lattice round (inclusive) the epoch covers.
    pub start_round: u64,
    /// One past the last covered round.
    pub end_round: u64,
    /// Mean physical error rate over the epoch (sampled for drifting
    /// channels, exact otherwise).
    pub mean_rate: f64,
    /// Human-readable regime label, e.g. `"dephasing"` or `"drift-ramp+burst"`.
    pub label: String,
}

/// Mean rate of `spec` over lattice rounds `[start, end)`.
fn segment_mean_rate(spec: NoiseSpec, start: u64, end: u64) -> f64 {
    match spec {
        NoiseSpec::PureDephasing { p } | NoiseSpec::Depolarizing { p } => p,
        NoiseSpec::Drifting { model } => {
            let len = end - start;
            let samples = len.min(64);
            let sum: f64 = (0..samples)
                .map(|i| model.rate_at(start + i * len / samples))
                .sum();
            sum / samples as f64
        }
    }
}

/// Regime label for an epoch under `base` noise, burst-qualified.
fn epoch_label(base: NoiseSpec, in_burst: bool) -> String {
    let kind = match base {
        NoiseSpec::PureDephasing { .. } => "dephasing",
        NoiseSpec::Depolarizing { .. } => "depolarizing",
        NoiseSpec::Drifting { model } => match model.kind() {
            DriftKind::Ramp { .. } => "drift-ramp",
            DriftKind::Sinusoid { .. } => "drift-sinusoid",
        },
    };
    if in_burst {
        format!("{kind}+burst")
    } else {
        kind.to_string()
    }
}

/// An endless, seeded stream of surface-code syndromes.
#[derive(Debug, Clone)]
pub struct SyndromeSource {
    lattice: Arc<Lattice>,
    model: NoiseModel,
    /// The burst episode, with its pre-validated amplified channel.  Its
    /// window is keyed by the lattice's own round index, never by wall
    /// clock or extra randomness, so a bursty stream replays exactly.
    burst: Option<(BurstEvent, NoiseModel)>,
    rng: ChaCha8Rng,
    rounds_emitted: u64,
    /// Base-channel history: `(round it took effect, channel)`, starting with
    /// the construction channel at round 0.  This is what
    /// [`SyndromeSource::noise_epochs`] derives the noise timeline from.
    rate_changes: Vec<(u64, NoiseSpec)>,
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
            model: NoiseModel::build(noise)?,
            burst: None,
            rng: ChaCha8Rng::seed_from_u64(seed),
            rounds_emitted: 0,
            rate_changes: vec![(0, noise)],
        })
    }

    /// Swaps the stream's base channel from the *next* round on — a scripted
    /// re-calibration event.  Any burst overlay is re-amplified from the new
    /// base.  Rounds already emitted are untouched, and replaying the stream
    /// with the same swaps at the same rounds reproduces it bit for bit; a
    /// stream swapped differently shares only the rounds before the swap.
    ///
    /// # Errors
    ///
    /// Returns the [`QecError`] of the new channel if it is invalid (the
    /// stream is left unchanged).
    pub fn set_noise(&mut self, noise: NoiseSpec) -> Result<(), QecError> {
        let model = NoiseModel::build(noise)?;
        if let Some((burst, amplified)) = &mut self.burst {
            *amplified = NoiseModel::build(noise.amplify(burst))?;
        }
        self.model = model;
        self.rate_changes.push((self.rounds_emitted, noise));
        Ok(())
    }

    /// Derives the stream's noise timeline over rounds `[0, total_rounds)`:
    /// one [`NoiseEpoch`] per homogeneous stretch, cut at every scripted
    /// rate change and burst boundary.
    #[must_use]
    pub fn noise_epochs(&self, total_rounds: u64) -> Vec<NoiseEpoch> {
        if total_rounds == 0 {
            return Vec::new();
        }
        let mut cuts = std::collections::BTreeSet::new();
        cuts.insert(0);
        cuts.insert(total_rounds);
        for &(round, _) in &self.rate_changes {
            if round < total_rounds {
                cuts.insert(round);
            }
        }
        if let Some((burst, _)) = self.burst {
            if burst.covers(0) || burst.start_round < total_rounds {
                cuts.insert(burst.start_round.min(total_rounds));
            }
            if burst.end_round() < total_rounds {
                cuts.insert(burst.end_round());
            }
        }
        let bounds: Vec<u64> = cuts.into_iter().collect();
        bounds
            .windows(2)
            .map(|win| {
                let (start, end) = (win[0], win[1]);
                let base = self
                    .rate_changes
                    .iter()
                    .rev()
                    .find(|&&(round, _)| round <= start)
                    .map(|&(_, noise)| noise)
                    .expect("round-0 base entry");
                let in_burst = self.burst.is_some_and(|(burst, _)| burst.covers(start));
                let effective = match self.burst {
                    Some((burst, _)) if in_burst => base.amplify(&burst),
                    _ => base,
                };
                NoiseEpoch {
                    start_round: start,
                    end_round: end,
                    mean_rate: segment_mean_rate(effective, start, end),
                    label: epoch_label(base, in_burst),
                }
            })
            .collect()
    }

    /// Overlays a time-varying burst episode on the stream: rounds the
    /// episode covers are sampled from the amplified channel, all others
    /// from the base channel.  Apply before emitting any rounds — the
    /// overlay is part of the stream's identity, and replaying a bursty
    /// stream requires the same overlay from round zero.
    ///
    /// # Errors
    ///
    /// Returns [`QecError::InvalidProbability`] if the amplified probability
    /// is invalid (it is clamped to `[0, 1]` first, so this is defensive).
    pub fn with_burst(mut self, base: NoiseSpec, burst: BurstEvent) -> Result<Self, QecError> {
        self.burst = Some((burst, NoiseModel::build(base.amplify(&burst))?));
        Ok(self)
    }

    /// The stream's burst episode, if one is overlaid.
    #[must_use]
    pub fn burst(&self) -> Option<BurstEvent> {
        self.burst.map(|(burst, _)| burst)
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
    /// round generated this way allocates nothing.
    pub fn next_error_and_syndrome_into(
        &mut self,
        error: &mut PauliString,
        syndrome: &mut Syndrome,
    ) {
        // Burst windows are keyed by the round index alone, so live
        // generation and replay pick the same channel for every round.
        let model = match self.burst {
            Some((burst, amplified)) if burst.covers(self.rounds_emitted) => amplified,
            _ => self.model,
        };
        model.sample_into(&self.lattice, &mut self.rng, self.rounds_emitted, error);
        self.rounds_emitted += 1;
        self.lattice.syndrome_into(error, syndrome);
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
}

/// Per-lattice stream state inside an [`InterleavedSource`].
#[derive(Debug, Clone)]
struct LatticeStream {
    source: SyndromeSource,
    cadence_ns: f64,
    rounds: u64,
    emitted: u64,
    /// Virtual instant the stream's cadence is anchored at: `0.0` for
    /// lattices live from the start, the activation instant for hot-added
    /// ones (their round `k` is due at `base_ns + k * cadence_ns`).
    base_ns: f64,
}

/// A scripted reconfiguration that has fired, drained by the pipeline (via
/// [`InterleavedSource::take_elastic_events`]) for journaling and final-frame
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticEvent {
    /// Machine-global round at which the action fired.
    pub at_round: u64,
    /// The lattice the action targeted.
    pub lattice_id: u32,
    /// What happened.
    pub kind: ElasticEventKind,
}

/// The kind of a fired [`ElasticEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticEventKind {
    /// A dormant lattice came online.
    Added,
    /// A lattice retired after emitting `final_round` rounds; it emits no
    /// more.
    Retired {
        /// Rounds the lattice emitted before retiring.
        final_round: u64,
    },
    /// A lattice's noise channel was swapped.
    Retuned,
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
    /// Scripted actions sorted by firing round; `next_action` indexes the
    /// first not yet fired.
    actions: Vec<ScenarioAction>,
    next_action: usize,
    /// Machine-global rounds emitted so far — the clock scripts fire on.
    global_emitted: u64,
    /// Due instant of the most recently emitted round: the virtual "now"
    /// hot-added lattices anchor their cadence at.
    last_due_ns: f64,
    /// Fired actions not yet drained by the pipeline.
    fired: Vec<ElasticEvent>,
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
    /// probability is outside `[0, 1]`.
    pub fn new(set: &LatticeSet, cycle_time: &CycleTimeConverter) -> Result<Self, QecError> {
        let mut streams = Vec::with_capacity(set.len());
        let mut due = std::collections::BinaryHeap::with_capacity(set.len());
        for (lattice_id, spec, lattice) in set.iter() {
            let mut source = SyndromeSource::new(lattice.clone(), spec.noise, spec.seed)?;
            if let Some(burst) = spec.burst {
                source = source.with_burst(spec.noise, burst)?;
            }
            streams.push(LatticeStream {
                source,
                cadence_ns: cycle_time.cycles_to_ns(spec.cadence_cycles),
                rounds: spec.rounds,
                emitted: 0,
                base_ns: 0.0,
            });
            due.push(std::cmp::Reverse(DueEntry {
                due_ns: 0.0,
                emitted: 0,
                lattice_id,
            }));
        }
        Ok(InterleavedSource {
            streams,
            due,
            actions: Vec::new(),
            next_action: 0,
            global_emitted: 0,
            last_due_ns: 0.0,
            fired: Vec::new(),
        })
    }

    /// Applies a scenario script: actions fire as the machine-global round
    /// counter reaches them, and every lattice targeted by an `AddLattice`
    /// starts *dormant* (emitting nothing until its action fires).  Apply
    /// before emitting any rounds — the script is part of the stream's
    /// replayable identity.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if the script fails
    /// [`ScenarioScript::validate`] against this machine.
    ///
    /// # Panics
    ///
    /// Panics if any round has already been emitted.
    pub fn apply_script(&mut self, script: &ScenarioScript) -> Result<(), ScenarioError> {
        assert_eq!(
            self.global_emitted, 0,
            "scenario scripts must be applied before the stream starts"
        );
        script.validate(self.streams.len())?;
        let actions = script.sorted_actions();
        let dormant: std::collections::BTreeSet<usize> = actions
            .iter()
            .filter_map(|action| match *action {
                ScenarioAction::AddLattice { lattice_id, .. } => Some(lattice_id as usize),
                _ => None,
            })
            .collect();
        if !dormant.is_empty() {
            self.due = (0..self.streams.len())
                .filter(|lattice_id| !dormant.contains(lattice_id))
                .map(|lattice_id| {
                    std::cmp::Reverse(DueEntry {
                        due_ns: 0.0,
                        emitted: 0,
                        lattice_id,
                    })
                })
                .collect();
        }
        self.actions = actions;
        self.next_action = 0;
        Ok(())
    }

    /// Drains the scripted actions that have fired since the last drain, in
    /// firing order.
    pub fn take_elastic_events(&mut self) -> Vec<ElasticEvent> {
        std::mem::take(&mut self.fired)
    }

    /// Derives every lattice's noise timeline over the rounds it actually
    /// emitted (retired lattices' timelines end at retirement, dormant ones
    /// are empty).
    #[must_use]
    pub fn noise_epochs(&self) -> Vec<Vec<NoiseEpoch>> {
        self.streams
            .iter()
            .map(|stream| stream.source.noise_epochs(stream.emitted))
            .collect()
    }

    /// Fires every scripted action due at or before the current global
    /// round.  Called before each emission (and on the terminal call, so a
    /// retire scheduled for the final round still fires).
    fn fire_due_actions(&mut self) {
        while self.next_action < self.actions.len()
            && self.actions[self.next_action].at_round() <= self.global_emitted
        {
            let action = self.actions[self.next_action];
            self.next_action += 1;
            let at_round = self.global_emitted;
            match action {
                ScenarioAction::AddLattice { lattice_id, .. } => {
                    let stream = &mut self.streams[lattice_id as usize];
                    stream.base_ns = self.last_due_ns;
                    if stream.emitted < stream.rounds {
                        self.due.push(std::cmp::Reverse(DueEntry {
                            due_ns: self.last_due_ns,
                            emitted: stream.emitted,
                            lattice_id: lattice_id as usize,
                        }));
                    }
                    self.fired.push(ElasticEvent {
                        at_round,
                        lattice_id,
                        kind: ElasticEventKind::Added,
                    });
                }
                ScenarioAction::RetireLattice { lattice_id, .. } => {
                    let stream = &mut self.streams[lattice_id as usize];
                    // Truncate the stream where it stands; the stale heap
                    // entry (if any) is skipped lazily by `next_round`.
                    stream.rounds = stream.emitted;
                    self.fired.push(ElasticEvent {
                        at_round,
                        lattice_id,
                        kind: ElasticEventKind::Retired {
                            final_round: stream.emitted,
                        },
                    });
                }
                ScenarioAction::SetErrorRate {
                    lattice_id, noise, ..
                } => {
                    self.streams[lattice_id as usize]
                        .source
                        .set_noise(noise)
                        .expect("noise validated by apply_script");
                    self.fired.push(ElasticEvent {
                        at_round,
                        lattice_id,
                        kind: ElasticEventKind::Retuned,
                    });
                }
            }
        }
    }

    /// The burst episode overlaid on `lattice_id`'s stream, if any.
    ///
    /// # Panics
    ///
    /// Panics if `lattice_id` is out of range.
    #[must_use]
    pub fn burst_overlay(&self, lattice_id: usize) -> Option<BurstEvent> {
        self.streams[lattice_id].source.burst()
    }

    /// Emits the next due round, or `None` when every live lattice's stream
    /// has ended (scripted actions due at the terminal round still fire).
    pub fn next_round(&mut self) -> Option<SourcedRound> {
        let mut round = SourcedRound::default();
        self.next_round_into(&mut round).then_some(round)
    }

    /// [`InterleavedSource::next_round`] into a caller-provided round whose
    /// syndrome and error buffers are reused (they are resized to the
    /// emitting lattice): returns `false`, leaving `out` untouched, when
    /// every live lattice's stream has ended.  Once `out` has served the
    /// machine's largest lattice, emitting a round allocates nothing.
    pub fn next_round_into(&mut self, out: &mut SourcedRound) -> bool {
        self.fire_due_actions();
        loop {
            let Some(std::cmp::Reverse(entry)) = self.due.pop() else {
                return false;
            };
            let stream = &mut self.streams[entry.lattice_id];
            if entry.emitted >= stream.rounds {
                // The lattice retired after this entry was pushed.
                continue;
            }
            debug_assert_eq!(stream.emitted, entry.emitted, "heap out of sync");
            let round = entry.emitted;
            stream.emitted += 1;
            if stream.emitted < stream.rounds {
                self.due.push(std::cmp::Reverse(DueEntry {
                    due_ns: stream.base_ns + stream.emitted as f64 * stream.cadence_ns,
                    emitted: stream.emitted,
                    lattice_id: entry.lattice_id,
                }));
            }
            self.global_emitted += 1;
            self.last_due_ns = entry.due_ns;
            out.lattice_id = entry.lattice_id as u32;
            out.round = round;
            out.due_ns = entry.due_ns;
            stream
                .source
                .next_error_and_syndrome_into(&mut out.error, &mut out.syndrome);
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice_set::LatticeSpec;

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
    /// round, whichever channel is active — dirty, wrong-sized buffers
    /// included — and the two forms can alternate on one stream.
    #[test]
    fn into_form_yields_the_same_error_and_syndrome_sequence() {
        let drift = DriftingErrorModel::ramp(0.01, 0.002).unwrap();
        let overlay = BurstEvent::new(5, 6, 20.0).unwrap();
        let calm = [
            NoiseSpec::PureDephasing { p: 0.05 },
            NoiseSpec::Depolarizing { p: 0.1 },
            NoiseSpec::Drifting { model: drift },
        ];
        let streams = calm
            .iter()
            .map(|&noise| SyndromeSource::new(lattice(), noise, 31).unwrap())
            .chain(calm.iter().map(|&noise| {
                SyndromeSource::new(lattice(), noise, 32)
                    .unwrap()
                    .with_burst(noise, overlay)
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

    #[test]
    fn burst_only_changes_rounds_inside_the_window() {
        let noise = NoiseSpec::PureDephasing { p: 0.01 };
        let overlay = BurstEvent::new(10, 5, 40.0).unwrap();
        let mut calm = SyndromeSource::new(lattice(), noise, 77).unwrap();
        let mut bursty = SyndromeSource::new(lattice(), noise, 77)
            .unwrap()
            .with_burst(noise, overlay)
            .unwrap();
        assert_eq!(bursty.burst(), Some(overlay));
        // Before the window, the streams are identical: the overlay does not
        // perturb calm rounds or consume extra randomness.
        for round in 0..10u64 {
            assert!(!overlay.covers(round));
            assert_eq!(calm.next_syndrome(), bursty.next_syndrome());
        }
        // Inside the window the amplified channel fires much harder; with
        // p 0.01 -> 0.4 over five d=5 rounds, divergence is overwhelming.
        let diverged = (10..15u64).any(|round| {
            assert!(overlay.covers(round));
            calm.next_syndrome() != bursty.next_syndrome()
        });
        assert!(diverged, "burst window left the stream untouched");
        // A round draws once per fault, so the window leaves the two streams
        // at different places of the same sequence: they do not re-converge.
        assert!((15..65).any(|_| calm.next_syndrome() != bursty.next_syndrome()));
    }

    #[test]
    fn bursty_streams_replay_exactly() {
        let noise = NoiseSpec::Depolarizing { p: 0.02 };
        let overlay = BurstEvent::new(3, 4, 25.0).unwrap();
        let mut live = SyndromeSource::new(lattice(), noise, 5)
            .unwrap()
            .with_burst(noise, overlay)
            .unwrap();
        let mut replay = SyndromeSource::new(lattice(), noise, 5)
            .unwrap()
            .with_burst(noise, overlay)
            .unwrap();
        for _ in 0..12 {
            let syndrome = live.next_syndrome();
            let (error, replayed) = replay.next_error_and_syndrome();
            assert_eq!(replayed, syndrome);
            assert_eq!(replay.lattice().syndrome_of(&error), syndrome);
        }
    }

    #[test]
    fn burst_amplification_clamps_to_valid_probability() {
        let overlay = BurstEvent::new(0, 1, 1e6).unwrap();
        let amplified = NoiseSpec::PureDephasing { p: 0.5 }.amplify(&overlay);
        assert_eq!(amplified, NoiseSpec::PureDephasing { p: 1.0 });
        // And the overlaid source builds fine even with an extreme factor.
        let noise = NoiseSpec::PureDephasing { p: 0.5 };
        assert!(SyndromeSource::new(lattice(), noise, 0)
            .unwrap()
            .with_burst(noise, overlay)
            .is_ok());
    }

    #[test]
    fn interleaved_burst_applies_to_one_lattice_only() {
        let overlay = BurstEvent::new(2, 2, 30.0).unwrap();
        let calm_set = LatticeSet::new(vec![spec(3, 11, 6, 0), spec(3, 22, 6, 0)]).unwrap();
        let bursty_set = LatticeSet::new(vec![
            spec(3, 11, 6, 0),
            spec(3, 22, 6, 0).with_burst(overlay),
        ])
        .unwrap();
        let cycle_time = CycleTimeConverter::paper_reference();
        let mut bursty = InterleavedSource::new(&bursty_set, &cycle_time).unwrap();
        let mut calm = InterleavedSource::new(&calm_set, &cycle_time).unwrap();
        while let Some(round) = bursty.next_round() {
            let reference = calm.next_round().unwrap();
            assert_eq!(round.lattice_id, reference.lattice_id);
            assert_eq!(round.round, reference.round);
            if round.lattice_id == 0 || !overlay.covers(round.round) {
                assert_eq!(round.syndrome, reference.syndrome);
            }
        }
        assert!(calm.next_round().is_none());
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
