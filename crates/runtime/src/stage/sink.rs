//! Sinks: where the pipeline's results and telemetry come to rest.
//!
//! Two sinks close the stage graph:
//!
//! * [`FrameSink`] — one per worker thread.  Every [`DecodedRound`] is
//!   committed into the worker's *private* per-lattice [`PauliFrame`] shard
//!   (no cross-worker synchronization on the hot path; the engine merges
//!   shards after the run), optionally kept as a
//!   [`RoundCorrection`], and annotated with per-round latency samples
//!   recorded into the worker's bounded-memory [`LocalHistogram`]s — the
//!   sink allocates nothing per round, no matter how long the stream runs.
//! * `DepthSink` — one on the source thread.  Samples every
//!   `max(⌈rounds / max_depth_samples⌉, 64)` rounds, rounded up to a power
//!   of two, into [`DepthSample`]s, each carrying the aggregate queue depth
//!   and backlog *and* the per-lattice backlog breakdown, so a single
//!   timeline shows which lattice was falling behind when.  Every run's
//!   length is known before round 0, so the stride alone keeps at most
//!   `max_depth_samples` samples plus the final round (more than half the
//!   cap once the stride is above 64); a short run pays for one sample per
//!   64 rounds.

use crate::engine::RoundCorrection;
use crate::lattice_set::LatticeSet;
use crate::obs::{HistogramSnapshot, LocalHistogram};
use crate::stage::decode::DecodedRound;
use crate::stage::StageReport;
use crate::telemetry::{DepthSample, RuntimeCounters};
use nisqplus_qec::frame::PauliFrame;
use nisqplus_qec::logical::ResidualTally;

/// One lattice's slice of a worker's output.
#[derive(Debug)]
pub(crate) struct WorkerLatticeOutput {
    /// The worker's private correction-frame shard for this lattice.
    pub(crate) frame: PauliFrame,
    /// Decode service-time distribution, nanoseconds (chained timestamps).
    pub(crate) decode_hist: HistogramSnapshot,
    /// Emit-to-commit latency distribution, nanoseconds.
    pub(crate) total_hist: HistogramSnapshot,
    /// The worker's in-stream residual tally for this lattice (empty unless
    /// the run classifies residuals in stream).  Tallies are plain integer
    /// sums, so the engine's cross-worker merge is order-independent.
    pub(crate) residuals: ResidualTally,
}

/// What one worker thread hands back when the stream ends.
#[derive(Debug)]
pub(crate) struct WorkerOutput {
    /// The name of the decoder serving each lattice, in lattice-id order
    /// (per-lattice overrides may differ from the machine-wide factory).
    pub(crate) lattice_decoders: Vec<String>,
    /// Per-lattice frame shards and latency histograms, in lattice-id order.
    pub(crate) per_lattice: Vec<WorkerLatticeOutput>,
    /// The per-round corrections this worker committed (empty unless
    /// recording was requested).
    pub(crate) corrections: Vec<RoundCorrection>,
}

#[derive(Debug)]
struct LatticeSlot {
    frame: PauliFrame,
    decode: LocalHistogram,
    total: LocalHistogram,
    residuals: ResidualTally,
}

/// One worker's commit stage: private frame shards, optional correction
/// recording, per-round latency accounting into fixed-size histograms.
#[derive(Debug)]
pub struct FrameSink {
    slots: Vec<LatticeSlot>,
    corrections: Vec<RoundCorrection>,
    record_corrections: bool,
    /// When set, `corrections` is a ring of at most this many entries
    /// holding the most recent rounds; `None` keeps the full history.
    correction_cap: Option<usize>,
    /// Next ring slot to overwrite once the cap is reached.
    correction_head: usize,
    committed: u64,
}

impl FrameSink {
    /// A sink with one empty frame shard per lattice of `set`.
    #[must_use]
    pub fn new(set: &LatticeSet, record_corrections: bool) -> Self {
        FrameSink {
            slots: set
                .iter()
                .map(|(_, _, lattice)| LatticeSlot {
                    frame: PauliFrame::new(lattice.num_data()),
                    decode: LocalHistogram::new(),
                    total: LocalHistogram::new(),
                    residuals: ResidualTally::new(),
                })
                .collect(),
            corrections: Vec::new(),
            record_corrections,
            correction_cap: None,
            correction_head: 0,
            committed: 0,
        }
    }

    /// Bounds the recorded-correction history to a ring of the `cap` most
    /// recent rounds (`None` — the default — keeps every correction).  A cap
    /// of `0` records nothing while leaving recording formally on.
    #[must_use]
    pub(crate) fn with_correction_cap(mut self, cap: Option<usize>) -> Self {
        self.correction_cap = cap;
        self
    }

    /// Commits one decoded round into its lattice's frame shard (and the
    /// correction log, when recording).  Rounds classified in stream
    /// ([`DecodedRound::residual`]) fold into the lattice's
    /// [`ResidualTally`] as they land — no per-round state survives beyond
    /// four integer counters.
    pub fn commit(&mut self, round: &DecodedRound<'_>) {
        let slot = &mut self.slots[round.lattice_id as usize];
        slot.frame.record(round.correction);
        if let Some((x, z)) = round.residual {
            slot.residuals.record_states(x, z);
        }
        if self.record_corrections {
            match self.correction_cap {
                Some(cap) if self.corrections.len() >= cap => {
                    // Ring mode: overwrite the oldest entry in place, reusing
                    // its correction buffer (no per-round allocation once the
                    // ring is full).
                    if cap > 0 {
                        let entry = &mut self.corrections[self.correction_head];
                        entry.lattice_id = round.lattice_id;
                        entry.round = round.round;
                        entry.correction.copy_from(round.correction);
                        self.correction_head = (self.correction_head + 1) % cap;
                    }
                }
                _ => self.corrections.push(RoundCorrection {
                    lattice_id: round.lattice_id,
                    round: round.round,
                    correction: round.correction.clone(),
                }),
            }
        }
        self.committed += 1;
    }

    /// Records one round's latency samples for `lattice_id`, in integer
    /// nanoseconds.  Kept separate from [`FrameSink::commit`] so the
    /// caller's timestamp spans the full unpack-to-commit window of the
    /// round.  Allocation-free, and cheap by construction: two plain
    /// integer histogram updates.
    pub fn record_latency(&mut self, lattice_id: usize, decode_ns: u64, total_ns: u64) {
        let slot = &mut self.slots[lattice_id];
        slot.decode.record(decode_ns);
        slot.total.record(total_ns);
    }

    /// Rounds committed so far.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Consumes the sink into the worker's output, attaching the decode
    /// stage's per-lattice decoder names.
    #[must_use]
    pub(crate) fn finish(self, lattice_decoders: Vec<String>) -> WorkerOutput {
        WorkerOutput {
            lattice_decoders,
            per_lattice: self
                .slots
                .into_iter()
                .map(|slot| WorkerLatticeOutput {
                    frame: slot.frame,
                    decode_hist: slot.decode.snapshot(),
                    total_hist: slot.total.snapshot(),
                    residuals: slot.residuals,
                })
                .collect(),
            corrections: self.corrections,
        }
    }
}

/// The shortest depth-sampling stride, in rounds: however short the run,
/// the source reads the clock, the rings and every lattice's counters on
/// at most one round in this many.
const MIN_SAMPLE_STRIDE: u64 = 64;

/// The source-side telemetry sink: a down-sampled backlog timeline with
/// per-lattice breakdown, at most `max_depth_samples` entries (plus the
/// final round) for a run of the length it was built for.
#[derive(Debug)]
pub(crate) struct DepthSink {
    total_rounds: u64,
    /// Always a power of two, so the cadence test is a mask.
    sample_every: u64,
    offered: u64,
    timeline: Vec<DepthSample>,
    /// Deepest queue seen at a sampling instant.
    queue_depth_peak: u64,
}

impl DepthSink {
    /// A sink sampling every `max(⌈total_rounds / max_depth_samples⌉, 64)`
    /// rounds, rounded up to a power of two (and always the last round).
    /// The stride covers `total_rounds` in at most `max_depth_samples`
    /// steps, so the timeline needs no cap of its own.
    #[must_use]
    pub(crate) fn new(total_rounds: u64, max_depth_samples: usize) -> Self {
        DepthSink {
            total_rounds,
            sample_every: total_rounds
                .div_ceil(max_depth_samples.max(1) as u64)
                .max(MIN_SAMPLE_STRIDE)
                .checked_next_power_of_two()
                .unwrap_or(1 << 63),
            offered: 0,
            timeline: Vec::new(),
            queue_depth_peak: 0,
        }
    }

    /// Offers round `emitted_total` for sampling; on the sampling cadence
    /// (and on the very last round) a [`DepthSample`] is recorded with the
    /// `(elapsed_ns, queue_depth)` pair `sample` returns, the per-lattice
    /// backlogs read from `counters`, and their sum.  `sample` is called only
    /// for rounds that are kept: reading the clock and the consumers' side
    /// of the ring is paid on one round per stride, not on every round.
    pub(crate) fn observe(
        &mut self,
        emitted_total: u64,
        counters: &RuntimeCounters,
        sample: impl FnOnce() -> (u64, u64),
    ) {
        self.offered += 1;
        if emitted_total & (self.sample_every - 1) == 0 || emitted_total + 1 == self.total_rounds {
            let (elapsed_ns, queue_depth) = sample();
            let per_lattice_backlog = counters.per_lattice_backlog();
            self.timeline.push(DepthSample {
                round: emitted_total,
                elapsed_ns,
                queue_depth,
                backlog: per_lattice_backlog.iter().sum(),
                per_lattice_backlog,
            });
            self.queue_depth_peak = self.queue_depth_peak.max(queue_depth);
        }
    }

    /// Consumes the sink into its timeline.
    #[must_use]
    pub(crate) fn finish(self) -> Vec<DepthSample> {
        self.timeline
    }

    /// This sink's [`StageReport`]: accepted = rounds offered, emitted =
    /// samples kept (the rest were down-sampled away, not lost — they are
    /// still in the counters); occupancy peak = the deepest queue sampled.
    #[must_use]
    pub(crate) fn report(&self, stage: impl Into<String>) -> StageReport {
        StageReport {
            accepted: self.offered,
            emitted: self.timeline.len() as u64,
            occupancy_peak: self.queue_depth_peak,
            ..StageReport::named(stage)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice_set::LatticeSpec;
    use crate::packet::{PacketCodec, SyndromePacket};
    use crate::source::{NoiseSpec, SyndromeSource};
    use crate::stage::decode::DecodeStage;
    use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};
    use std::sync::atomic::Ordering;

    fn set_of(distances: &[usize]) -> LatticeSet {
        let specs: Vec<LatticeSpec> = distances
            .iter()
            .map(|&d| {
                let mut spec = LatticeSpec::new(d);
                spec.noise = NoiseSpec::PureDephasing { p: 0.05 };
                spec.rounds = 8;
                spec
            })
            .collect();
        LatticeSet::new(specs).unwrap()
    }

    #[test]
    fn commit_records_frames_corrections_and_latency() {
        let set = set_of(&[3, 3]);
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let factory = || Box::new(GreedyMatchingDecoder::new()) as DynDecoder;
        let mut stage = DecodeStage::new(&set, &codec, &factory);
        let mut sink = FrameSink::new(&set, true);
        let mut record = vec![0u64; codec.words_per_packet()];
        for (lattice_id, round) in [(0u32, 0u64), (1, 0), (0, 1)] {
            let spec = set.spec(lattice_id as usize);
            let mut source = SyndromeSource::new(
                set.lattice(lattice_id as usize).clone(),
                spec.noise,
                spec.seed + round,
            )
            .unwrap();
            let syndrome = source.next_syndrome();
            codec.encode(
                &SyndromePacket::new(lattice_id, round, 0, &syndrome),
                &mut record,
            );
            let decoded = stage.decode(&record);
            sink.commit(&decoded);
            let id = decoded.lattice_id as usize;
            sink.record_latency(id, 10, 20);
        }
        assert_eq!(sink.committed(), 3);
        let output = sink.finish(stage.lattice_decoders().to_vec());
        assert_eq!(output.per_lattice[0].decode_hist.count, 2);
        assert_eq!(output.per_lattice[0].decode_hist.min_ns, 10);
        assert_eq!(output.per_lattice[0].total_hist.max_ns, 20);
        assert_eq!(output.per_lattice[1].decode_hist.count, 1);
        assert_eq!(output.corrections.len(), 3);
        assert_eq!(output.corrections[1].lattice_id, 1);
        assert_eq!(output.lattice_decoders.len(), 2);
    }

    #[test]
    fn correction_cap_turns_the_history_into_a_most_recent_ring() {
        let set = set_of(&[3]);
        let codec = PacketCodec::for_lattice_bits(&set.ancilla_bits());
        let factory = || Box::new(GreedyMatchingDecoder::new()) as DynDecoder;
        let mut stage = DecodeStage::new(&set, &codec, &factory);
        let mut sink = FrameSink::new(&set, true).with_correction_cap(Some(2));
        let spec = set.spec(0);
        let mut source =
            SyndromeSource::new(set.lattice(0).clone(), spec.noise, spec.seed).unwrap();
        let mut record = vec![0u64; codec.words_per_packet()];
        for round in 0..5u64 {
            let syndrome = source.next_syndrome();
            codec.encode(&SyndromePacket::new(0, round, 0, &syndrome), &mut record);
            let decoded = stage.decode(&record);
            sink.commit(&decoded);
        }
        assert_eq!(sink.committed(), 5);
        let output = sink.finish(stage.lattice_decoders().to_vec());
        let mut kept: Vec<u64> = output.corrections.iter().map(|c| c.round).collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![3, 4], "the ring keeps the newest rounds only");
    }

    #[test]
    fn committed_rounds_fold_into_the_lattice_residual_tally() {
        let set = set_of(&[3, 5]);
        let codec = PacketCodec::with_error_payload(&set.ancilla_bits(), &set.data_bits());
        let factory = || Box::new(GreedyMatchingDecoder::new()) as DynDecoder;
        let mut stage = DecodeStage::new(&set, &codec, &factory);
        let mut sink = FrameSink::new(&set, false);
        let mut record = vec![0u64; codec.words_per_packet()];
        for (lattice_id, rounds) in [(0u32, 3u64), (1, 2)] {
            let spec = set.spec(lattice_id as usize);
            let mut source = SyndromeSource::new(
                set.lattice(lattice_id as usize).clone(),
                spec.noise,
                spec.seed,
            )
            .unwrap();
            for round in 0..rounds {
                let (error, syndrome) = source.next_error_and_syndrome();
                let packet = SyndromePacket::new(lattice_id, round, 0, &syndrome);
                codec.encode_with_error(&packet, &error, &mut record);
                sink.commit(&stage.decode(&record));
            }
        }
        let output = sink.finish(stage.lattice_decoders().to_vec());
        assert_eq!(output.per_lattice[0].residuals.rounds, 3);
        assert_eq!(output.per_lattice[1].residuals.rounds, 2);
        assert_eq!(
            output.per_lattice[0].residuals.successes + output.per_lattice[0].residuals.failures(),
            3
        );
    }

    #[test]
    fn depth_sink_downsamples_and_breaks_backlog_down_per_lattice() {
        let counters = RuntimeCounters::new(2, 1);
        counters.per_lattice[0]
            .generated
            .store(4, Ordering::Relaxed);
        counters.per_lattice[1]
            .generated
            .store(3, Ordering::Relaxed);
        counters.per_lattice[1].decoded.store(2, Ordering::Relaxed);
        // 1,000 rounds, at most 10 samples → ⌈1000 / 10⌉ = 100, rounded up
        // to a stride of 128: rounds 0, 128, …, 896 plus the last.
        let mut sink = DepthSink::new(1_000, 10);
        let mut sampled = 0;
        for round in 0..1_000 {
            sink.observe(round, &counters, || {
                sampled += 1;
                (round * 5, 1)
            });
        }
        assert_eq!(
            sink.report("depth").accepted,
            1_000,
            "every round is offered"
        );
        let timeline = sink.finish();
        assert_eq!(timeline.len(), 9);
        assert_eq!(
            sampled, 9,
            "the clock and queues are read for kept rounds only"
        );
        assert_eq!(timeline[3].elapsed_ns, 384 * 5);
        assert_eq!(timeline[0].round, 0);
        assert_eq!(timeline[8].round, 999);
        let sample = &timeline[3];
        assert_eq!(sample.backlog, 5);
        assert_eq!(sample.per_lattice_backlog, vec![4, 1]);
    }

    #[test]
    fn depth_sink_always_keeps_the_final_round() {
        let counters = RuntimeCounters::new(1, 1);
        let mut sink = DepthSink::new(129, 3);
        for round in 0..129 {
            sink.observe(round, &counters, || (0, 0));
        }
        // ⌈129 / 3⌉ = 43 → the 64-round floor: rounds 0, 64, 128 — and 128
        // is also the final round, recorded exactly once.
        let rounds: Vec<u64> = sink.timeline.iter().map(|s| s.round).collect();
        assert_eq!(rounds, vec![0, 64, 128]);
        assert_eq!(sink.report("depth").emitted, 3);
        assert_eq!(sink.report("depth").accepted, 129);
    }

    /// The stride rule over run lengths from one round to the benchmark's
    /// long runs, at the default cap and a small one: a power of two of at
    /// least 64, a timeline within the cap, and the final round kept.
    /// 262,146 rounds is the length where a stride of `⌊rounds / cap⌋` (64)
    /// would overflow the cap by one sample.
    #[test]
    fn depth_sink_stride_is_a_power_of_two_and_a_known_length_never_compacts() {
        let counters = RuntimeCounters::new(1, 1);
        let totals = [
            1u64, 63, 64, 65, 5_000, 262_146, 625_000, 1_152_000, 2_000_000,
        ];
        for cap in [4_096usize, 16] {
            for total in totals {
                let mut sink = DepthSink::new(total, cap);
                let stride = sink.sample_every;
                assert!(
                    stride.is_power_of_two() && stride >= MIN_SAMPLE_STRIDE,
                    "stride {stride} for {total} rounds at cap {cap}"
                );
                for round in 0..total {
                    sink.observe(round, &counters, || (round, 0));
                }
                let rounds: Vec<u64> = sink.timeline.iter().map(|s| s.round).collect();
                assert!(rounds.len() <= cap + 1, "{total} rounds: {}", rounds.len());
                if stride > MIN_SAMPLE_STRIDE {
                    assert!(rounds.len() > cap / 2, "{total} rounds: {}", rounds.len());
                }
                assert_eq!(rounds.last(), Some(&(total - 1)), "final round kept");
                assert!(rounds.windows(2).all(|w| w[0] < w[1]), "kept once each");
                // The warm-up and two of the benchmark's long runs.
                let expected = match (cap, total) {
                    (4_096, 5_000) => Some(80),
                    (4_096, 1_152_000) => Some(2_251),
                    (4_096, 2_000_000) => Some(3_908),
                    _ => None,
                };
                if let Some(expected) = expected {
                    assert_eq!(rounds.len(), expected, "{total} rounds");
                }
            }
        }
        // The stride saturates at the largest power of two instead of
        // overflowing.
        let mut sink = DepthSink::new(u64::MAX, 1);
        assert_eq!(sink.sample_every, 1 << 63);
        sink.observe(0, &counters, || (0, 0));
        assert_eq!(sink.timeline.len(), 1);
    }

    #[test]
    fn depth_sink_timeline_is_deterministic_for_a_fixed_seed() {
        // Two sinks fed the same seeded synthetic backlog trace must keep
        // byte-identical timelines — down-sampling is stride arithmetic,
        // never randomized.
        let run = |seed: u64| {
            let counters = RuntimeCounters::new(2, 1);
            let mut sink = DepthSink::new(3_000, 12);
            let mut state = seed;
            for round in 0..3_000u64 {
                // xorshift64: a cheap deterministic pseudo-random backlog.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                counters.per_lattice[0]
                    .generated
                    .store(state % 97, Ordering::Relaxed);
                counters.per_lattice[1]
                    .generated
                    .store(state % 31, Ordering::Relaxed);
                sink.observe(round, &counters, || (round * 11, state % 5));
            }
            sink.finish()
        };
        assert_eq!(run(0xDEC0DE), run(0xDEC0DE));
        assert_ne!(
            run(0xDEC0DE),
            run(0xFACADE),
            "different traces must differ (the equality above is not vacuous)"
        );
    }
}
