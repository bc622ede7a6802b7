//! Sinks: where the pipeline's results and telemetry come to rest.
//!
//! Two sinks close the stage graph:
//!
//! * [`FrameSink`] — one per worker thread.  Every [`DecodedRound`] is
//!   committed into the worker's *private* per-lattice [`PauliFrame`] shard
//!   (no cross-worker synchronization on the hot path; the engine merges
//!   shards after the run), optionally kept as a
//!   [`RoundCorrection`], and annotated with per-round latency samples
//!   recorded into bounded-memory [`LogHistogram`]s — the sink allocates
//!   nothing per round, no matter how long the stream runs.
//! * `DepthSink` — one on the source thread.  Down-samples the run into
//!   at most `max_depth_samples` [`DepthSample`]s, each carrying the
//!   aggregate queue depth and backlog *and* the per-lattice backlog
//!   breakdown, so a single timeline shows which lattice was falling
//!   behind when.  When the stream outruns its sampling stride (endless
//!   sources, wrong round estimates) the timeline compacts in place —
//!   halving resolution while always retaining the peak-backlog sample and
//!   the newest sample — so memory stays bounded by the cap.

use crate::engine::RoundCorrection;
use crate::lattice_set::LatticeSet;
use crate::obs::{HistogramSnapshot, LocalHistogram, LogHistogram};
use crate::stage::decode::DecodedRound;
use crate::stage::StageReport;
use crate::telemetry::{DepthSample, RuntimeCounters};
use nisqplus_qec::frame::PauliFrame;
use nisqplus_qec::logical::ResidualTally;
use std::sync::Arc;

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
    /// The machine-wide live decode histogram, attached only when a
    /// snapshot sampler will read it: fed with one bucket-only atomic add
    /// per round in addition to the exact private books.
    live_decode: Option<Arc<LogHistogram>>,
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
            live_decode: None,
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

    /// Attaches the run-wide live decode histogram sampled by the
    /// observability plane.
    #[must_use]
    pub(crate) fn with_obs(mut self, live_decode: Arc<LogHistogram>) -> Self {
        self.live_decode = Some(live_decode);
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
    /// integer histogram updates, plus a single relaxed atomic add into the
    /// shared live histogram when one is attached.
    pub fn record_latency(&mut self, lattice_id: usize, decode_ns: u64, total_ns: u64) {
        let slot = &mut self.slots[lattice_id];
        slot.decode.record(decode_ns);
        slot.total.record(total_ns);
        if let Some(live) = &self.live_decode {
            live.record_bucket(decode_ns);
        }
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

/// The source-side telemetry sink: a down-sampled backlog timeline with
/// per-lattice breakdown, hard-capped at `max_depth_samples` entries.
#[derive(Debug)]
pub(crate) struct DepthSink {
    total_rounds: u64,
    sample_every: u64,
    max_samples: usize,
    offered: u64,
    timeline: Vec<DepthSample>,
    /// Deepest queue seen at a sampling instant.
    queue_depth_peak: u64,
}

impl DepthSink {
    /// A sink sampling roughly every `total_rounds / max_depth_samples`
    /// rounds (always at least the last round).  The cap is hard: if the
    /// stream outruns the stride, the timeline compacts in place instead of
    /// growing (see [`DepthSink::observe`]).
    #[must_use]
    pub(crate) fn new(total_rounds: u64, max_depth_samples: usize) -> Self {
        let max_samples = max_depth_samples.max(1);
        DepthSink {
            total_rounds,
            sample_every: (total_rounds / max_samples as u64).max(1),
            max_samples,
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
    /// of every channel is paid on one round per stride, not on every round.
    ///
    /// When the timeline would exceed its cap (plus one slot of slack for
    /// the always-sampled final round), it is compacted: every other sample
    /// is dropped — except the global peak-backlog sample and the newest
    /// sample, which are always retained so the compacted timeline still
    /// brackets the true peak — and the stride doubles.
    pub(crate) fn observe(
        &mut self,
        emitted_total: u64,
        counters: &RuntimeCounters,
        sample: impl FnOnce() -> (u64, u64),
    ) {
        self.offered += 1;
        if emitted_total % self.sample_every == 0 || emitted_total + 1 == self.total_rounds {
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
            if self.timeline.len() > self.max_samples + 1 {
                self.compact();
            }
        }
    }

    /// Halves the timeline's resolution in place: keeps every other sample
    /// plus the peak-backlog sample and the newest one, then doubles the
    /// stride (multiples of the doubled stride are a subset of the old
    /// stride's, so the phase stays aligned).
    fn compact(&mut self) {
        let last = self.timeline.len() - 1;
        let peak = self
            .timeline
            .iter()
            .enumerate()
            .max_by_key(|(_, sample)| sample.backlog)
            .map_or(0, |(index, _)| index);
        let mut index = 0;
        self.timeline.retain(|_| {
            let keep = index % 2 == 0 || index == peak || index == last;
            index += 1;
            keep
        });
        self.sample_every = self.sample_every.saturating_mul(2);
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
            let decoded = stage.decode(&record).expect("clean record decodes");
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
            let decoded = stage.decode(&record).unwrap();
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
                sink.commit(&stage.decode(&record).unwrap());
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
    fn frame_sink_feeds_the_live_aggregate_histogram() {
        let set = set_of(&[3]);
        let live_decode = Arc::new(LogHistogram::new());
        let mut sink = FrameSink::new(&set, false).with_obs(Arc::clone(&live_decode));
        sink.record_latency(0, 100, 250);
        sink.record_latency(0, 300, 450);
        let output = sink.finish(vec!["greedy".to_string()]);
        assert_eq!(output.per_lattice[0].decode_hist.count, 2);
        // The live feed is bucket-only (one atomic add per round): the
        // bucket populations agree with the exact private books, so the
        // sampler's quantiles match to within one bucket.
        let live = live_decode.snapshot();
        assert_eq!(live.count, 2);
        assert_eq!(live.counts, output.per_lattice[0].decode_hist.counts);
    }

    /// The live histogram is an extra, attached only when a sampler runs:
    /// a sink built without it keeps the same private books.
    #[test]
    fn a_sink_without_the_live_histogram_records_the_same_private_books() {
        let set = set_of(&[3]);
        let mut plain = FrameSink::new(&set, false);
        let mut live = FrameSink::new(&set, false).with_obs(Arc::new(LogHistogram::new()));
        for sink in [&mut plain, &mut live] {
            sink.record_latency(0, 100, 250);
            sink.record_latency(0, 300, 450);
        }
        let plain = plain.finish(Vec::new());
        let live = live.finish(Vec::new());
        assert_eq!(plain.per_lattice[0].decode_hist.count, 2);
        assert_eq!(
            plain.per_lattice[0].decode_hist,
            live.per_lattice[0].decode_hist
        );
        assert_eq!(
            plain.per_lattice[0].total_hist,
            live.per_lattice[0].total_hist
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
        // 100 rounds, at most 10 samples → every 10th round plus the last.
        let mut sink = DepthSink::new(100, 10);
        let mut sampled = 0;
        for round in 0..100 {
            sink.observe(round, &counters, || {
                sampled += 1;
                (round * 5, 1)
            });
        }
        assert_eq!(sink.report("depth").accepted, 100, "every round is offered");
        let timeline = sink.finish();
        assert_eq!(timeline.len(), 11);
        assert_eq!(
            sampled, 11,
            "the clock and queues are read for kept rounds only"
        );
        assert_eq!(timeline[3].elapsed_ns, 150);
        assert_eq!(timeline[0].round, 0);
        assert_eq!(timeline[10].round, 99);
        let sample = &timeline[3];
        assert_eq!(sample.backlog, 5);
        assert_eq!(sample.per_lattice_backlog, vec![4, 1]);
    }

    #[test]
    fn depth_sink_always_keeps_the_final_round() {
        let counters = RuntimeCounters::new(1, 1);
        let mut sink = DepthSink::new(7, 3);
        for round in 0..7 {
            sink.observe(round, &counters, || (0, 0));
        }
        // sample_every = 2: rounds 0, 2, 4, 6 — and 6 is also the final
        // round, recorded exactly once.
        let rounds: Vec<u64> = sink.timeline.iter().map(|s| s.round).collect();
        assert_eq!(rounds, vec![0, 2, 4, 6]);
        assert_eq!(sink.report("depth").emitted, 4);
        assert_eq!(sink.report("depth").accepted, 7);
    }

    #[test]
    fn depth_sink_caps_the_timeline_and_retains_the_peak() {
        let counters = RuntimeCounters::new(1, 1);
        // An endless stream (total_rounds unknown → 0) with a small cap:
        // the sink must never exceed cap + 1 samples, yet still bracket the
        // backlog peak.
        let cap = 16;
        let mut sink = DepthSink::new(0, cap);
        // A power of two, so the spike lands on the sampling stride no
        // matter how many times it has doubled.
        let peak_round = 4_096u64;
        for round in 0..10_000u64 {
            // Backlog ramps to a spike at `peak_round`, then drains.
            let backlog = if round == peak_round {
                5_000
            } else {
                round % 7
            };
            counters.per_lattice[0]
                .generated
                .store(backlog, Ordering::Relaxed);
            sink.observe(round, &counters, || (round, 0));
            assert!(
                sink.timeline.len() <= cap + 1,
                "timeline exceeded its cap at round {round}"
            );
        }
        let timeline = sink.finish();
        assert!(timeline.len() <= cap + 1);
        let max_kept = timeline.iter().map(|s| s.backlog).max().unwrap();
        assert_eq!(max_kept, 5_000, "compaction must retain the peak sample");
        // The newest kept sample trails the stream's end by at most one
        // (doubled) stride — here the stride cannot have doubled past 2048
        // (10_000 rounds / 17 slots rounded up to a power of two).
        assert!(
            timeline.last().unwrap().round >= 9_999 - 2_048,
            "newest kept sample fell too far behind: round {}",
            timeline.last().unwrap().round
        );
    }

    #[test]
    fn depth_sink_preserves_the_first_sample_and_monotone_round_order() {
        let counters = RuntimeCounters::new(1, 1);
        // Small cap over a long stream: the timeline compacts repeatedly,
        // yet round 0 (index 0 is always even) and strict round ordering
        // must survive every compaction.
        let mut sink = DepthSink::new(0, 8);
        for round in 0..5_000u64 {
            counters.per_lattice[0]
                .generated
                .store(round % 13, Ordering::Relaxed);
            sink.observe(round, &counters, || (round * 3, 0));
            let rounds: Vec<u64> = sink.timeline.iter().map(|s| s.round).collect();
            assert_eq!(rounds.first(), Some(&0), "first sample dropped");
            assert!(
                rounds.windows(2).all(|w| w[0] < w[1]),
                "round order broke at observe({round}): {rounds:?}"
            );
        }
        let timeline = sink.finish();
        assert_eq!(timeline[0].round, 0);
        assert!(timeline
            .windows(2)
            .all(|w| w[0].elapsed_ns < w[1].elapsed_ns));
    }

    #[test]
    fn depth_sink_timeline_is_deterministic_for_a_fixed_seed() {
        // Two sinks fed the same seeded synthetic backlog trace must keep
        // byte-identical timelines — down-sampling is stride arithmetic,
        // never randomized.
        let run = |seed: u64| {
            let counters = RuntimeCounters::new(2, 1);
            let mut sink = DepthSink::new(0, 12);
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
