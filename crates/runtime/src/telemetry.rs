//! Live counters and the end-of-run [`RuntimeReport`].
//!
//! The producer and every worker publish their progress through shared
//! atomic counters ([`RuntimeCounters`]), so queue depth, backlog and
//! throughput can be observed *while the stream runs* — both for the machine
//! as a whole and per lattice ([`LatticeCounters`]).  The engine folds the
//! final counter values, the depth timeline and the per-lattice latency
//! histograms into a [`RuntimeReport`]: aggregate counters, an aggregate
//! backlog-versus-[`BacklogModel`](nisqplus_system::backlog::BacklogModel)
//! comparison, and one [`LatticeReport`] per registered lattice — which
//! patch is falling behind, under which QoS contract (push policy, queue
//! budget, shed-rate SLO verdict), served by which decoder, and, when the
//! residual analysis ran, at what measured logical cost ([`ResidualReport`]).
//!
//! Every field the report prints is documented line by line for operators
//! in `docs/OPERATIONS.md` at the repository root.

use crate::config::PushPolicy;
use crate::obs::{bucket_bounds, EventKind, HistogramSnapshot, JournalSnapshot, MetricsSnapshot};
use crate::source::NoiseEpoch;
use crate::stage::StageReport;
use nisqplus_qec::logical::ResidualTally;
use nisqplus_sim::stats::Summary;
use nisqplus_system::backlog::{BacklogComparison, MeasuredBacklog};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A zero-sized, 64-byte-aligned field: in a `repr(C)` struct, whatever is
/// declared after it starts on a fresh cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct NextLine;

/// Per-lattice atomic progress counters (a slice of [`RuntimeCounters`]).
///
/// Laid out by writer: the fields the source thread bumps fill one 64-byte
/// line, the fields the decode workers bump start the next, so a worker
/// committing a round never invalidates the line the source counts the next
/// round on (and vice versa).
#[derive(Debug, Default)]
#[repr(C, align(64))]
pub struct LatticeCounters {
    /// Rounds of this lattice's syndrome data generated.
    pub generated: AtomicU64,
    /// This lattice's packets accepted by a ring.
    pub enqueued: AtomicU64,
    /// This lattice's packets dropped (shed) because the ring was full or
    /// the lattice's queue budget was exhausted.
    pub dropped: AtomicU64,
    /// Producer spin-retries attributable to this lattice: its packet found
    /// the ring full, or its queue budget exhausted, under a blocking policy.
    pub backpressure_spins: AtomicU64,
    /// Everything above is written by the source, everything below by the
    /// workers.
    worker_line: NextLine,
    /// This lattice's packets decoded and committed to its frame.
    pub decoded: AtomicU64,
}

impl LatticeCounters {
    /// A point-in-time copy of this lattice's counters.
    #[must_use]
    pub fn snapshot(&self) -> LatticeCounterSnapshot {
        LatticeCounterSnapshot {
            generated: self.generated.load(Ordering::Relaxed),
            enqueued: self.enqueued.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            backpressure_spins: self.backpressure_spins.load(Ordering::Relaxed),
            decoded: self.decoded.load(Ordering::Relaxed),
        }
    }

    /// This lattice's current backlog: rounds generated but neither decoded
    /// nor shed (same convention as [`RuntimeCounters::backlog`]).
    #[must_use]
    pub fn backlog(&self) -> u64 {
        self.generated
            .load(Ordering::Relaxed)
            .saturating_sub(self.decoded.load(Ordering::Relaxed))
            .saturating_sub(self.dropped.load(Ordering::Relaxed))
    }

    /// This lattice's outstanding rounds: accepted by a ring but not yet
    /// decoded.  This is the quantity a per-lattice
    /// [`queue_budget`](crate::LatticeSpec::queue_budget) bounds.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.enqueued
            .load(Ordering::Relaxed)
            .saturating_sub(self.decoded.load(Ordering::Relaxed))
    }
}

/// Shared atomic progress counters, updated lock-free by all threads.
///
/// Every flow counter has exactly one owner: the source thread bumps the
/// [`LatticeCounters`] slice of the lattice a round belongs to, each worker
/// bumps the decoded counter of that lattice and its own [`WorkerCounters`]
/// slice (how many rounds a worker committed is its frame sink's count).  The machine-wide view ([`RuntimeCounters::snapshot`],
/// [`RuntimeCounters::backlog`]) is the sum of the slices, computed when
/// read — so "Σ per-lattice = aggregate" holds by construction.
#[derive(Debug)]
pub struct RuntimeCounters {
    /// Wire records a worker rejected as undecodable (failed header
    /// validation or checksum) and quarantined instead of decoded.  The one
    /// machine-wide counter: the header that names the lattice is exactly
    /// what cannot be trusted.
    pub quarantined: AtomicU64,
    /// One counter slice per registered lattice, indexed by lattice id.
    pub per_lattice: Vec<LatticeCounters>,
    /// One counter slice per decode worker, indexed by worker id.
    pub per_worker: Vec<WorkerCounters>,
}

impl RuntimeCounters {
    /// Counters for a machine of `lattices` lattices decoded by `workers`
    /// workers, all at zero.
    #[must_use]
    pub fn new(lattices: usize, workers: usize) -> Self {
        RuntimeCounters {
            quarantined: AtomicU64::new(0),
            per_lattice: (0..lattices).map(|_| LatticeCounters::default()).collect(),
            per_worker: (0..workers).map(|_| WorkerCounters::default()).collect(),
        }
    }

    /// A point-in-time machine-wide view: the per-lattice and per-worker
    /// slices summed (each slice counter is read once, relaxed, so a
    /// mid-run snapshot is per-counter atomic, not globally instantaneous).
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut total = CounterSnapshot {
            quarantined: self.quarantined.load(Ordering::Relaxed),
            ..CounterSnapshot::default()
        };
        for lattice in &self.per_lattice {
            total.generated += lattice.generated.load(Ordering::Relaxed);
            total.enqueued += lattice.enqueued.load(Ordering::Relaxed);
            total.dropped += lattice.dropped.load(Ordering::Relaxed);
            total.backpressure_spins += lattice.backpressure_spins.load(Ordering::Relaxed);
            total.decoded += lattice.decoded.load(Ordering::Relaxed);
        }
        for worker in &self.per_worker {
            total.stall_polls += worker.stall_polls.load(Ordering::Relaxed);
            total.stolen += worker.stolen.load(Ordering::Relaxed);
            total.batches += worker.batches.load(Ordering::Relaxed);
        }
        total
    }

    /// Every lattice's current backlog, indexed by lattice id (see
    /// [`LatticeCounters::backlog`]).
    #[must_use]
    pub fn per_lattice_backlog(&self) -> Vec<u64> {
        self.per_lattice
            .iter()
            .map(LatticeCounters::backlog)
            .collect()
    }

    /// The current aggregate backlog: rounds generated but neither decoded
    /// nor shed, summed over the lattices.  Dropped rounds are lost, not
    /// owed, so they don't count as outstanding work (under
    /// [`PushPolicy::Block`] nothing is
    /// ever dropped and this is exactly generated minus decoded).
    #[must_use]
    pub fn backlog(&self) -> u64 {
        self.per_lattice.iter().map(LatticeCounters::backlog).sum()
    }
}

/// A plain-data copy of [`RuntimeCounters`]' aggregate view at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Rounds of syndrome data generated.
    pub generated: u64,
    /// Packets accepted by the ring buffer.
    pub enqueued: u64,
    /// Packets dropped because the ring was full.
    pub dropped: u64,
    /// Producer spin-retries while the ring was full.
    pub backpressure_spins: u64,
    /// Packets decoded.
    pub decoded: u64,
    /// Worker polls that found the queue empty.
    pub stall_polls: u64,
    /// Packets a worker stole from another worker's ring.
    pub stolen: u64,
    /// Decode batches executed.
    pub batches: u64,
    /// Wire records rejected as undecodable and quarantined by a worker.
    pub quarantined: u64,
}

impl CounterSnapshot {
    /// Mean packets decoded per batch (0.0 before any batch completes).
    #[must_use]
    pub fn mean_batch_fill(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.decoded as f64 / self.batches as f64
        }
    }
}

/// Per-worker atomic progress counters (a slice of [`RuntimeCounters`]),
/// one cache line per worker: no worker's commit touches a neighbour's line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct WorkerCounters {
    /// Packets this worker stole from a foreign channel.
    pub stolen: AtomicU64,
    /// Decode batches this worker executed.
    pub batches: AtomicU64,
    /// Polls by this worker that found every channel empty.
    pub stall_polls: AtomicU64,
}

impl WorkerCounters {
    /// This worker's counters at end of run, beside `decoded`: the rounds
    /// its frame sink committed.
    #[must_use]
    pub fn snapshot(&self, decoded: u64) -> WorkerCounterSnapshot {
        WorkerCounterSnapshot {
            decoded,
            stolen: self.stolen.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            stall_polls: self.stall_polls.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of one worker's [`WorkerCounters`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WorkerCounterSnapshot {
    /// Packets this worker decoded.
    pub decoded: u64,
    /// Packets this worker stole from a foreign channel.
    pub stolen: u64,
    /// Decode batches this worker executed.
    pub batches: u64,
    /// Polls by this worker that found every channel empty.
    pub stall_polls: u64,
}

impl WorkerCounterSnapshot {
    /// Mean packets this worker decoded per batch (0.0 before any batch
    /// completes).
    #[must_use]
    pub fn mean_batch_fill(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.decoded as f64 / self.batches as f64
        }
    }
}

/// A plain-data copy of one lattice's [`LatticeCounters`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LatticeCounterSnapshot {
    /// Rounds of this lattice's syndrome data generated.
    pub generated: u64,
    /// This lattice's packets accepted by a ring.
    pub enqueued: u64,
    /// This lattice's packets dropped (shed) because the ring was full or
    /// its queue budget was exhausted.
    pub dropped: u64,
    /// Producer spin-retries attributable to this lattice under a blocking
    /// policy.
    pub backpressure_spins: u64,
    /// This lattice's packets decoded.
    pub decoded: u64,
}

/// One point of the queue-depth/backlog timeline, sampled by the source
/// stage's depth sink.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepthSample {
    /// The number of rounds emitted across all lattices when the sample was
    /// taken (for a single lattice this is its generation round).
    pub round: u64,
    /// Nanoseconds since the engine epoch.
    pub elapsed_ns: u64,
    /// Packets sitting in the channels (all lattices).
    pub queue_depth: u64,
    /// Rounds generated but not yet decoded (queue depth plus in-flight).
    pub backlog: u64,
    /// Each lattice's own backlog at this instant, indexed by lattice id —
    /// the breakdown that says *which* patch the aggregate backlog belongs
    /// to.  Sums to [`DepthSample::backlog`] up to sampling skew.
    pub per_lattice_backlog: Vec<u64>,
}

/// Tail quantiles of a latency distribution, nanoseconds.
///
/// Read from a bounded-memory [`HistogramSnapshot`]
/// ([`LatencyProfile::from_histogram`]), so exact to within one log-bucket
/// width.  All four values are finite by construction (0.0 for an empty
/// sample set).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyQuantiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

/// Latency samples summarized into mean/extrema, tail quantiles, plus a
/// histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyProfile {
    /// Count, mean, standard deviation and extrema, in nanoseconds.
    pub summary: Summary,
    /// Tail quantiles, in nanoseconds.
    pub quantiles: LatencyQuantiles,
    /// Histogram bin edges in nanoseconds (empty when no samples):
    /// log-bucketed, geometric widths.
    pub histogram_edges: Vec<f64>,
    /// Estimated probability mass per bin (empty when no samples).
    pub histogram_density: Vec<f64>,
}

impl LatencyProfile {
    /// Builds a profile from a bounded-memory [`HistogramSnapshot`] — the
    /// hot path records into a
    /// [`LogHistogram`](crate::obs::LogHistogram) instead of an unbounded
    /// sample vector, and this is where the recorded shape becomes a
    /// report.  Count, sum (hence mean) and extrema are exact; standard
    /// deviation and quantiles are exact to within one log-bucket width.
    /// The histogram edges/density cover the occupied bucket range with
    /// the log buckets' own geometric widths.
    #[must_use]
    pub fn from_histogram(hist: &HistogramSnapshot) -> Self {
        let summary = Summary {
            count: hist.count as usize,
            mean: hist.mean_ns(),
            std_dev: hist.std_dev_ns(),
            min: hist.min_ns as f64,
            max: hist.max_ns as f64,
        };
        let occupied: Vec<usize> = hist
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i)
            .collect();
        let (histogram_edges, histogram_density) = match (occupied.first(), occupied.last()) {
            (Some(&first), Some(&last)) => {
                let mut edges: Vec<f64> =
                    (first..=last).map(|i| bucket_bounds(i).0 as f64).collect();
                edges.push(bucket_bounds(last).1 as f64);
                let total = hist.count as f64;
                let density: Vec<f64> = (first..=last)
                    .map(|i| hist.counts[i] as f64 / total)
                    .collect();
                (edges, density)
            }
            _ => (Vec::new(), Vec::new()),
        };
        LatencyProfile {
            summary,
            quantiles: LatencyQuantiles {
                p50: hist.quantile_ns(0.5),
                p90: hist.quantile_ns(0.9),
                p99: hist.quantile_ns(0.99),
                p999: hist.quantile_ns(0.999),
            },
            histogram_edges,
            histogram_density,
        }
    }
}

/// The measured logical cost of one lattice's run, split by how each round
/// was served: decoded rounds got the decoder's correction, shed rounds an
/// identity correction (nothing was done about whatever error occurred).
///
/// Produced by the in-stream residual analysis
/// ([`MachineConfig::analyze_residuals`](crate::MachineConfig)): every
/// round's seeded error rides the wire with its syndrome, and its residual
/// (error composed with the applied correction) is classified over both
/// sectors by the worker that commits it — or by the producer, against the
/// identity, the moment the round is shed.  This is
/// what turns "we shed 12% of rounds" into "shedding corrupted 6.3% of
/// rounds" — the drop-policy error analysis the backlog paper's argument
/// calls for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ResidualReport {
    /// Residual classifications of the rounds a decoder actually served.
    pub decoded: ResidualTally,
    /// Residual classifications of the shed rounds (identity corrections).
    /// Empty under pure backpressure.
    pub shed: ResidualTally,
}

impl ResidualReport {
    /// Both tallies folded together: the lattice's overall residual record.
    #[must_use]
    pub fn total(&self) -> ResidualTally {
        let mut total = self.decoded;
        total.absorb(&self.shed);
        total
    }

    /// The lattice's overall measured failure rate (logical errors plus
    /// invalid corrections, over all rounds — decoded and shed).
    #[must_use]
    pub fn failure_rate(&self) -> f64 {
        self.total().failure_rate()
    }
}

/// One lattice's slice of the run telemetry: the per-patch breakdown that
/// says *which* logical qubit is falling behind, under *which* QoS contract,
/// served by *which* decoder, and at what measured logical cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatticeReport {
    /// The lattice's id in the engine's registry.
    pub lattice_id: usize,
    /// The lattice's code distance.
    pub distance: usize,
    /// Name of the decoder that served this lattice (the per-lattice
    /// override's product if one was set, else the machine-wide factory's).
    pub decoder: String,
    /// The push policy this lattice ran under (its override, or the
    /// machine-wide policy it inherited).
    pub push_policy: PushPolicy,
    /// Whether [`LatticeReport::push_policy`] came from the lattice's own
    /// spec (`false` = inherited from the machine config).
    pub push_policy_overridden: bool,
    /// This lattice's outstanding-round budget, if one was configured.
    pub queue_budget: Option<usize>,
    /// This lattice's shed-rate SLO, if one was configured.
    pub shed_slo: Option<f64>,
    /// The residual analysis, when the run requested it.
    pub residual: Option<ResidualReport>,
    /// Rounds this lattice actually streamed (fewer than configured when a
    /// scripted retirement truncated its stream or a scripted add never
    /// fired).
    pub rounds: u64,
    /// This lattice's noise timeline: one epoch per homogeneous stretch of
    /// its error channel, cut at every scripted rate change and burst
    /// boundary.  A single full-run epoch for stationary noise; empty on
    /// trace replays (the trace is the record).
    pub noise_epochs: Vec<NoiseEpoch>,
    /// This lattice's nominal syndrome-generation cadence in nanoseconds per
    /// round (`0.0` when unpaced).
    pub cadence_ns: f64,
    /// Measured mean inter-arrival time between this lattice's rounds, in
    /// nanoseconds.
    pub inter_arrival_ns: f64,
    /// Final values of this lattice's counters.
    pub counters: LatticeCounterSnapshot,
    /// This lattice's backlog when *its* generation stopped: its rounds
    /// generated but neither decoded nor dropped at that instant.
    pub final_backlog: u64,
    /// Per-packet service time for this lattice's rounds, in nanoseconds.
    pub decode_latency: LatencyProfile,
    /// End-to-end latency from generation to committed correction for this
    /// lattice's rounds, in nanoseconds.
    pub total_latency: LatencyProfile,
    /// This lattice's measured backlog trajectory in model terms.  The
    /// service time is the lattice's mean decode time divided by the full
    /// pool width, i.e. it assumes the pool is entirely available to this
    /// lattice — an optimistic capacity bound when other lattices compete
    /// for the same workers.
    pub measured: MeasuredBacklog,
    /// This lattice's measured growth versus its own closed-form
    /// [`BacklogModel`](nisqplus_system::backlog::BacklogModel) at the
    /// measured rates.
    pub comparison: BacklogComparison,
}

/// The shared BOUNDED/GROWING verdict: no drops, and the backlog left when
/// generation stopped is below one twentieth of the rounds streamed (a
/// transient mid-run spike that drained before the end does not count as
/// unbounded growth).  Used by both the aggregate and the per-lattice
/// reports so the two verdicts can never drift apart.
fn backlog_stayed_bounded(dropped: u64, final_backlog: u64, rounds: u64) -> bool {
    dropped == 0 && final_backlog * 20 < rounds.max(1)
}

/// The shared one-word queue verdict: `SHEDDING` as soon as anything was
/// dropped, otherwise `BOUNDED`/`GROWING` from [`backlog_stayed_bounded`].
/// One helper for both report levels so they can never drift apart.
fn queue_verdict(dropped: u64, stayed_bounded: bool) -> &'static str {
    if dropped > 0 {
        "SHEDDING"
    } else if stayed_bounded {
        "BOUNDED"
    } else {
        "GROWING"
    }
}

impl LatticeReport {
    /// Whether this lattice's queue stayed bounded: none of its packets were
    /// dropped, and the backlog left when its generation stopped is small
    /// compared to its number of rounds.
    #[must_use]
    pub fn queue_stayed_bounded(&self) -> bool {
        backlog_stayed_bounded(self.counters.dropped, self.final_backlog, self.rounds)
    }

    /// The fraction of this lattice's generated rounds that were shed.
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        if self.counters.generated == 0 {
            0.0
        } else {
            self.counters.dropped as f64 / self.counters.generated as f64
        }
    }

    /// The shed-rate SLO verdict: `Some(true)` when a SLO is configured and
    /// the measured shed rate is within it, `Some(false)` when it is
    /// violated, `None` when no SLO was configured.
    #[must_use]
    pub fn meets_shed_slo(&self) -> Option<bool> {
        self.shed_slo.map(|slo| self.shed_rate() <= slo)
    }

    /// The one-word queue verdict the report prints: `SHEDDING` when any of
    /// this lattice's rounds were dropped, otherwise `BOUNDED`/`GROWING`
    /// from [`LatticeReport::queue_stayed_bounded`].
    #[must_use]
    pub fn verdict(&self) -> &'static str {
        queue_verdict(self.counters.dropped, self.queue_stayed_bounded())
    }
}

/// The full telemetry of one streaming run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeReport {
    /// Name of the decoder the workers ran.
    pub decoder: String,
    /// Number of lattices (logical qubits) served by the run.
    pub num_lattices: usize,
    /// The distinct code distances served, ascending.
    pub distances: Vec<usize>,
    /// Number of decoder worker threads.
    pub workers: usize,
    /// Upper bound on packets decoded per batch (the configured window `k`).
    pub batch_size: usize,
    /// Total rounds of syndrome data generated across all lattices.
    pub rounds: u64,
    /// Nominal *aggregate* inter-arrival time in nanoseconds per round
    /// across the machine (`1 / Σ 1/cadence_i`); `0.0` if any lattice is
    /// unpaced.  For a single lattice this is its cadence.
    pub cadence_ns: f64,
    /// Measured mean inter-arrival time between rounds (all lattices), in
    /// nanoseconds.
    pub inter_arrival_ns: f64,
    /// Wall-clock duration of the whole run (generation plus drain), seconds.
    pub elapsed_s: f64,
    /// Final aggregate counter values.
    pub counters: CounterSnapshot,
    /// Queue depth / backlog over time (down-sampled, all lattices).
    pub depth_timeline: Vec<DepthSample>,
    /// Largest queue depth observed on the timeline.
    pub max_queue_depth: u64,
    /// Aggregate backlog when generation stopped: rounds generated but
    /// neither decoded nor dropped (matches [`RuntimeCounters::backlog`];
    /// under the blocking push policy nothing is dropped, so it is generated
    /// minus decoded).
    pub final_backlog: u64,
    /// Decoded packets per second of wall-clock time.
    pub throughput_per_s: f64,
    /// Per-packet service time (ns): unpack, both sector decodes, and the
    /// frame commit — the span a worker is occupied per round, which is what
    /// feeds the backlog model's service rate.
    pub decode_latency: LatencyProfile,
    /// End-to-end latency from generation to committed correction (ns).
    pub total_latency: LatencyProfile,
    /// The measured aggregate backlog trajectory in model terms.
    pub measured: MeasuredBacklog,
    /// Measured aggregate growth versus the closed-form backlog model.
    pub comparison: BacklogComparison,
    /// The per-lattice breakdown, indexed by lattice id.
    pub lattices: Vec<LatticeReport>,
    /// Final values of the per-worker counters, indexed by worker id: who
    /// decoded, stole, and idled how much.
    pub worker_counters: Vec<WorkerCounterSnapshot>,
    /// One [`StageReport`] per pipeline stage (source, gate, depth sink,
    /// every channel, every worker's decode stage): the flow, refusal,
    /// occupancy and stall picture at every seam.
    pub stages: Vec<StageReport>,
    /// Mid-run samples taken by the observability sampler thread, in time
    /// order (empty when the snapshot cadence is 0).
    pub snapshots: Vec<MetricsSnapshot>,
    /// The event journal's end-of-run state: per-kind/per-severity totals
    /// plus the newest resident events.
    pub journal: JournalSnapshot,
    /// The run's fault ledger: injected versus observed versus recovered,
    /// reconciled exactly (all-zero and `enabled: false` for a plan-free
    /// run).
    pub fault: crate::fault::FaultReport,
}

impl RuntimeReport {
    /// Whether the aggregate queue stayed bounded: no drops, and the backlog
    /// left when generation stopped is small compared to the number of
    /// rounds streamed (a transient mid-run spike that drained before the
    /// end does not count as unbounded growth).
    #[must_use]
    pub fn queue_stayed_bounded(&self) -> bool {
        backlog_stayed_bounded(self.counters.dropped, self.final_backlog, self.rounds)
    }

    /// The ids of lattices whose per-lattice queue did *not* stay bounded —
    /// the "which patch is falling behind" answer.
    #[must_use]
    pub fn lattices_falling_behind(&self) -> Vec<usize> {
        self.lattices
            .iter()
            .filter(|l| !l.queue_stayed_bounded())
            .map(|l| l.lattice_id)
            .collect()
    }

    /// The one-word aggregate queue verdict the report prints: `SHEDDING`
    /// when any round was dropped, otherwise `BOUNDED`/`GROWING` from
    /// [`RuntimeReport::queue_stayed_bounded`].
    #[must_use]
    pub fn verdict(&self) -> &'static str {
        queue_verdict(self.counters.dropped, self.queue_stayed_bounded())
    }
}

impl fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let distances: Vec<String> = self.distances.iter().map(ToString::to_string).collect();
        writeln!(
            f,
            "runtime report: {} | {} lattice(s) d={{{}}} | {} worker(s) | batch<={} | {} rounds",
            self.decoder,
            self.num_lattices,
            distances.join(","),
            self.workers,
            self.batch_size,
            self.rounds,
        )?;
        writeln!(
            f,
            "  generated {} | enqueued {} | decoded {} | dropped {} | elapsed {:.3} s",
            self.counters.generated,
            self.counters.enqueued,
            self.counters.decoded,
            self.counters.dropped,
            self.elapsed_s
        )?;
        writeln!(
            f,
            "  stealing: {} stolen | {} batches (mean fill {:.2})",
            self.counters.stolen,
            self.counters.batches,
            self.counters.mean_batch_fill()
        )?;
        for (worker_id, worker) in self.worker_counters.iter().enumerate() {
            writeln!(
                f,
                "    worker {worker_id}: decoded {} | stolen {} | {} batches (mean fill {:.2}) | {} stalls",
                worker.decoded,
                worker.stolen,
                worker.batches,
                worker.mean_batch_fill(),
                worker.stall_polls,
            )?;
        }
        writeln!(
            f,
            "  throughput {:.0} decodes/s | decode {:.0} ns mean (max {:.0}) | end-to-end {:.0} ns mean",
            self.throughput_per_s,
            self.decode_latency.summary.mean,
            self.decode_latency.summary.max,
            self.total_latency.summary.mean
        )?;
        writeln!(
            f,
            "  decode tail: p50 {:.0} ns | p90 {:.0} ns | p99 {:.0} ns | p999 {:.0} ns",
            self.decode_latency.quantiles.p50,
            self.decode_latency.quantiles.p90,
            self.decode_latency.quantiles.p99,
            self.decode_latency.quantiles.p999,
        )?;
        writeln!(
            f,
            "  obs: {} snapshot(s) | {} event(s) ({} shed, {} stall, {} budget, {} steal, {} flip; {} overwritten)",
            self.snapshots.len(),
            self.journal.published,
            self.journal.counts[EventKind::Shed],
            self.journal.counts[EventKind::BackpressureStall],
            self.journal.counts[EventKind::BudgetExhausted],
            self.journal.counts[EventKind::Steal],
            self.journal.counts[EventKind::VerdictFlip],
            self.journal.overwritten,
        )?;
        if self.fault.enabled || self.counters.quarantined > 0 || self.fault.watchdog_trips > 0 {
            writeln!(f, "  fault: {}", self.fault)?;
        }
        writeln!(
            f,
            "  queue: max depth {} | final backlog {} rounds | shed {} rounds | {}",
            self.max_queue_depth,
            self.final_backlog,
            self.measured.shed,
            self.verdict()
        )?;
        writeln!(
            f,
            "  backlog growth/round: measured {:.4} vs model {:.4} (f_eff = {:.3}, agreement {:.2}x)",
            self.comparison.measured_growth_per_round,
            self.comparison.predicted_growth_per_round,
            self.comparison.effective_ratio,
            self.comparison.agreement_factor()
        )?;
        for stage in &self.stages {
            writeln!(
                f,
                "  stage {:<12} in {:>8} | out {:>8} | rejected {:>6} | peak {:>6} | stalls {}",
                stage.stage,
                stage.accepted,
                stage.emitted,
                stage.rejected,
                stage.occupancy_peak,
                stage.stall_cycles,
            )?;
        }
        for lattice in &self.lattices {
            write!(
                f,
                "\n  lattice {:>3} d={} [{}] | {:>8} rounds | decoded {:>8} | shed {:>6} | \
                 backlog {:>6} | growth {:.4} vs {:.4} | {}",
                lattice.lattice_id,
                lattice.distance,
                lattice.decoder,
                lattice.counters.generated,
                lattice.counters.decoded,
                lattice.counters.dropped,
                lattice.final_backlog,
                lattice.comparison.measured_growth_per_round,
                lattice.comparison.predicted_growth_per_round,
                lattice.verdict()
            )?;
            write!(
                f,
                "\n      qos: policy {:?} ({}) | budget {} | shed rate {:.2}% | SLO {}",
                lattice.push_policy,
                if lattice.push_policy_overridden {
                    "per-lattice"
                } else {
                    "inherited"
                },
                match lattice.queue_budget {
                    Some(budget) => budget.to_string(),
                    None => "none".to_string(),
                },
                lattice.shed_rate() * 100.0,
                match (lattice.shed_slo, lattice.meets_shed_slo()) {
                    (Some(slo), Some(true)) => format!("{:.2}% MET", slo * 100.0),
                    (Some(slo), _) => format!("{:.2}% VIOLATED", slo * 100.0),
                    (None, _) => "none".to_string(),
                },
            )?;
            if let Some(residual) = &lattice.residual {
                write!(
                    f,
                    "\n      residual: decoded {}/{} failed ({:.2}%) | shed {}/{} failed \
                     ({:.2}%) | overall {:.3}% (logical {:.3}%)",
                    residual.decoded.failures(),
                    residual.decoded.rounds,
                    residual.decoded.failure_rate() * 100.0,
                    residual.shed.failures(),
                    residual.shed.rounds,
                    residual.shed.failure_rate() * 100.0,
                    residual.failure_rate() * 100.0,
                    residual.total().logical_error_rate() * 100.0,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The machine-wide view is derived, never stored: `snapshot()` and
    /// `backlog()` are the sums of the per-lattice and per-worker slices.
    #[test]
    fn counters_snapshot_and_backlog() {
        let counters = RuntimeCounters::new(2, 2);
        for (lattice, base) in counters.per_lattice.iter().zip([10u64, 100]) {
            lattice.generated.store(base, Ordering::Relaxed);
            lattice.enqueued.store(base - 1, Ordering::Relaxed);
            lattice.dropped.store(1, Ordering::Relaxed);
            lattice
                .backpressure_spins
                .store(base + 2, Ordering::Relaxed);
            lattice.decoded.store(base - 6, Ordering::Relaxed);
        }
        for (worker, base) in counters.per_worker.iter().zip([3u64, 30]) {
            worker.stall_polls.store(base, Ordering::Relaxed);
            worker.stolen.store(base + 1, Ordering::Relaxed);
            worker.batches.store(base + 2, Ordering::Relaxed);
        }
        counters.quarantined.store(1, Ordering::Relaxed);
        assert_eq!(
            counters.snapshot(),
            CounterSnapshot {
                generated: 110,
                enqueued: 108,
                dropped: 2,
                backpressure_spins: 114,
                decoded: 98,
                stall_polls: 33,
                stolen: 35,
                batches: 37,
                quarantined: 1,
            }
        );
        assert_eq!(counters.per_lattice_backlog(), vec![5, 5]);
        assert_eq!(counters.backlog(), 10);
    }

    /// The layout says who writes what: source-written fields on a lattice's
    /// first line, worker-written fields on its second, one line per worker.
    #[test]
    fn counters_are_laid_out_by_writer() {
        let offset_in = |base: &LatticeCounters, field: &AtomicU64| {
            field as *const AtomicU64 as usize - base as *const LatticeCounters as usize
        };
        let counters = RuntimeCounters::new(2, 2);
        let lattice = &counters.per_lattice[1];
        assert_eq!(lattice as *const LatticeCounters as usize % 64, 0);
        assert_eq!(std::mem::size_of::<LatticeCounters>(), 128);
        for source_field in [
            &lattice.generated,
            &lattice.enqueued,
            &lattice.dropped,
            &lattice.backpressure_spins,
        ] {
            assert!(offset_in(lattice, source_field) < 64);
        }
        assert!((64..128).contains(&offset_in(lattice, &lattice.decoded)));
        assert_eq!(std::mem::size_of::<WorkerCounters>(), 64);
        assert_eq!(std::mem::align_of::<WorkerCounters>(), 64);
    }

    #[test]
    fn per_lattice_counters_track_their_own_backlog() {
        let counters = RuntimeCounters::new(2, 1);
        counters.per_lattice[0]
            .generated
            .store(10, Ordering::Relaxed);
        counters.per_lattice[0].decoded.store(3, Ordering::Relaxed);
        counters.per_lattice[1]
            .generated
            .store(5, Ordering::Relaxed);
        counters.per_lattice[1].dropped.store(2, Ordering::Relaxed);
        assert_eq!(counters.per_lattice[0].backlog(), 7);
        assert_eq!(counters.per_lattice[1].backlog(), 3);
        let snap = counters.per_lattice[1].snapshot();
        assert_eq!(snap.generated, 5);
        assert_eq!(snap.dropped, 2);
        assert_eq!(snap.decoded, 0);
    }

    #[test]
    fn topology_counters_carry_per_worker_slices() {
        let counters = RuntimeCounters::new(2, 3);
        assert_eq!(counters.per_lattice.len(), 2);
        assert_eq!(counters.per_worker.len(), 3);
        counters.per_worker[1].batches.store(4, Ordering::Relaxed);
        counters.per_worker[1].stolen.store(2, Ordering::Relaxed);
        // `decoded` is the worker's sink's count, handed in at end of run.
        let snap = counters.per_worker[1].snapshot(12);
        assert_eq!(snap.decoded, 12);
        assert_eq!(snap.stolen, 2);
        assert!((snap.mean_batch_fill() - 3.0).abs() < 1e-12);
        assert_eq!(counters.per_worker[0].snapshot(0).mean_batch_fill(), 0.0);
    }

    #[test]
    fn histogram_backed_profile_matches_the_recorded_distribution() {
        let hist = crate::obs::LogHistogram::new();
        for v in [100u64, 100, 200, 400, 800] {
            hist.record(v);
        }
        let profile = LatencyProfile::from_histogram(&hist.snapshot());
        assert_eq!(profile.summary.count, 5);
        assert!((profile.summary.mean - 320.0).abs() < 1e-9, "mean is exact");
        assert_eq!(profile.summary.min, 100.0);
        assert_eq!(profile.summary.max, 800.0);
        // Quantiles are within one log-bucket of the exact order statistic.
        assert!(profile.quantiles.p50 >= 96.0 && profile.quantiles.p50 <= 224.0);
        assert!(profile.quantiles.p999 <= 800.0);
        let mass: f64 = profile.histogram_density.iter().sum();
        assert!((mass - 1.0).abs() < 1e-9);
        assert_eq!(
            profile.histogram_edges.len(),
            profile.histogram_density.len() + 1
        );
    }

    #[test]
    fn histogram_backed_profile_of_nothing_is_all_zero() {
        let profile = LatencyProfile::from_histogram(&crate::obs::HistogramSnapshot::empty());
        assert_eq!(profile.summary.count, 0);
        assert_eq!(profile.summary.mean, 0.0);
        assert!(profile.histogram_edges.is_empty());
        assert_eq!(profile.quantiles.p99, 0.0);
    }
}
