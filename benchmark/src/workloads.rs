//! The four workloads and their end-to-end measurement (`--trace 0`).
//!
//! `--seconds` buys a whole number of *repeats* ([`repeats`]); a repeat is a
//! fixed amount of work, so the number of runs, of timing samples and of
//! rounds attempted depends on `--seconds` alone, never on how fast the code
//! is.  One repeat (about four seconds) is
//!
//! * one **long run** of the engine — 0.6 M to 2 M rounds, so that what
//!   grows per round (a leak, telemetry, a filling journal) shows in
//!   `peak_rss_mib` and in the later windows.  `rounds_per_s` is read off
//!   its depth timeline in [`WINDOWS_PER_RUN`] windows ([`window_rates`]):
//!   no thread start, ring fill or drain inside a sample;
//! * a fixed number of short **probe runs** ([`Workload::probes_per_repeat`],
//!   10 to 25 ms each) of the machine as an open loop ([`paced`]), one
//!   `commit_p50_ns` sample apiece: a run's report has one latency
//!   histogram, so only a short run can be a sample the shared host left
//!   alone;
//! * [`SETUPS_PER_REPEAT`] set-ups, spread between the probes.
//!
//! The offline lifetime workload has no timeline, so its probes (short
//! two-thread calls) carry `rounds_per_s` too.  Each timing is the best of
//! its samples, with their quartiles printed beside it (see README,
//! "Noise").  All timing is taken from outside: wall time around
//! `StreamingEngine::run` or `run_sfq_lifetime`, plus the `RuntimeReport`
//! the engine already returns.

use crate::Outcome;
use nisqplus_core::DecoderVariant;
use nisqplus_decoders::{Decoder, DynDecoder, UnionFindDecoder};
use nisqplus_qec::error_model::PureDephasing;
use nisqplus_qec::frame::PauliFrame;
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::logical::{classify_both_sectors, LogicalState};
use nisqplus_qec::pauli::PauliString;
use nisqplus_runtime::{
    DepthSample, MachineConfig, PushPolicy, RuntimeConfig, RuntimeOutcome, RuntimeReport,
    StreamingEngine, SyndromeSource,
};
use nisqplus_sim::{run_sfq_lifetime, MonteCarloConfig, MonteCarloResult};
use std::time::Instant;

/// Lattices of the mixed machine (distances cycle 3, 5, 7).
const MIXED_LATTICES: usize = 96;
/// The lifetime workload's code distance and physical error rate.
pub const LIFETIME_DISTANCE: usize = 9;
/// Physical error rate of the lifetime workload (the paper's threshold
/// region, Fig. 10).
pub const LIFETIME_ERROR_RATE: f64 = 0.05;
/// Paced cadence at d = 5: ten paper cadences (4 µs, 250k rounds/s), about
/// 40 % of what one worker sustains on the reference host.
const PACED_CADENCE_CYCLES: usize = 10 * RuntimeConfig::PAPER_CADENCE_CYCLES;
/// Mean paced cadence of a lattice of the mixed machine: 500 µs, so that the
/// 96 lattices together offer 192k rounds/s — again about 40 % of what one
/// worker sustains.
const MIXED_PACED_CADENCE_CYCLES: usize = 1250 * RuntimeConfig::PAPER_CADENCE_CYCLES;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one d = 5 lattice, union-find, unpaced: worker-bound
    /// throughput of the lean streaming path.
    StreamD5Unpaced,
    /// Open loop, the same machine paced at 4 µs: the same layers seen as
    /// latency instead of throughput.
    StreamD5Paced,
    /// Closed loop, 96 lattices cycling d ∈ {3, 5, 7} with streaming
    /// residual classification: the per-lattice machinery.
    MachineMixedUnpaced,
    /// Offline Monte-Carlo of the SFQ mesh decoder at d = 9: `qec`, `core`
    /// and `sim` without the runtime.
    LifetimeMeshD9,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::StreamD5Unpaced,
        Workload::StreamD5Paced,
        Workload::MachineMixedUnpaced,
        Workload::LifetimeMeshD9,
    ];

    /// The workload's name in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamD5Unpaced => "stream_d5_unpaced",
            Workload::StreamD5Paced => "stream_d5_paced",
            Workload::MachineMixedUnpaced => "machine_mixed_unpaced",
            Workload::LifetimeMeshD9 => "lifetime_mesh_d9",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the three workloads that run the streaming engine.
    #[must_use]
    pub fn is_streaming(self) -> bool {
        self != Workload::LifetimeMeshD9
    }

    /// Probe runs per repeat — one to two seconds of them; a multiple of
    /// [`SETUPS_PER_REPEAT`].
    #[must_use]
    pub fn probes_per_repeat(self) -> u64 {
        match self {
            // A 96-lattice run spends ~10 ms assembling its report, so its
            // probes are longer and fewer.
            Workload::MachineMixedUnpaced => 48,
            _ => 96,
        }
    }
}

/// Seconds of `--seconds` that buy one repeat (a repeat takes about four).
const REPEAT_SECONDS: f64 = 5.0;

/// Repeats a measurement of `seconds` seconds makes: at least one.
#[must_use]
pub fn repeats(seconds: f64) -> u64 {
    (seconds / REPEAT_SECONDS).ceil().max(1.0) as u64
}

/// Set-ups per repeat, spread between its probes: a burst of repetitions
/// at one point of the measurement all meet the same disturbance.  About
/// 3 % of a repeat.
const SETUPS_PER_REPEAT: u64 = 12;

/// Windows a long run's depth timeline is cut into; each is a sample of
/// `rounds_per_s` (1.5 k to 5 k rounds, 6 to 7 ms).
const WINDOWS_PER_RUN: usize = 384;

/// Rounds a window must span for its rate to mean something: the worker
/// commits in batches of a few rounds, and the counters move with them.
const MIN_WINDOW_ROUNDS: u64 = 32;

/// What a number of rounds is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A repeat's long run (2.5 to 3 s).
    Run,
    /// One probe run: short on purpose, because the shared host disturbs in
    /// millisecond bursts and only a short run has a fair chance of running
    /// undisturbed.
    Probe,
    /// The lifetime workload's single-thread probe, timed for
    /// `commit_p50_ns` (~7 ms, so the thread's start is ~0.5 % of it).
    OneThread,
    /// The warm-up run that is part of set-up: enough to reach every lazy
    /// initialisation, short enough (~10 ms) that set-up time is
    /// construction and first use rather than steady-state decoding.
    WarmUp,
    /// The untimed output check.
    Check,
}

/// How much work a run does: full scale for measurement, a fraction for
/// `--smoke` and the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Every phase's rounds are divided by this.
    pub divisor: u64,
}

impl Scale {
    /// The measured configuration.
    pub const FULL: Scale = Scale { divisor: 1 };
    /// `--smoke`: 1/50 of the work, same checks.
    pub const SMOKE: Scale = Scale { divisor: 50 };

    /// Rounds (trials, on the lifetime workload) of one `phase` of
    /// `workload` at this scale; at least one per lattice.
    #[must_use]
    pub fn rounds(self, workload: Workload, phase: Phase) -> u64 {
        let lattices = MIXED_LATTICES as u64;
        let full = match (phase, workload) {
            (Phase::Run, Workload::StreamD5Unpaced) => 2_000_000,
            (Phase::Run, Workload::StreamD5Paced) => 625_000,
            (Phase::Run, Workload::MachineMixedUnpaced) => lattices * 12_000,
            (Phase::Run, Workload::LifetimeMeshD9) => 300_000,
            (Phase::Probe, Workload::StreamD5Unpaced | Workload::StreamD5Paced) => 2_500,
            (Phase::Probe, Workload::MachineMixedUnpaced) => lattices * 50,
            (Phase::Probe, Workload::LifetimeMeshD9) => 5_000,
            (Phase::OneThread, _) => 1_000,
            (Phase::WarmUp, Workload::LifetimeMeshD9) => 2_000,
            (Phase::WarmUp, _) => 5_000,
            (Phase::Check, Workload::LifetimeMeshD9) => 20_000,
            (Phase::Check, _) => 50_000,
        };
        (full / self.divisor).max(lattices)
    }
}

/// Threads the benchmark keeps busy: the source plus one worker, or two
/// Monte-Carlo threads — never more than the host has.
#[must_use]
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The decoder every streaming workload serves with.
#[must_use]
pub fn union_find() -> DynDecoder {
    Box::new(UnionFindDecoder::new())
}

/// The machine a streaming workload runs — as its long run runs it: only
/// `stream_d5_paced` is paced — streaming `rounds_total` rounds (split evenly
/// across the lattices of the mixed machine).
///
/// # Panics
///
/// Panics if `workload` is the offline lifetime workload.
#[must_use]
pub fn machine(workload: Workload, seed: u64, rounds_total: u64) -> MachineConfig {
    let mut config = match workload {
        Workload::StreamD5Unpaced | Workload::StreamD5Paced => {
            // Paper-shaped defaults: pure dephasing at p = 0.03.
            let mut single = RuntimeConfig::new(5);
            single.seed = seed;
            single.rounds = rounds_total;
            single.queue_capacity = 1024;
            let single = MachineConfig::from(single);
            if workload == Workload::StreamD5Paced {
                paced(single)
            } else {
                unpaced(single)
            }
        }
        Workload::MachineMixedUnpaced => {
            let distances: Vec<usize> = (0..MIXED_LATTICES).map(|i| [3, 5, 7][i % 3]).collect();
            let mut mixed = MachineConfig::new(&distances, seed);
            for spec in &mut mixed.lattices {
                spec.rounds = (rounds_total / MIXED_LATTICES as u64).max(1);
                spec.cadence_cycles = 0;
            }
            mixed.analyze_residuals = true;
            mixed.track_shed_rounds = false;
            mixed.correction_cap = Some(4096);
            mixed.queue_capacity = 4096;
            mixed
        }
        Workload::LifetimeMeshD9 => panic!("the lifetime workload has no streaming machine"),
    };
    // The calling thread is the source; with one worker the run keeps
    // `threads()` cores busy.  Every lane blocks: Drop lanes shed a
    // host-dependent number of rounds, which would make `failed` noise.
    config.workers = 1;
    config.push_policy = PushPolicy::Block;
    // No sampler thread: it would be a third busy thread on a 2-core host.
    config.obs.snapshot_cadence_us = 0;
    config
}

/// `config` as an open loop: every lattice paced so that the machine is
/// offered about 40 % of what it sustains.  This is how every streaming
/// workload's probes run: emission-to-commit time under a closed loop is the
/// wait in a full ring (Little's law, `queue_capacity / rounds_per_s`), not
/// a latency anybody would set a limit on.
///
/// The lattices of the mixed machine get cadences spread over ±10 % around
/// [`MIXED_PACED_CADENCE_CYCLES`], so that after a few rounds their arrivals
/// interleave.  With one cadence for all, 96 rounds are due at the same
/// instant every period and the median latency is a race between the
/// source's and the worker's time per round inside the burst: 6 µs or 36 µs
/// depending on which thread the host slowed.
#[must_use]
pub fn paced(mut config: MachineConfig) -> MachineConfig {
    let lattices = config.lattices.len();
    for (id, spec) in config.lattices.iter_mut().enumerate() {
        spec.cadence_cycles = if lattices == 1 {
            PACED_CADENCE_CYCLES
        } else {
            // 37 is coprime to 96: neighbouring lattices get distant cadences.
            let step = id * 37 % lattices;
            MIXED_PACED_CADENCE_CYCLES * 9 / 10 + MIXED_PACED_CADENCE_CYCLES * step / (5 * lattices)
        };
    }
    config
}

/// `config` as a closed loop: no lattice paced.
#[must_use]
pub fn unpaced(mut config: MachineConfig) -> MachineConfig {
    for spec in &mut config.lattices {
        spec.cadence_cycles = 0;
    }
    config
}

/// What one streaming run looked like from outside.
#[derive(Debug)]
pub struct StreamRun {
    /// Decoded rounds per second of wall time around `StreamingEngine::run`.
    pub rounds_per_s: f64,
    /// Rounds generated.
    pub generated: u64,
    /// Rounds dropped, quarantined or lost.
    pub failed: u64,
    /// Σ residual failures over all lattices (0 unless residuals are on).
    pub residual_failures: u64,
    /// Broken book-keeping invariants, empty when the run is sound.
    pub violations: Vec<String>,
}

/// Runs `config` once and audits the books of the outcome (returned too:
/// its report is what only the engine can know).
///
/// # Panics
///
/// Panics if `config` is not a valid machine (a bug in [`machine`]).
#[must_use]
pub fn stream_run(config: MachineConfig) -> (StreamRun, RuntimeOutcome) {
    let engine = StreamingEngine::with_machine(config).expect("benchmark machines are valid");
    let started = Instant::now();
    let outcome = engine.run(&union_find);
    let wall_s = started.elapsed().as_secs_f64();
    let report = &outcome.report;
    let c = report.counters;
    let lost = c.generated.saturating_sub(c.decoded + c.dropped);
    let mut violations = Vec::new();
    if c.generated != c.decoded + c.dropped {
        violations.push(format!(
            "generated {} != decoded {} + dropped {}",
            c.generated, c.decoded, c.dropped
        ));
    }
    let recorded: u64 = outcome.frames.iter().map(|f| f.total_recorded()).sum();
    if recorded != c.decoded {
        violations.push(format!(
            "frames hold {recorded} rounds, decoded {}",
            c.decoded
        ));
    }
    let sum = |pick: fn(&nisqplus_runtime::LatticeCounterSnapshot) -> u64| -> u64 {
        report.lattices.iter().map(|l| pick(&l.counters)).sum()
    };
    let per_lattice = (sum(|l| l.generated), sum(|l| l.decoded), sum(|l| l.dropped));
    if per_lattice != (c.generated, c.decoded, c.dropped) {
        violations.push(format!(
            "per-lattice sums {per_lattice:?} != aggregate ({}, {}, {})",
            c.generated, c.decoded, c.dropped
        ));
    }
    let residual_failures = report
        .lattices
        .iter()
        .filter_map(|l| l.residual)
        .map(|r| r.total().failures())
        .sum();
    let block = StreamRun {
        rounds_per_s: c.decoded as f64 / wall_s,
        generated: c.generated,
        failed: c.dropped + c.quarantined + lost,
        residual_failures,
        violations,
    };
    (block, outcome)
}

/// `rounds_per_s` samples of one run, read off the depth timeline the
/// engine's report already carries — a few thousand `(rounds emitted,
/// backlog, engine clock)` samples a run: the rate at which rounds were
/// decoded (emitted minus backlog; every lane blocks, so none is dropped) in
/// each of [`WINDOWS_PER_RUN`] equal windows, leaving out the first and last
/// 64th (ring fill and drain).  A window is short enough for the shared
/// host to leave some alone, and the engine is not restarted between them.
/// Falls back to the whole run's rate when the run is too short (`--smoke`,
/// the unit tests) for a window to span [`MIN_WINDOW_ROUNDS`] rounds.
#[must_use]
pub fn window_rates(report: &RuntimeReport, whole_run: f64) -> Vec<f64> {
    let timeline = &report.depth_timeline;
    let skip = timeline.len() / 64 + 1;
    let steady = timeline
        .get(skip..timeline.len().saturating_sub(skip))
        .unwrap_or(&[]);
    let step = steady.len().saturating_sub(1) / WINDOWS_PER_RUN;
    if step == 0 || steady[step].round - steady[0].round < MIN_WINDOW_ROUNDS {
        return vec![whole_run];
    }
    let decoded = |sample: &DepthSample| sample.round as f64 - sample.backlog as f64;
    (0..WINDOWS_PER_RUN)
        .map(|window| (&steady[window * step], &steady[(window + 1) * step]))
        .filter(|(from, to)| to.elapsed_ns > from.elapsed_ns)
        .map(|(from, to)| {
            (decoded(to) - decoded(from)) * 1e9 / (to.elapsed_ns - from.elapsed_ns) as f64
        })
        .collect()
}

/// The simulated statistics of one lifetime run; exact per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifetimeStats {
    /// Trials simulated.
    pub trials: u64,
    /// Trials ending in a logical error or invalid correction.
    pub failures: u64,
    /// Detection events over all trials.
    pub total_defects: u64,
    /// Σ mesh cycles over all trials.
    pub cycles_sum: u64,
    /// The slowest trial's mesh cycles.
    pub cycles_max: u64,
    /// Trials that reported a cycle count.
    pub cycle_samples: u64,
}

impl LifetimeStats {
    /// Folds a Monte-Carlo result into its order-independent integers.
    #[must_use]
    pub fn of(result: &MonteCarloResult) -> Self {
        LifetimeStats {
            trials: result.trials as u64,
            failures: result.failures as u64,
            total_defects: result.total_defects as u64,
            cycles_sum: result.cycle_samples.iter().map(|&c| c as u64).sum(),
            cycles_max: result.cycle_samples.iter().copied().max().unwrap_or(0) as u64,
            cycle_samples: result.cycle_samples.len() as u64,
        }
    }
}

/// Calls `run_sfq_lifetime` once on `threads` threads: `(result, wall
/// seconds)`.
///
/// # Panics
///
/// Panics if the workload's fixed error rate were invalid.
#[must_use]
pub fn lifetime_call(
    lattice: &Lattice,
    seed: u64,
    trials: u64,
    threads: usize,
) -> (MonteCarloResult, f64) {
    let model = PureDephasing::new(LIFETIME_ERROR_RATE).expect("valid probability");
    let config = MonteCarloConfig::new(trials as usize)
        .with_seed(seed)
        .with_threads(threads);
    let started = Instant::now();
    let result = run_sfq_lifetime(lattice, &model, &config, DecoderVariant::Final);
    let wall_s = started.elapsed().as_secs_f64();
    (result, wall_s)
}

/// The samples of each end-to-end timing.
#[derive(Default)]
struct Timings {
    setup_s: Vec<f64>,
    rounds_per_s: Vec<f64>,
    commit_p50_ns: Vec<f64>,
    /// Rounds per second of wall time around each whole long run: what the
    /// best window leaves out (thread start, ring fill and drain, report
    /// assembly, disturbed windows).  Printed, not gated.
    long_run_rounds_per_s: Vec<f64>,
}

impl Timings {
    /// Whether a set-up is due before probe `probe` of a repeat.
    fn setup_due(workload: Workload, probe: u64) -> bool {
        probe % (workload.probes_per_repeat() / SETUPS_PER_REPEAT) == 0
    }

    /// Reports every timing's best sample and the peak resident set.
    fn report(self, workload: Workload, outcome: &mut Outcome, peak_rss_mib: f64) {
        outcome.note(format!(
            "whole long runs: median {:.1} rounds/s of wall time (n {})",
            crate::stats::median(&self.long_run_rounds_per_s),
            self.long_run_rounds_per_s.len()
        ));
        outcome.best_of("setup_s", self.setup_s, false);
        if workload == Workload::StreamD5Paced {
            // An open loop gets through what its schedule offers; its
            // fastest window is the worker catching up after a stall.
            outcome.median_of("rounds_per_s", self.rounds_per_s);
        } else {
            outcome.best_of("rounds_per_s", self.rounds_per_s, true);
        }
        outcome.best_of("commit_p50_ns", self.commit_p50_ns, false);
        outcome.value("peak_rss_mib", peak_rss_mib);
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mib needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The untimed output check of a streaming workload: a recorded run must
/// equal an offline `SyndromeSource` + `decode_into` loop byte for byte —
/// every correction, every merged frame and, where residuals are
/// classified, every lattice's failure count.  Returns `(rounds checked,
/// rounds or frames that differ)`.
fn check_stream(
    workload: Workload,
    seed: u64,
    scale: Scale,
    notes: &mut Vec<String>,
) -> (u64, u64) {
    let mut config = machine(workload, seed, scale.rounds(workload, Phase::Check));
    config.record_corrections = true;
    config.correction_cap = None;
    let classify = config.analyze_residuals;
    let specs = config.lattices.clone();
    let (block, outcome) = stream_run(config);
    let mut wrong = block.failed + block.violations.len() as u64;
    notes.extend(block.violations.iter().map(|v| format!("check run: {v}")));

    let engine_set = outcome.report.lattices.iter().zip(&outcome.frames);
    let mut recorded = outcome.corrections.iter();
    for (id, ((lattice_report, frame), spec)) in engine_set.zip(&specs).enumerate() {
        let lattice = std::sync::Arc::new(Lattice::new(spec.distance).expect("valid distance"));
        let mut source =
            SyndromeSource::new(lattice.clone(), spec.noise, spec.seed).expect("valid noise");
        let mut decoder = UnionFindDecoder::new();
        decoder.prepare(&lattice);
        let mut expected_frame = PauliFrame::new(lattice.num_data());
        let mut x = PauliString::identity(lattice.num_data());
        let mut z = PauliString::identity(lattice.num_data());
        let mut failures = 0u64;
        for round in 0..spec.rounds {
            let (error, syndrome) = source.next_error_and_syndrome();
            decoder.decode_into(&lattice, &syndrome, Sector::X, &mut x);
            decoder.decode_into(&lattice, &syndrome, Sector::Z, &mut z);
            x.compose_with(&z);
            expected_frame.record(&x);
            let same = recorded.next().is_some_and(|c| {
                c.lattice_id as usize == id && c.round == round && c.correction == x
            });
            wrong += u64::from(!same);
            if classify {
                let states = classify_both_sectors(&lattice, &error, &x);
                failures += u64::from(states != (LogicalState::Success, LogicalState::Success));
            }
        }
        if frame.merged() != *expected_frame.as_pauli_string() {
            notes.push(format!(
                "lattice {id}: merged frame differs from the offline loop"
            ));
            wrong += 1;
        }
        let reported = lattice_report.residual.map(|r| r.total().failures());
        if classify && reported != Some(failures) {
            notes.push(format!(
                "lattice {id}: residual failures {reported:?}, offline loop counts {failures}"
            ));
            wrong += 1;
        }
    }
    wrong += recorded.count() as u64;
    (block.generated, wrong)
}

/// Measures one streaming workload end to end.
fn run_streaming(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut timings = Timings::default();
    // Same seed, same stream: the classified residuals of every run of a
    // phase repeat exactly.
    let mut residual_failures = [None; 2];
    let mut timed_run = |phase: Phase, outcome: &mut Outcome| {
        let config = machine(workload, seed, scale.rounds(workload, phase));
        let (run, output) = stream_run(if phase == Phase::Probe {
            paced(config)
        } else {
            config
        });
        outcome.absorb_run("timed run", &run);
        let first = &mut residual_failures[usize::from(phase == Phase::Probe)];
        if *first.get_or_insert(run.residual_failures) != run.residual_failures {
            outcome.fail(format!(
                "residual failures changed between same-seed runs: {} vs {first:?}",
                run.residual_failures
            ));
        }
        (run, output)
    };
    for _ in 0..repeats(seconds) {
        for probe in 0..workload.probes_per_repeat() {
            if Timings::setup_due(workload, probe) {
                // Set-up: engine construction plus one unpaced warm-up run,
                // so the cost reflects the code and not the paced schedule.
                let setup_started = Instant::now();
                let warmup = machine(workload, seed, scale.rounds(workload, Phase::WarmUp));
                let (warmup, _) = stream_run(unpaced(warmup));
                timings.setup_s.push(setup_started.elapsed().as_secs_f64());
                outcome.absorb_run("warm-up", &warmup);
            }
            // Emission to committed correction of a paced probe.
            let (_, output) = timed_run(Phase::Probe, &mut outcome);
            timings
                .commit_p50_ns
                .push(output.report.total_latency.quantiles.p50);
        }
        let (run, output) = timed_run(Phase::Run, &mut outcome);
        timings
            .rounds_per_s
            .extend(window_rates(&output.report, run.rounds_per_s));
        timings.long_run_rounds_per_s.push(run.rounds_per_s);
    }
    // Read before the output check, which keeps every correction in memory.
    let peak_rss = peak_rss_mib()?;

    let mut notes = Vec::new();
    let (checked, wrong) = check_stream(workload, seed, scale, &mut notes);
    outcome.attempted += checked;
    outcome.failed += wrong;
    for note in notes {
        outcome.fail(note);
    }

    timings.report(workload, &mut outcome, peak_rss);
    Ok(outcome)
}

/// Measures the offline lifetime workload end to end.
fn run_lifetime(seed: u64, seconds: f64, scale: Scale) -> Result<Outcome, String> {
    let workload = Workload::LifetimeMeshD9;
    let mut outcome = Outcome::default();
    let mut timings = Timings::default();
    let mut lattice = Lattice::new(LIFETIME_DISTANCE).expect("valid distance");
    // Same seed, same statistics: every call of a phase must agree with the
    // first of that phase.
    let mut firsts: Vec<(Phase, LifetimeStats)> = Vec::new();
    // Calls `run_sfq_lifetime` for one `phase` and audits the result;
    // returns `(trials, wall seconds)`.
    let mut timed_call =
        |phase: Phase, threads: usize, lattice: &Lattice, outcome: &mut Outcome| {
            let trials = scale.rounds(workload, phase);
            let (result, wall_s) = lifetime_call(lattice, seed, trials, threads);
            let stats = LifetimeStats::of(&result);
            match firsts.iter().find(|(p, _)| *p == phase) {
                None => firsts.push((phase, stats)),
                Some((_, first)) if *first != stats => {
                    outcome.fail(format!("same-seed calls differ: {stats:?} vs {first:?}"));
                }
                Some(_) => {}
            }
            if phase != Phase::WarmUp {
                outcome.attempted += trials;
                // A trial that did not complete reports no cycle count.
                outcome.failed += trials - stats.cycle_samples.min(trials);
            }
            (trials as f64, wall_s)
        };
    for _ in 0..repeats(seconds) {
        for probe in 0..workload.probes_per_repeat() {
            if Timings::setup_due(workload, probe) {
                // Set-up: the lattice plus one short warm-up call.
                let setup_started = Instant::now();
                lattice = Lattice::new(LIFETIME_DISTANCE).expect("valid distance");
                timed_call(Phase::WarmUp, threads(), &lattice, &mut outcome);
                timings.setup_s.push(setup_started.elapsed().as_secs_f64());
            }
            let (trials, wall_s) = timed_call(Phase::Probe, threads(), &lattice, &mut outcome);
            timings.rounds_per_s.push(trials / wall_s);
            // The offline loop has no queue: a trial's error is sampled,
            // decoded and classified back to back on one thread, so the time
            // from its creation to its committed result is the loop's time
            // per trial.  Timed on a call of its own, on one thread — not
            // derived from `rounds_per_s`, which times `threads()` threads
            // sharing the host.
            let (trials, wall_s) = timed_call(Phase::OneThread, 1, &lattice, &mut outcome);
            timings.commit_p50_ns.push(wall_s * 1e9 / trials);
        }
        // The long call: its result vectors are what grows per trial.
        let (trials, wall_s) = timed_call(Phase::Run, threads(), &lattice, &mut outcome);
        timings.long_run_rounds_per_s.push(trials / wall_s);
    }
    let peak_rss = peak_rss_mib()?;

    // Output check: same seed, same statistics; next seed, different ones.
    let check_trials = scale.rounds(workload, Phase::Check);
    outcome.attempted += 3 * check_trials;
    let stats_of =
        |seed| LifetimeStats::of(&lifetime_call(&lattice, seed, check_trials, threads()).0);
    let (once, again, other) = (
        stats_of(seed),
        stats_of(seed),
        stats_of(seed.wrapping_add(1)),
    );
    if once != again {
        outcome.failed += check_trials;
        outcome.fail(format!("same-seed runs differ: {once:?} vs {again:?}"));
    }
    if other == again {
        outcome.failed += check_trials;
        outcome.fail(format!(
            "seed {seed} and seed + 1 give identical statistics"
        ));
    }

    timings.report(workload, &mut outcome, peak_rss);
    Ok(outcome)
}

/// Measures [`repeats`]`(seconds)` repeats of `workload` end to end.
pub fn run(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> Result<Outcome, String> {
    if workload.is_streaming() {
        run_streaming(workload, seed, seconds, scale)
    } else {
        run_lifetime(seed, seconds, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_buy_whole_repeats() {
        assert_eq!(repeats(0.1), 1);
        assert_eq!(repeats(4.0), 1);
        assert_eq!(repeats(5.0), 1);
        assert_eq!(repeats(25.0), 5);
        assert_eq!(repeats(25.1), 6);
        for workload in Workload::ALL {
            assert_eq!(workload.probes_per_repeat() % SETUPS_PER_REPEAT, 0);
        }
    }

    #[test]
    fn a_run_is_cut_into_a_fixed_number_of_windows() {
        let workload = Workload::StreamD5Unpaced;
        let (run, output) = stream_run(machine(workload, 5, 40_000));
        let rates = window_rates(&output.report, run.rounds_per_s);
        assert_eq!(rates.len(), WINDOWS_PER_RUN);
        // A window in which the worker was stalled reads 0; none is negative.
        assert!(rates.iter().all(|rate| rate.is_finite() && *rate >= 0.0));
        assert!(rates.iter().any(|rate| *rate > 0.0));

        // Too short for a window to mean something: the whole run's rate
        // stands in.
        let (run, output) = stream_run(machine(workload, 5, 4_000));
        assert_eq!(
            window_rates(&output.report, run.rounds_per_s),
            [run.rounds_per_s]
        );
    }

    #[test]
    fn probes_are_paced_and_warm_ups_are_not() {
        for workload in Workload::ALL.into_iter().filter(|w| w.is_streaming()) {
            let config = machine(workload, 1, 960);
            assert!(paced(config.clone())
                .lattices
                .iter()
                .all(|spec| spec.cadence_cycles > 0));
            assert!(unpaced(config.clone())
                .lattices
                .iter()
                .all(|spec| spec.cadence_cycles == 0));
            let is_paced = config.lattices.iter().all(|spec| spec.cadence_cycles > 0);
            assert_eq!(is_paced, workload == Workload::StreamD5Paced);
        }
    }
}
