//! Fault properties: hostile trace files and crash recovery.
//!
//! Two property families pin down the robustness contract:
//!
//! * **Hostile bytes** — the one place the runtime reads bytes it did not
//!   write itself is a trace file.  Every single-bit flip of one is refused
//!   with a typed error, or reads back as a trace that differs from the
//!   written one unless the flipped text is the same JSON document.  Never
//!   a panic.  (The records that travel between
//!   the runtime's own threads carry no checksum: nothing outside the
//!   process touches them.)
//! * **Recovery determinism** — for any (seed, crash point, worker count),
//!   a decoder that panics mid-run — the one way a worker crashes — loses
//!   exactly the round it panicked on, and the books say so: that round is
//!   booked shed and named by the journal's `worker_crash`, every other
//!   per-round correction is byte-identical to the same run without the
//!   panic, and the merged Pauli frame differs from that run's by the lost
//!   round's correction alone.  Only `Crashes` objects.  A factory that
//!   panics is not a crash: it panics `run` itself, before any round.

use nisqplus_decoders::traits::DecoderFactory;
use nisqplus_decoders::{Decoder, DynDecoder, GreedyMatchingDecoder};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::logical::{classify_shed_round, ResidualTally};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use nisqplus_runtime::report::parse;
use nisqplus_runtime::{
    golden_summary, EventKind, InterleavedSource, LatticeSpec, MachineConfig, NoiseSpec,
    PushPolicy, RuntimeConfig, RuntimeOutcome, StreamingEngine, SyndromeSource, SyndromeTrace,
    Violation, Violations,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every single-bit flip of a small golden trace file — a two-lattice
/// machine's stream with the pinned summary of its live run, as `write_to`
/// writes it — is refused (not UTF-8, not JSON, or not a valid trace), or
/// reads back as a trace that differs from the written one exactly when the
/// flipped text is a different JSON document.
#[test]
fn every_single_bit_flip_of_a_trace_file_is_refused_or_read_as_changed() {
    let mut config = MachineConfig::new(&[3, 5], 9);
    config.lattices = vec![
        LatticeSpec::new(3).with_rounds(3).with_seed(9),
        LatticeSpec::new(5).with_rounds(2).with_seed(10),
    ];
    config.analyze_residuals = true;
    let engine = StreamingEngine::with_machine(config).expect("valid config");
    let outcome = engine.run(&|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
    outcome
        .check_invariants()
        .expect("the live run's books hold");
    let set = engine.lattice_set();
    let source = InterleavedSource::new(set, &engine.config().cycle_time).expect("valid source");
    let written = SyndromeTrace::drain(set, source).with_golden(golden_summary(&outcome));
    let text = written.to_json().to_pretty();
    let original = parse(&text);
    let read = |bytes: &[u8]| -> Option<SyndromeTrace> {
        let doc = parse(std::str::from_utf8(bytes).ok()?).ok()?;
        SyndromeTrace::from_json(&doc).ok()
    };
    assert_eq!(read(text.as_bytes()).as_ref(), Some(&written));
    let (mut refused, mut changed) = (0u32, 0u32);
    let mut bytes = text.into_bytes();
    for at in 0..bytes.len() {
        for bit in 0..8 {
            bytes[at] ^= 1 << bit;
            match read(&bytes) {
                None => refused += 1,
                Some(trace) => {
                    // Only a flip that keeps the document — a last digit of
                    // a float that rounds to the same double — reads back
                    // as the written trace.
                    let same_document = parse(std::str::from_utf8(&bytes).unwrap()) == original;
                    assert_eq!(
                        trace == written,
                        same_document,
                        "byte {at} bit {bit}: {:?}",
                        String::from_utf8_lossy(&bytes[at.saturating_sub(24)..at + 8])
                    );
                    changed += u32::from(!same_document);
                }
            }
            bytes[at] ^= 1 << bit;
        }
    }
    assert!(
        refused > 0 && changed > 0,
        "{refused} refused, {changed} changed"
    );
}

/// The crash machine's channel.
const NOISE: NoiseSpec = NoiseSpec::Depolarizing { p: 0.04 };

/// A 120-round single-lattice Block machine; un-paced so the property is
/// about data integrity, not timing.
fn crash_machine(seed: u64, workers: usize) -> MachineConfig {
    let mut config = RuntimeConfig::new(3);
    config.noise = NOISE;
    config.seed = seed;
    config.rounds = 120;
    config.workers = workers;
    config.cadence_cycles = 0;
    config.queue_capacity = 128;
    config.push_policy = PushPolicy::Block;
    config.record_corrections = true;
    MachineConfig::from(config)
}

/// Greedy matching whose instances share one count of sector decodes and
/// panic — a decoder bug, caught by the worker's supervisor — on decode
/// `nth` (0-based) of it.  Each round makes two decodes (X, then Z), so
/// decode `nth` is a sector of the `nth / 2`-th round served.
struct PanicsOnDecode {
    inner: GreedyMatchingDecoder,
    decodes: Arc<AtomicU64>,
    nth: u64,
}

impl Decoder for PanicsOnDecode {
    fn name(&self) -> &str {
        "panics-on-decode"
    }

    fn decode_into(
        &mut self,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
        out: &mut PauliString,
    ) {
        if self.decodes.fetch_add(1, Ordering::Relaxed) == self.nth {
            panic!("decoder bug on decode {}", self.nth);
        }
        self.inner.decode_into(lattice, syndrome, sector, out);
    }
}

/// A factory of [`PanicsOnDecode`] instances sharing one count: the panic
/// fires once per run, whichever worker — or restarted worker — makes
/// decode `nth`.
fn panics_on_decode(nth: u64) -> impl DecoderFactory {
    let decodes = Arc::new(AtomicU64::new(0));
    move || {
        Box::new(PanicsOnDecode {
            inner: GreedyMatchingDecoder::new(),
            decodes: Arc::clone(&decodes),
            nth,
        }) as DynDecoder
    }
}

fn run_machine(machine: MachineConfig, factory: &dyn DecoderFactory) -> RuntimeOutcome {
    let engine = StreamingEngine::with_machine(machine).expect("valid config");
    engine.run(factory)
}

fn greedy() -> impl DecoderFactory {
    || Box::new(GreedyMatchingDecoder::new()) as DynDecoder
}

/// The one violation a run with `crashes` decoder panics reports.
fn only_crashes(crashes: u64) -> Result<(), Violations> {
    Err(Violations(vec![Violation::Crashes {
        crashed: crashes,
        restarted: crashes,
    }]))
}

/// Runs the seeded machine with a decoder that panics on decode `crash_at`,
/// and again panic-free, and checks what recovery guarantees: only
/// `Crashes` objects; the lost round, read from the journal, is booked
/// dropped; every other correction is byte-identical to the panic-free
/// run's; and the merged frame is the panic-free run's XOR the lost round's
/// correction there.  Returns the lost round.
fn check_crash_recovery(seed: u64, crash_at: u64, workers: usize) -> Result<u64, TestCaseError> {
    let crashed = run_machine(crash_machine(seed, workers), &panics_on_decode(crash_at));
    let baseline = run_machine(crash_machine(seed, workers), &greedy());
    prop_assert_eq!(baseline.check_invariants(), Ok(()));

    // 120 rounds make 240 decodes, so the panic fires whatever the workers'
    // schedule; which round it strikes is theirs to decide.
    prop_assert_eq!(crashed.check_invariants(), only_crashes(1));
    let crash = (crashed.report.journal.recent.iter())
        .find(|event| event.kind == EventKind::WorkerCrash)
        .expect("the crash is journaled");
    prop_assert_eq!(crash.lattice_id, Some(0));
    let lost = crash.value;
    prop_assert_eq!(crashed.report.counters.dropped, 1);
    let mut kept = baseline.corrections.clone();
    let at = kept
        .iter()
        .position(|c| c.round == lost)
        .expect("the baseline decoded every round");
    let lost_correction = kept.remove(at).correction;
    prop_assert_eq!(
        &crashed.corrections,
        &kept,
        "every other per-round correction must be byte-identical across the crash"
    );
    prop_assert_eq!(
        crashed.frame().merged(),
        baseline.frame().merged().composed(&lost_correction),
        "the merged frames must differ by the lost round's correction alone"
    );
    Ok(lost)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Crash recovery is exact for any (seed, crash point, worker count):
    /// the run whose decoder panics mid-stream loses the one round it
    /// panicked on, books it, and commits every other round's correction
    /// byte-identically to the panic-free run.
    #[test]
    fn recovery_is_deterministic_for_any_seed_and_crash_round(
        seed in 0u64..1_000,
        crash_at in 0u64..60,
        workers in 1usize..4,
    ) {
        check_crash_recovery(seed, crash_at, workers)?;
    }
}

/// With one worker no other worker claims a round: the rounds are decoded
/// in order, so the panic on decode `crash_at` strikes round `crash_at / 2`
/// — the first, a middle and the last sector decode of a round alike.
#[test]
fn a_lone_worker_always_reaches_its_crash_round() {
    for (seed, crash_at) in [(11, 0), (12, 35), (13, 58)] {
        let lost = check_crash_recovery(seed, crash_at, 1).expect("recovery holds");
        assert_eq!(
            lost,
            crash_at / 2,
            "seed {seed}, crash at decode {crash_at}"
        );
    }
}

/// A burst episode belongs to the lattice's noise schedule, not to a crash:
/// a burst (two re-tunes) beside a planned decoder panic journals its two
/// edges as noise changes and the panic as one crash, and every book but
/// `Crashes` holds.
#[test]
fn spec_burst_beside_a_crash_plan_reconciles() {
    let mut machine = crash_machine(7, 1);
    let hot = NoiseSpec::Depolarizing { p: 0.04 * 8.0 };
    machine.lattices[0].retunes = vec![(20, hot), (30, machine.lattices[0].noise)];
    let outcome = run_machine(machine, &panics_on_decode(100));
    assert_eq!(outcome.check_invariants(), only_crashes(1));
    let report = &outcome.report;
    assert_eq!(report.journal.counts[EventKind::WorkerCrash], 1);
    assert_eq!(report.journal.counts[EventKind::NoiseChange], 2);
}

/// A decoder panic is a bug, and the report says so — but it is the only
/// thing the report objects to.  The third decode strikes one round (with
/// one worker, the second round's first sector): that round is lost and
/// booked shed, and the restarted worker resumes the batch after it, so the
/// workers decode the other 119.  `Conservation`, `ShedAccounting`, `Frame`
/// and, with residuals on, `ResidualCoverage` all hold; `Crashes` alone
/// names the bug.  The fault line reads the journal.  At 1, 2 and 3
/// workers, residuals off and on.
#[test]
fn an_uninjected_decoder_panic_prints_an_unreconciled_fault_line() {
    for workers in 1..=3 {
        for residuals in [false, true] {
            let mut machine = crash_machine(3, workers);
            machine.analyze_residuals = residuals;
            let outcome = run_machine(machine, &panics_on_decode(2));
            let leg = format!("{workers} worker(s), residuals {residuals}");
            assert_eq!(outcome.check_invariants(), only_crashes(1), "{leg}");
            let report = &outcome.report;
            let counters = report.lattices[0].counters;
            assert_eq!((counters.decoded, counters.dropped), (119, 1), "{leg}");
            if let Some(residual) = report.lattices[0].residual {
                // The lost round's residual is its seeded error, classified
                // as a shed round's, once.
                let lost = (report.journal.recent.iter())
                    .find(|event| event.kind == EventKind::WorkerCrash)
                    .expect("the crash is journaled")
                    .value;
                let lattice = Arc::new(Lattice::new(3).unwrap());
                let mut source = SyndromeSource::new(lattice.clone(), NOISE, 3).unwrap();
                let error = (0..=lost)
                    .map(|_| source.next_error_and_syndrome().0)
                    .last();
                let (x, z) = classify_shed_round(&lattice, &error.unwrap());
                let mut shed = ResidualTally::default();
                shed.record_states(x, z);
                assert_eq!(residual.shed, shed, "{leg}");
                assert_eq!(residual.decoded.rounds, 119, "{leg}");
            }
            let broken = report.check_invariants().unwrap_err();
            let text = report.to_string();
            let lines = [
                "  fault: 1 crash(es)/1 restart(s) | 0 watchdog trip(s)\n",
                &format!("  invariants: {broken}\n"),
            ];
            assert!(
                lines.iter().all(|line| text.contains(line)),
                "{leg}: {text}"
            );
        }
    }
}

/// A factory whose `build` always panics is a bug in the caller's code, not
/// a worker crash: `run` builds a decode stage on the calling thread before
/// any round is generated, so the factory's own panic ends `run` there — at 1 and 2 workers, with more rounds than ring slots, so a
/// run that spawned its workers first would fill the ring behind them.
#[test]
fn a_factory_that_always_panics_panics_run_before_any_round() {
    for workers in [1, 2] {
        let mut machine = crash_machine(5, workers);
        machine.queue_capacity = 16;
        let engine = StreamingEngine::with_machine(machine).expect("valid config");
        let factory = || -> DynDecoder { panic!("factory bug") };
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(&factory)))
                .expect_err("a factory that panics must panic the run");
        assert_eq!(
            panicked.downcast_ref::<&str>(),
            Some(&"factory bug"),
            "{workers} worker(s)"
        );
    }
}
