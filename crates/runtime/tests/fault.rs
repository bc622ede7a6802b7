//! Fault-injection properties: hostile trace files and crash recovery.
//!
//! Two property families pin down the robustness contract:
//!
//! * **Hostile bytes** — the one place the runtime reads bytes it did not
//!   write itself is a recorded trace file.  Every single-bit flip of one is
//!   refused with a typed error, or reads back as a trace that replays to
//!   its end and differs from the recording unless the flipped text is the
//!   same JSON document.  Never a panic.  (The records that travel between
//!   the runtime's own threads carry no checksum: nothing outside the
//!   process touches them.)
//! * **Recovery determinism** — for any (seed, crash round, worker count),
//!   killing a worker mid-run and letting the supervisor restart it yields
//!   byte-identical merged Pauli frames and per-round corrections to the
//!   same run without the crash.  Recovery is exact, not best-effort.

use nisqplus_decoders::{Decoder, DynDecoder, GreedyMatchingDecoder};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use nisqplus_runtime::fault::silence_injected_crash_panics;
use nisqplus_runtime::report::parse;
use nisqplus_runtime::{
    golden_summary, record_run, EventKind, FaultPlan, LatticeSpec, MachineConfig, NoiseSpec,
    PushPolicy, RuntimeConfig, RuntimeOutcome, StreamingEngine, SyndromeTrace, TraceSource,
    Violation,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every single-bit flip of a small golden trace file — a recorded
/// two-lattice run with its pinned summary, as `write_to` writes it — is
/// refused (not UTF-8, not JSON, or not a valid trace), or reads back as a
/// trace that differs from the recording exactly when the flipped text is a
/// different JSON document; one that also fits the machine replays to its
/// end.
#[test]
fn every_single_bit_flip_of_a_trace_file_is_refused_or_read_as_changed() {
    let mut config = MachineConfig::new(&[3, 5], 9);
    config.lattices = vec![
        LatticeSpec::new(3).with_rounds(3).with_seed(9),
        LatticeSpec::new(5).with_rounds(2).with_seed(10),
    ];
    config.analyze_residuals = true;
    let engine = StreamingEngine::with_machine(config).expect("valid config");
    let outcome = record_run(&engine, &|| {
        Box::new(GreedyMatchingDecoder::new()) as DynDecoder
    });
    outcome
        .check_invariants()
        .expect("the recorded run's books hold");
    let recorded = outcome
        .trace
        .clone()
        .expect("record_run records a trace")
        .with_golden(golden_summary(&outcome));
    let text = recorded.to_json().to_pretty();
    let original = parse(&text);
    let read = |bytes: &[u8]| -> Option<SyndromeTrace> {
        let doc = parse(std::str::from_utf8(bytes).ok()?).ok()?;
        SyndromeTrace::from_json(&doc).ok()
    };
    assert_eq!(read(text.as_bytes()).as_ref(), Some(&recorded));
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
                    // as the recording.
                    let same_document = parse(std::str::from_utf8(&bytes).unwrap()) == original;
                    assert_eq!(
                        trace == recorded,
                        same_document,
                        "byte {at} bit {bit}: {:?}",
                        String::from_utf8_lossy(&bytes[at.saturating_sub(24)..at + 8])
                    );
                    changed += u32::from(!same_document);
                    let served = trace.len();
                    if let Ok(mut replay) = TraceSource::new(trace, engine.lattice_set()) {
                        let mut count = 0;
                        while replay.next_round().is_some() {
                            count += 1;
                        }
                        assert_eq!(count, served, "byte {at} bit {bit}");
                    }
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

/// A 120-round single-lattice Block machine carrying `plan`; un-paced so
/// the property is about data integrity, not timing.
fn crash_machine(seed: u64, workers: usize, plan: FaultPlan) -> MachineConfig {
    let mut config = RuntimeConfig::new(3);
    config.noise = NoiseSpec::Depolarizing { p: 0.04 };
    config.seed = seed;
    config.rounds = 120;
    config.workers = workers;
    config.cadence_cycles = 0;
    config.queue_capacity = 128;
    config.push_policy = PushPolicy::Block;
    config.record_corrections = true;
    let mut machine = MachineConfig::from(config);
    machine.fault = plan;
    machine
}

fn run_machine(machine: MachineConfig) -> RuntimeOutcome {
    let engine = StreamingEngine::with_machine(machine).expect("valid config");
    engine.run(&|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder)
}

/// Runs the seeded machine with worker 0 scheduled to die after
/// `crash_after` decodes and again crash-free, and checks what recovery
/// guarantees whether or not the crash fired: books that hold, no round
/// dropped, and frames and corrections byte-identical to the crash-free
/// run.  Returns the injected-crash count.
fn check_crash_recovery(seed: u64, crash_after: u64, workers: usize) -> Result<u64, TestCaseError> {
    silence_injected_crash_panics();
    let plan = FaultPlan::default().crash_worker(0, crash_after);
    let crashed = run_machine(crash_machine(seed, workers, plan));
    let baseline = run_machine(crash_machine(seed, workers, FaultPlan::default()));

    // Which worker claims each round from the shared ring decides how many
    // rounds worker 0 decodes, so with several workers it may finish the
    // run below its crash threshold.
    let injected = crashed.report.fault.injected_crashes;
    prop_assert!(injected <= 1);
    prop_assert_eq!(crashed.check_invariants(), Ok(()));
    prop_assert_eq!(crashed.report.counters.dropped, 0);
    prop_assert_eq!(
        &crashed.frame().merged(),
        &baseline.frame().merged(),
        "merged frames must be byte-identical across the crash"
    );
    prop_assert_eq!(
        &crashed.corrections,
        &baseline.corrections,
        "per-round corrections must be byte-identical across the crash"
    );
    Ok(injected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Crash recovery is exact for any (seed, crash round, worker count):
    /// the run with a mid-stream worker kill loses no rounds and commits
    /// byte-identical frames and corrections to the crash-free run.
    #[test]
    fn recovery_is_deterministic_for_any_seed_and_crash_round(
        seed in 0u64..1_000,
        crash_after in 0u64..30,
        workers in 1usize..4,
    ) {
        check_crash_recovery(seed, crash_after, workers)?;
    }
}

/// With one worker no other worker claims a round: worker 0 decodes all 120 rounds,
/// so a crash scheduled inside them must fire, exactly once.
#[test]
fn a_lone_worker_always_reaches_its_crash_round() {
    for (seed, crash_after) in [(11, 0), (12, 17), (13, 29)] {
        let injected = check_crash_recovery(seed, crash_after, 1).expect("recovery holds");
        assert_eq!(injected, 1, "seed {seed}, crash after {crash_after}");
    }
}

/// A burst episode belongs to the lattice's noise schedule, not to the
/// fault plan: a burst (two re-tunes) beside an unrelated crash plan
/// journals its two edges as noise changes, the crash as one crash, and the
/// books hold.
#[test]
fn spec_burst_beside_a_crash_plan_reconciles() {
    silence_injected_crash_panics();
    let mut machine = crash_machine(7, 1, FaultPlan::default().crash_worker(0, 50));
    let hot = NoiseSpec::Depolarizing { p: 0.04 * 8.0 };
    machine.lattices[0].retunes = vec![(20, hot), (30, machine.lattices[0].noise)];
    let outcome = run_machine(machine);
    outcome.check_invariants().unwrap();
    let report = &outcome.report;
    assert_eq!(report.fault.injected_crashes, 1);
    assert_eq!(report.journal.counts[EventKind::NoiseChange], 2);
}

/// Greedy matching that panics — plainly, without the injector's marker —
/// on the third decode made by any instance sharing `decodes`.
struct PanicsOnThirdDecode {
    inner: GreedyMatchingDecoder,
    decodes: Arc<AtomicU64>,
}

impl Decoder for PanicsOnThirdDecode {
    fn name(&self) -> &str {
        "panics-on-third-decode"
    }

    fn decode_into(
        &mut self,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
        out: &mut PauliString,
    ) {
        if self.decodes.fetch_add(1, Ordering::Relaxed) == 2 {
            panic!("decoder bug on the third decode");
        }
        self.inner.decode_into(lattice, syndrome, sector, out);
    }
}

/// A crash nothing injected — a decoder bug — is caught and restarted like
/// an injected one, but it breaks the books of a plan-free run, and the
/// report's text says so.  The round it panicked on is lost, and the books
/// say that as well: the third decode is the second round's first sector,
/// so that one round is lost, and the restarted worker resumes the batch
/// after it and decodes the other 119.
#[test]
fn an_uninjected_decoder_panic_prints_an_unreconciled_fault_line() {
    let decodes = Arc::new(AtomicU64::new(0));
    let factory = move || {
        Box::new(PanicsOnThirdDecode {
            inner: GreedyMatchingDecoder::new(),
            decodes: Arc::clone(&decodes),
        }) as DynDecoder
    };
    let engine = StreamingEngine::with_machine(crash_machine(3, 1, FaultPlan::default()))
        .expect("valid config");
    let report = engine.run(&factory).report;
    assert!(!report.fault.enabled);
    let lost = Violation::Conservation {
        lattice: 0,
        generated: 120,
        decoded: 119,
        dropped: 0,
    };
    let uninjected = Violation::Crashes {
        injected: 0,
        crashed: 1,
        restarted: 1,
    };
    let broken = report.check_invariants().unwrap_err();
    assert_eq!(broken.0, [lost, uninjected]);
    // The fault line shows the restart, the invariants line names both.
    let text = report.to_string();
    let lines = [
        "  fault: 0 crash(es)/1 restart(s) |",
        &format!("  invariants: {broken}\n"),
    ];
    assert!(lines.iter().all(|line| text.contains(line)), "{text}");
}
