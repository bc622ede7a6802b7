//! Fault-injection properties: hostile wire records and crash recovery.
//!
//! Two property families pin down the robustness contract:
//!
//! * **Hostile streams** — any corruption of an encoded record (any single
//!   bit flip, or any set of distinct flips, in any header field, the
//!   payload, the padding or the checksum trailer) must surface as a typed
//!   [`PacketError`] from the validating decode path.  Never a panic, and
//!   never a silent misdecode: the checksum fold is injective per body
//!   word, so a damaged record cannot re-hash to its own trailer.
//! * **Recovery determinism** — for any (seed, crash round, worker count),
//!   killing a worker mid-run and letting the supervisor restart it yields
//!   byte-identical merged Pauli frames and per-round corrections to the
//!   same run without the crash.  Recovery is exact, not best-effort.

use nisqplus_decoders::{Correction, Decoder, DynDecoder, GreedyMatchingDecoder};
use nisqplus_qec::error_model::BurstEvent;
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::syndrome::Syndrome;
use nisqplus_runtime::fault::silence_injected_crash_panics;
use nisqplus_runtime::{
    FaultPlan, MachineConfig, NoiseSpec, PacketCodec, PushPolicy, RuntimeConfig, RuntimeOutcome,
    StreamingEngine, SyndromePacket, Violation,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A codec registered for three lattices of different ancilla counts, so
/// corrupted lattice-id fields can land on a registered lattice of the
/// wrong size (`AncillaMismatch`), an unregistered one (`UnknownLattice`),
/// or survive to the checksum check (`Corrupted`).
fn hostile_codec() -> PacketCodec {
    PacketCodec::for_lattice_bits(&[40, 24, 12])
}

/// Encodes one valid record for `lattice_id` with the given hot defects.
fn encode_record(codec: &PacketCodec, lattice_id: u32, round: u64, hot: &[usize]) -> Vec<u64> {
    let bits = codec.syndrome_bits(lattice_id);
    let hot: Vec<usize> = hot.iter().map(|&i| i % bits).collect();
    let syndrome = Syndrome::from_hot(bits, &hot);
    let packet = SyndromePacket::new(lattice_id, round, round.wrapping_mul(997), &syndrome);
    let mut record = vec![0u64; codec.words_per_packet()];
    codec.encode(&packet, &mut record);
    record
}

/// A decode buffer of the width registered for `lattice_id`.
fn blank_packet(codec: &PacketCodec, lattice_id: u32) -> SyndromePacket {
    SyndromePacket::new(0, 0, 0, &Syndrome::new(codec.syndrome_bits(lattice_id)))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single bit flip anywhere in a record — version field, lattice
    /// id, ancilla count, round, timestamp, payload, padding or the
    /// checksum trailer — is rejected with a typed error, and the
    /// rejecting decode leaves the output packet untouched.
    #[test]
    fn any_single_bit_flip_is_rejected(
        lattice_id in 0u32..3,
        round in 0u64..1 << 62,
        hot in proptest::collection::vec(0usize..1000, 0..6),
        word in 0usize..6, // reduced modulo the record length below
        bit in 0u32..64,
    ) {
        let codec = hostile_codec();
        let mut record = encode_record(&codec, lattice_id, round, &hot);
        let word = word % record.len();
        record[word] ^= 1u64 << bit;

        prop_assert!(codec.verify(&record).is_err(), "verify must reject");

        let mut clean = blank_packet(&codec, lattice_id);
        codec.try_decode_into(&encode_record(&codec, lattice_id, round, &hot), &mut clean)
            .expect("the uncorrupted record decodes");
        let mut buffer = clean.clone();
        prop_assert!(codec.try_decode_into(&record, &mut buffer).is_err(), "try_decode_into must reject");
        prop_assert_eq!(&buffer, &clean, "a rejected decode must not touch the buffer");
    }

    /// Any *set* of distinct bit flips is rejected too: multi-bit damage
    /// across header and body cannot cancel out into an accepted record.
    #[test]
    fn any_distinct_flip_set_is_rejected(
        lattice_id in 0u32..3,
        round in 0u64..1 << 62,
        hot in proptest::collection::vec(0usize..1000, 0..6),
        raw_flips in proptest::collection::vec((0usize..6, 0u32..64), 1..8),
    ) {
        let codec = hostile_codec();
        let mut record = encode_record(&codec, lattice_id, round, &hot);
        // Distinct (word, bit) targets only: duplicates would XOR back out.
        let flips: std::collections::BTreeSet<(usize, u32)> = raw_flips
            .into_iter()
            .map(|(word, bit)| (word % record.len(), bit))
            .collect();
        for &(word, bit) in &flips {
            record[word] ^= 1u64 << bit;
        }
        prop_assert!(codec.verify(&record).is_err());
        let mut buffer = blank_packet(&codec, lattice_id);
        prop_assert!(codec.try_decode_into(&record, &mut buffer).is_err());
    }
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

    // Work stealing decides how many rounds worker 0 decodes, so with
    // several workers it may finish the run below its crash threshold.
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

/// With one worker nothing can be stolen: worker 0 decodes all 120 rounds,
/// so a crash scheduled inside them must fire, exactly once.
#[test]
fn a_lone_worker_always_reaches_its_crash_round() {
    for (seed, crash_after) in [(11, 0), (12, 17), (13, 29)] {
        let injected = check_crash_recovery(seed, crash_after, 1).expect("recovery holds");
        assert_eq!(injected, 1, "seed {seed}, crash after {crash_after}");
    }
}

/// A burst episode belongs to the lattice's stream, and the report counts
/// it from there: a spec burst beside an unrelated crash plan is planned,
/// seen starting and seen ending exactly once, and the books hold.
#[test]
fn spec_burst_beside_a_crash_plan_reconciles() {
    silence_injected_crash_panics();
    let mut machine = crash_machine(7, 1, FaultPlan::default().crash_worker(0, 50));
    machine.lattices[0].burst = Some(BurstEvent::new(20, 10, 8.0).unwrap());
    let outcome = run_machine(machine);
    outcome.check_invariants().unwrap();
    let fault = outcome.report.fault;
    assert_eq!((fault.planned_bursts, fault.injected_crashes), (1, 1));
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

    fn decode(&mut self, lattice: &Lattice, syndrome: &Syndrome, sector: Sector) -> Correction {
        if self.decodes.fetch_add(1, Ordering::Relaxed) == 2 {
            panic!("decoder bug on the third decode");
        }
        self.inner.decode(lattice, syndrome, sector)
    }
}

/// A crash nothing injected — a decoder bug — is caught and restarted like
/// an injected one, but it breaks the books of a plan-free run, and the
/// report's text says so.  The rounds of the crashed batch are lost too,
/// and the books say that as well: the third decode is the second round's
/// first sector, so the batch of four committed one round and lost three.
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
        decoded: 117,
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
