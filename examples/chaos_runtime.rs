//! Chaos demo: one run that survives a decoder panic, a burst-noise
//! episode, and a worker that stops for 2 ms — and can prove, frame by
//! frame, that it lost exactly the one round the panic struck.
//!
//! A three-lattice machine under the machine-wide `Block` policy, one
//! lattice carrying a burst episode:
//!
//! * lattice 0 (d=5) and lattice 1 (d=3) — plain patches sharing the ring,
//! * lattice 2 (d=3) — the burst target: rounds 40..60 run at 8x
//!   the base dephasing rate (two re-tunes, to the hot channel at round 40
//!   and back at round 60).  The burst is part of the stream's seeded
//!   identity, so the reference run replays the *same* burst and the frames
//!   still compare exactly.
//!
//! The chaos comes from the decoder, the only place a real run's faults
//! come from: every worker serves union-find through [`ChaosDecoder`], which
//! panics once, on the machine's 41st sector decode, and parks its worker
//! once, for 2 ms, on the 300th.  The supervisor catches the panic, books
//! the round it struck as shed, re-prepares the decoders, and the
//! replacement adopts the dead worker's frame shard; the park backs the
//! ring up without tripping the watchdog.
//!
//! The acceptance criteria: the run ends (no hang), no panic escapes, its
//! books hold with `Crashes` the only objection
//! ([`RuntimeOutcome::check_invariants`]), the one lost round is booked
//! shed and named by the journal's `worker_crash`, every lattice that lost
//! no round ends `BOUNDED`, and every lattice's merged Pauli frame equals
//! the reference's — the lost round's lattice's up to that round's
//! reference correction, declared below.
//!
//! Run with `cargo run --release --example chaos_runtime`.  The fault
//! classes and the `fault:` report line are documented in
//! `docs/OPERATIONS.md`.

use nisqplus_decoders::traits::DecoderFactory;
use nisqplus_decoders::{Decoder, DynDecoder, UnionFindDecoder};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use nisqplus_runtime::{
    EventKind, LatticeSpec, MachineConfig, NoiseSpec, PushPolicy, RuntimeConfig, RuntimeOutcome,
    StreamingEngine, Violation, Violations,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Rounds streamed per lattice.
const ROUNDS: u64 = 300;

/// Per-lattice syndrome-generation period: the paper's 400 ns scaled by
/// 250x (~100 us) so the decoders keep up and the lattices can end the
/// run BOUNDED — the chaos, not the clock, is what's under test.
const CADENCE_CYCLES: usize = RuntimeConfig::PAPER_CADENCE_CYCLES * 250;

/// The base channel of every lattice.
const BASE: NoiseSpec = NoiseSpec::PureDephasing { p: 0.02 };

/// The channel of lattice 2's burst, rounds 40..60: 8x the base rate.
const HOT: NoiseSpec = NoiseSpec::PureDephasing { p: 0.02 * 8.0 };

/// The machine-wide sector decode the chaos decoder panics on (0-based).
const PANIC_AT: u64 = 40;

/// The machine-wide sector decode on which the chaos decoder parks its
/// worker for [`PARK`].
const PARK_AT: u64 = 299;

/// How long the park holds its worker: far below the watchdog's window.
const PARK: Duration = Duration::from_millis(2);

/// The panic message of the planned panic, which the panic hook keeps out
/// of stderr.
const PLANNED: &str = "chaos: planned decoder panic";

/// Union-find whose instances share one count of sector decodes: decode
/// [`PANIC_AT`] panics and decode [`PARK_AT`] parks its worker — each once
/// per run, whichever worker, or restarted worker, makes it.
struct ChaosDecoder {
    inner: UnionFindDecoder,
    decodes: Arc<AtomicU64>,
}

impl Decoder for ChaosDecoder {
    fn name(&self) -> &str {
        "union-find"
    }

    fn prepare(&mut self, lattice: &Lattice) {
        self.inner.prepare(lattice);
    }

    fn decode_into(
        &mut self,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
        out: &mut PauliString,
    ) {
        match self.decodes.fetch_add(1, Ordering::Relaxed) {
            PANIC_AT => panic!("{}", PLANNED),
            PARK_AT => std::thread::sleep(PARK),
            _ => {}
        }
        self.inner.decode_into(lattice, syndrome, sector, out);
    }
}

/// Builds the three-lattice machine; the chaos run and the reference differ
/// only in their decoder.
fn machine() -> MachineConfig {
    let spec = |distance: usize, seed: u64| {
        LatticeSpec::new(distance)
            .with_noise(BASE)
            .with_seed(seed)
            .with_rounds(ROUNDS)
            .with_cadence_cycles(CADENCE_CYCLES)
    };
    let mut config = MachineConfig::new(&[5, 3, 3], 9000);
    config.lattices = vec![
        spec(5, 9000),
        spec(3, 9001),
        spec(3, 9002).with_retune(40, HOT).with_retune(60, BASE),
    ];
    config.workers = 2;
    config.queue_capacity = 4_096;
    config.push_policy = PushPolicy::Block;
    // The reference's corrections price the lost round.
    config.record_corrections = true;
    config
}

fn run(factory: &dyn DecoderFactory) -> RuntimeOutcome {
    let engine = StreamingEngine::with_machine(machine()).expect("valid config");
    engine.run(factory)
}

/// Whether a panic is the planned one.
fn planned(payload: &(dyn std::any::Any + Send)) -> bool {
    let message = (payload.downcast_ref::<String>().map(String::as_str))
        .or_else(|| payload.downcast_ref::<&str>().copied());
    message == Some(PLANNED)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The planned panic is a real one; keep its message out of stderr so
    // the only panics this process prints are unexpected ones.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !planned(info.payload()) {
            default_hook(info);
        }
    }));

    println!("chaos run: 3 lattices (d=5, d=3, d=3; Block) x {ROUNDS} rounds on 2 workers");
    println!(
        "  decoder: panics on sector decode {PANIC_AT}, parks its worker 2 ms on decode {PARK_AT};"
    );
    println!("           8x burst on lattice 2 rounds 40..60");
    println!();
    let decodes = Arc::new(AtomicU64::new(0));
    let chaos = run(&move || {
        Box::new(ChaosDecoder {
            inner: UnionFindDecoder::new(),
            decodes: Arc::clone(&decodes),
        }) as DynDecoder
    });
    println!("{}", chaos.report);
    println!();
    // The burst is physics, not a failure: the reference streams the same
    // episode, so the burst lattice's frames are comparable byte for byte.
    let reference = run(&|| Box::new(UnionFindDecoder::new()) as DynDecoder);

    // --- The books hold; `Crashes` alone names the decoder bug. ----------
    reference.check_invariants()?;
    let only_the_crash = Violations(vec![Violation::Crashes {
        crashed: 1,
        restarted: 1,
    }]);
    assert_eq!(chaos.check_invariants(), Err(only_the_crash));
    let report = &chaos.report;
    let counts = &report.journal.counts;
    assert_eq!(
        counts[EventKind::NoiseChange],
        2,
        "the burst began and ended"
    );
    assert_eq!(
        counts[EventKind::WatchdogTrip],
        0,
        "a 2 ms park must ride out on backpressure, far below the watchdog"
    );

    // --- The one lost round is booked shed and named by its crash. -------
    let crash = (report.journal.recent.iter())
        .find(|event| event.kind == EventKind::WorkerCrash)
        .expect("the crash is journaled");
    let lost_lattice = crash.lattice_id.expect("the lost round's lattice") as usize;
    let lost_round = crash.value;
    assert_eq!(report.counters.dropped, 1, "only the struck round is lost");
    for lattice in &report.lattices {
        let id = lattice.lattice_id;
        if id == lost_lattice {
            assert_eq!(lattice.counters.dropped, 1);
            assert_eq!(
                lattice.verdict(),
                "SHEDDING",
                "a lost round is a shed round"
            );
        } else {
            assert_eq!(lattice.verdict(), "BOUNDED", "lattice {id} stayed bounded");
        }
    }

    // --- Recovery is exact: every frame matches the reference, the lost
    // round's lattice up to that round's reference correction. ------------
    assert_eq!(reference.report.counters.dropped, 0);
    let lost_correction = (reference.corrections.iter())
        .find(|c| c.lattice_id as usize == lost_lattice && c.round == lost_round)
        .expect("the reference decoded every round");
    for id in 0..3 {
        let mut expected = reference.frame_for(id).merged();
        if id == lost_lattice {
            expected.compose_with(&lost_correction.correction);
        }
        assert_eq!(
            chaos.frame_for(id).merged(),
            expected,
            "lattice {id}'s merged Pauli frame must equal the reference's, less the lost round"
        );
    }

    println!(
        "survived: decoder panic caught+restarted ({} restart), lattice {lost_lattice} round \
         {lost_round} booked shed, burst 40..60 replayed, 2 ms park absorbed ({} watchdog trips)",
        counts[EventKind::WorkerRestart],
        counts[EventKind::WatchdogTrip]
    );
    println!(
        "recovery is exact: every other round decoded, merged frames equal to the reference \
         less the lost round's correction; only `Crashes` objects."
    );
    Ok(())
}
