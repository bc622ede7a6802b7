//! Flow-control tests for the stage layer: the behaviour the paper assumes
//! of hardware, pinned at the seams the software pipeline is built from.
//! Fill/refuse/free on a channel, a one-slot ring shared by two workers —
//! and a property test driving a miniature source→channel→consumer graph
//! through random stall schedules, asserting no lattice's rounds are ever
//! dropped or reordered and the channel never holds more than its
//! capacity.

use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};
use nisqplus_runtime::stage::Channel;
use nisqplus_runtime::{PushPolicy, RuntimeConfig, StreamingEngine};
use proptest::prelude::*;

/// A channel fills at capacity, refuses without losing anything, and frees
/// exactly one slot per receive.
#[test]
fn channel_fills_refuses_and_frees_one_slot_per_receive() {
    let channel = Channel::new(3, 1);
    for value in 0..3u64 {
        assert!(channel.try_send(&[value]));
    }
    assert_eq!(channel.len(), 3);
    assert!(!channel.try_send(&[99]), "full, send refused");
    assert!(!channel.try_send(&[99]));
    let mut out = [0u64];
    assert!(channel.try_recv(&mut out));
    assert_eq!(out, [0]);
    assert_eq!(channel.len(), 2, "one slot came free");
    assert!(channel.try_send(&[3]), "the freed slot accepted a send");
    assert!(!channel.try_send(&[99]), "and only the one");
    // Drain; the refused sends never entered the stream.
    let mut seen = Vec::new();
    while channel.try_recv(&mut out) {
        seen.push(out[0]);
    }
    assert_eq!(seen, vec![1, 2, 3]);
    let report = channel.report("channel");
    assert_eq!(report.accepted, 4);
    assert_eq!(report.emitted, 4);
    assert_eq!(report.rejected, 3);
    assert_eq!(report.occupancy_peak, 3);
}

/// Two workers behind one one-slot ring: the source finds the ring full on
/// almost every round, so nearly every send is refused and retried, and the
/// two workers race to claim each record.  The books must still hold
/// exactly, and the ring's one row must show the bound it kept.
#[test]
fn starved_one_slot_channels_still_reconcile_the_books() {
    let mut config = RuntimeConfig::new(3);
    config.seed = 11;
    config.rounds = 20_000;
    config.workers = 2;
    config.cadence_cycles = 0;
    config.queue_capacity = 1;
    config.push_policy = PushPolicy::Block;
    let engine = StreamingEngine::new(config).unwrap();
    let outcome = engine.run(&|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
    outcome.check_invariants().unwrap();
    let report = &outcome.report;
    assert_eq!(report.counters.generated, config.rounds);
    assert_eq!(report.counters.dropped, 0);
    assert_eq!(report.counters.decoded, config.rounds);
    let channels: Vec<_> = report
        .stages
        .iter()
        .filter(|stage| stage.stage.starts_with("channel"))
        .collect();
    assert_eq!(channels.len(), 1, "one ring for the pool");
    let channel = channels[0];
    assert_eq!(channel.stage, "channel");
    assert_eq!(channel.accepted, config.rounds, "{channel:?}");
    assert_eq!(channel.emitted, config.rounds, "{channel:?}");
    assert_eq!(channel.occupancy_peak, 1, "{channel:?}");
    assert!(
        channel.rejected > 0,
        "a one-slot ring never refused a send: the full-ring path was not exercised"
    );
}

/// One deterministic step of the miniature stage graph used by the
/// property test below.
struct MiniGraph {
    channel: Channel,
    /// The one encoded record, overwritten when the next round is staged.
    record: [u64; 2],
    /// Per-lattice next round to emit.
    next_round: Vec<u64>,
    rounds_per_lattice: u64,
    /// Whether the round in `record` still waits to be sent.
    pending: bool,
    /// Which lattice emits next (sources interleave round-robin).
    turn: usize,
    /// Per-lattice rounds received, in arrival order.
    received: Vec<Vec<u64>>,
}

impl MiniGraph {
    fn new(lattices: usize, rounds_per_lattice: u64, capacity: usize) -> Self {
        MiniGraph {
            channel: Channel::new(capacity, 2),
            record: [0; 2],
            next_round: vec![0; lattices],
            rounds_per_lattice,
            pending: false,
            turn: 0,
            received: vec![Vec::new(); lattices],
        }
    }

    /// The source side makes whatever progress backpressure allows: stage a
    /// round into the record and send it into the channel.  A refused send
    /// loses nothing: the round stays in the record and is offered again on
    /// the next step, as the Block policy does.
    fn step_source(&mut self) {
        if !self.pending {
            // Pick the next lattice with rounds left, round-robin.
            let lattices = self.next_round.len();
            for offset in 0..lattices {
                let lattice = (self.turn + offset) % lattices;
                if self.next_round[lattice] < self.rounds_per_lattice {
                    self.record = [lattice as u64, self.next_round[lattice]];
                    self.next_round[lattice] += 1;
                    self.pending = true;
                    self.turn = lattice + 1;
                    break;
                }
            }
        }
        if self.pending && self.channel.try_send(&self.record) {
            self.pending = false;
        }
    }

    /// The consumer pops up to `take` rounds and commits them.
    fn step_consumer(&mut self, take: usize) {
        let mut out = [0u64; 2];
        for _ in 0..take {
            if !self.channel.try_recv(&mut out) {
                break;
            }
            self.received[out[0] as usize].push(out[1]);
        }
    }

    fn done(&self) -> bool {
        !self.pending
            && self.channel.is_empty()
            && self
                .next_round
                .iter()
                .all(|&next| next == self.rounds_per_lattice)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random stall schedules against the miniature stage graph: however
    /// the consumer stalls and whatever the channel capacity, every
    /// lattice's rounds arrive exactly once, in order, and after every
    /// source step the channel holds no more than its capacity.
    #[test]
    fn stall_schedules_never_drop_or_reorder_rounds(
        schedule in proptest::collection::vec(any::<bool>(), 30..240),
        lattices in 1usize..4,
        capacity in 1usize..5,
    ) {
        let rounds_per_lattice = (schedule.len() / (3 * lattices)).max(2) as u64;
        let mut graph = MiniGraph::new(lattices, rounds_per_lattice, capacity);
        for ready in schedule {
            graph.step_source();
            let flow = graph.channel.report("channel");
            prop_assert!(flow.accepted - flow.emitted <= capacity as u64);
            if ready {
                graph.step_consumer(2);
            }
        }
        // The schedule is over: drain with an always-ready consumer.
        let mut safety = 0;
        while !graph.done() {
            graph.step_source();
            graph.step_consumer(2);
            safety += 1;
            prop_assert!(safety < 100_000, "graph failed to quiesce");
        }
        for (lattice, received) in graph.received.iter().enumerate() {
            prop_assert_eq!(
                received,
                &(0..rounds_per_lattice).collect::<Vec<u64>>(),
                "lattice {} lost or reordered rounds",
                lattice
            );
        }
        // The channel's books balance: pushed == popped, and it never held
        // more than its capacity.
        let channel_report = graph.channel.report("channel");
        prop_assert_eq!(channel_report.accepted, channel_report.emitted);
        prop_assert!(channel_report.occupancy_peak <= capacity as u64);
    }
}
