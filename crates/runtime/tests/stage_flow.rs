//! Flow-control tests for the stage layer: the behaviour the paper assumes
//! of hardware, pinned at the seams the software pipeline is built from.
//! Fill/refuse/free on a channel, the gate's admission-to-commit budget,
//! steal accounting — and a property test driving a miniature
//! source→gate→channel→consumer graph through random stall schedules,
//! asserting no lattice's rounds are ever dropped or reordered and no lattice
//! ever has more rounds outstanding than its budget.

use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};
use nisqplus_runtime::stage::{Admission, Channel, QosGate, StealMux};
use nisqplus_runtime::telemetry::LatticeCounters;
use nisqplus_runtime::{
    LatticeSet, LatticeSpec, MachineConfig, PushPolicy, RuntimeConfig, StreamingEngine,
};
use proptest::prelude::*;
use std::sync::atomic::Ordering;

/// A gate over `lattices` identical Block-policy d=3 lanes, each with the
/// given outstanding budget.
fn block_gate(lattices: usize, budget: Option<usize>) -> QosGate {
    let specs: Vec<LatticeSpec> = (0..lattices)
        .map(|i| {
            let mut spec = LatticeSpec::new(3);
            spec.rounds = 16;
            spec.seed = i as u64;
            spec.queue_budget = budget;
            spec
        })
        .collect();
    let config = MachineConfig {
        lattices: specs,
        push_policy: PushPolicy::Block,
        ..MachineConfig::new(&[3], 0)
    };
    let set = LatticeSet::new(config.lattices.clone()).unwrap();
    QosGate::for_machine(&config, &set)
}

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
    let report = channel.report("channel.0");
    assert_eq!(report.accepted, 4);
    assert_eq!(report.emitted, 4);
    assert_eq!(report.rejected, 3);
    assert_eq!(report.occupancy_peak, 3);
}

/// The gate's budget spans admission to commit: a round counts against it
/// from the moment it is enqueued, while it sits in the channel and while
/// the consumer works on it, and stops counting only when the consumer
/// commits the decode.
#[test]
fn gate_budget_spans_admission_to_commit() {
    let mut gate = block_gate(1, Some(2));
    let counters = LatticeCounters::default();
    let channel = Channel::new(8, 1);
    for round in 0..2 {
        assert_eq!(gate.admit(0, &counters), Admission::Granted);
        assert!(channel.try_send(&[round]));
        counters.enqueued.fetch_add(1, Ordering::Relaxed);
    }
    // At budget while both rounds are in flight — the channel having free
    // slots does not matter.
    assert_eq!(gate.admit(0, &counters), Admission::Blocked);
    assert_eq!(counters.outstanding(), 2);
    // The consumer pops one round; it is still outstanding until commit.
    let mut out = [0u64];
    assert!(channel.try_recv(&mut out));
    assert_eq!(gate.admit(0, &counters), Admission::Blocked);
    counters.decoded.fetch_add(1, Ordering::Relaxed);
    assert_eq!(counters.outstanding(), 1);
    assert_eq!(gate.admit(0, &counters), Admission::Granted);
    let report = gate.report("gate");
    assert_eq!(report.accepted, 3);
    assert_eq!(report.stall_cycles, 2);
}

/// Steal mux accounting: a worker whose home channel is dry takes a whole
/// batch from the neighbour and counts every record as stolen.
#[test]
fn steal_mux_counts_every_foreign_record() {
    let channels = [Channel::new(32, 1), Channel::new(32, 1)];
    for value in 0..3u64 {
        assert!(channels[1].try_send(&[value]));
    }
    let mux = StealMux::new(0);
    let mut batch: Vec<Vec<u64>> = (0..4).map(|_| vec![0u64]).collect();
    let fill = mux.fill(&channels, &mut batch);
    assert_eq!(fill.filled, 3);
    assert_eq!(fill.stolen, 3);
    // Home traffic is never "stolen".
    assert!(channels[0].try_send(&[9]));
    let fill = mux.fill(&channels, &mut batch);
    assert_eq!(fill.filled, 1);
    assert_eq!(fill.stolen, 0);
}

/// Two workers behind a two-slot queue (one slot per channel): the source
/// finds its channel full on almost every round, so nearly every send is
/// refused and retried.  The books must still hold exactly.
#[test]
fn starved_one_slot_channels_still_reconcile_the_books() {
    let mut config = RuntimeConfig::new(3);
    config.seed = 11;
    config.rounds = 20_000;
    config.workers = 2;
    config.cadence_cycles = 0;
    config.queue_capacity = 2;
    config.push_policy = PushPolicy::Block;
    let engine = StreamingEngine::new(config).unwrap();
    let outcome = engine.run(&|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
    outcome.check_invariants().unwrap();
    let report = &outcome.report;
    assert_eq!(report.counters.generated, config.rounds);
    assert_eq!(report.counters.dropped, 0);
    let channels: Vec<_> = report
        .stages
        .iter()
        .filter(|stage| stage.stage.starts_with("channel."))
        .collect();
    assert_eq!(channels.len(), 2);
    for channel in &channels {
        assert_eq!(channel.accepted, channel.emitted, "{channel:?}");
        assert_eq!(channel.occupancy_peak, 1, "{channel:?}");
    }
    assert!(
        channels.iter().map(|c| c.rejected).sum::<u64>() > 0,
        "a one-slot channel never refused a send: the full-ring path was not exercised"
    );
}

/// Liveness of a budget that nothing holds: a Block lane allowed one
/// outstanding round, two workers.  Every admission waits for the previous
/// round's commit to show in the lattice's own `decoded`; the run must end
/// with every round decoded, none shed, and never two outstanding.
#[test]
fn block_lane_with_a_budget_of_one_never_stalls_for_good() {
    let mut config = MachineConfig::new(&[3], 23);
    config.lattices[0].rounds = 5_000;
    config.lattices[0].cadence_cycles = 0;
    config.lattices[0].queue_budget = Some(1);
    config.workers = 2;
    config.queue_capacity = 8;
    config.push_policy = PushPolicy::Block;
    let engine = StreamingEngine::with_machine(config).unwrap();
    let outcome = engine.run(&|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
    outcome.check_invariants().unwrap();
    let counters = outcome.report.counters;
    assert_eq!(counters.decoded, 5_000);
    let gate = outcome
        .report
        .stages
        .iter()
        .find(|stage| stage.stage == "gate")
        .expect("the gate files a stage report");
    assert_eq!(gate.accepted, 5_000);
    assert_eq!(gate.occupancy_peak, 1, "{gate:?}");
}

/// One deterministic step of the miniature stage graph used by the
/// property test below.
struct MiniGraph {
    gate: QosGate,
    /// Per-lattice `enqueued` / `decoded`: the budget's only book.
    counters: Vec<LatticeCounters>,
    budget: u64,
    channel: Channel,
    /// The one encoded record, overwritten when the next round is staged.
    record: [u64; 2],
    /// Per-lattice next round to emit.
    next_round: Vec<u64>,
    rounds_per_lattice: u64,
    /// The lattice whose round in `record` still waits to be sent.
    pending: Option<usize>,
    /// Which lattice emits next (sources interleave round-robin).
    turn: usize,
    /// Per-lattice rounds received, in arrival order.
    received: Vec<Vec<u64>>,
}

impl MiniGraph {
    fn new(lattices: usize, rounds_per_lattice: u64, capacity: usize, budget: usize) -> Self {
        MiniGraph {
            gate: block_gate(lattices, Some(budget)),
            counters: (0..lattices).map(|_| LatticeCounters::default()).collect(),
            budget: budget as u64,
            channel: Channel::new(capacity, 2),
            record: [0; 2],
            next_round: vec![0; lattices],
            rounds_per_lattice,
            pending: None,
            turn: 0,
            received: vec![Vec::new(); lattices],
        }
    }

    /// The source side makes whatever progress backpressure allows: stage a
    /// round into the record, win admission, send it into the channel.
    /// Admission holds nothing, so a round whose send is refused is offered
    /// to the gate again on the next step.
    fn step_source(&mut self) {
        if self.pending.is_none() {
            // Pick the next lattice with rounds left, round-robin.
            let lattices = self.next_round.len();
            for offset in 0..lattices {
                let lattice = (self.turn + offset) % lattices;
                if self.next_round[lattice] < self.rounds_per_lattice {
                    self.record = [lattice as u64, self.next_round[lattice]];
                    self.next_round[lattice] += 1;
                    self.pending = Some(lattice);
                    self.turn = lattice + 1;
                    break;
                }
            }
        }
        let Some(lattice) = self.pending else {
            return;
        };
        let counters = &self.counters[lattice];
        let admitted = match self.gate.admit(lattice, counters) {
            Admission::Granted => true,
            Admission::Blocked => false,
            Admission::Shed => unreachable!("Block lanes never shed"),
        };
        if admitted && self.channel.try_send(&self.record) {
            counters.enqueued.fetch_add(1, Ordering::Relaxed);
            self.pending = None;
        }
    }

    /// The most rounds any lattice has outstanding right now, over its
    /// budget (0 when every lattice is within it).
    fn over_budget(&self) -> u64 {
        self.counters
            .iter()
            .map(|counters| counters.outstanding().saturating_sub(self.budget))
            .max()
            .unwrap_or(0)
    }

    /// The consumer pops up to `take` rounds and commits them.
    fn step_consumer(&mut self, take: usize) {
        let mut out = [0u64; 2];
        for _ in 0..take {
            if !self.channel.try_recv(&mut out) {
                break;
            }
            let lattice = out[0] as usize;
            self.received[lattice].push(out[1]);
            self.counters[lattice]
                .decoded
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn done(&self) -> bool {
        self.pending.is_none()
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
    /// the consumer stalls and whatever the channel capacity and per-lane
    /// budget, every lattice's rounds arrive exactly once, in order, and
    /// after every source step no lattice is over its budget and the channel
    /// holds no more than its capacity.
    #[test]
    fn stall_schedules_never_drop_or_reorder_rounds(
        schedule in proptest::collection::vec(any::<bool>(), 30..240),
        lattices in 1usize..4,
        capacity in 1usize..5,
        budget in 1usize..4,
    ) {
        let rounds_per_lattice = (schedule.len() / (3 * lattices)).max(2) as u64;
        let mut graph = MiniGraph::new(lattices, rounds_per_lattice, capacity, budget);
        for ready in schedule {
            graph.step_source();
            prop_assert_eq!(graph.over_budget(), 0);
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
            prop_assert_eq!(graph.over_budget(), 0);
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
            prop_assert_eq!(graph.counters[lattice].outstanding(), 0);
        }
        // Both books balance: pushed == popped, and the gate granted no more
        // than the budget at any admission.
        let channel_report = graph.channel.report("channel");
        prop_assert_eq!(channel_report.accepted, channel_report.emitted);
        prop_assert!(channel_report.occupancy_peak <= capacity as u64);
        prop_assert!(graph.gate.report("gate").occupancy_peak <= budget as u64);
    }
}
