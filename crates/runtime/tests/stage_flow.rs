//! Credit-flow tests for the stage layer: the flow-control behaviour the
//! paper assumes of hardware, pinned at the seams the software pipeline is
//! built from.  Exhaustion/replenish on the channel credit loop, the gate's
//! admission-to-commit budget loop, steal accounting — and a property test
//! driving a miniature source→gate→channel→consumer graph through random
//! stall schedules, asserting no lattice's rounds are ever dropped or
//! reordered.

use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};
use nisqplus_runtime::stage::{Admission, CreditChannel, QosGate, StealMux};
use nisqplus_runtime::{
    LatticeSet, LatticeSpec, MachineConfig, PushPolicy, RuntimeConfig, StreamingEngine,
};
use proptest::prelude::*;

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

/// Channel credits exhaust at capacity, refuse without losing anything, and
/// replenish exactly once per receive.
#[test]
fn channel_credits_exhaust_and_replenish() {
    let channel = CreditChannel::new(3, 1);
    for value in 0..3u64 {
        assert!(channel.try_send(&[value]));
    }
    assert_eq!(channel.credits().available(), 0);
    assert!(!channel.try_send(&[99]), "no credit, send refused");
    assert!(!channel.try_send(&[99]));
    let mut out = [0u64];
    assert!(channel.try_recv(&mut out));
    assert_eq!(out, [0]);
    assert_eq!(channel.credits().available(), 1, "one credit came home");
    assert!(channel.try_send(&[3]), "replenished credit accepted a send");
    // Drain; the refused sends never entered the stream.
    let mut seen = Vec::new();
    while channel.try_recv(&mut out) {
        seen.push(out[0]);
    }
    assert_eq!(seen, vec![1, 2, 3]);
    let report = channel.report("channel.0");
    assert_eq!(report.accepted, 4);
    assert_eq!(report.emitted, 4);
    assert_eq!(report.rejected, 2);
    assert_eq!(report.credits_consumed, report.credits_issued);
}

/// The gate's budget credit spans admission to commit: it is consumed when
/// a round is admitted, held while the round sits in the channel, and only
/// returns when the consumer commits the decode.
#[test]
fn gate_budget_credit_spans_admission_to_commit() {
    let gate = block_gate(1, Some(2));
    let channel = CreditChannel::new(8, 1);
    assert_eq!(gate.admit(0), Admission::Granted);
    assert!(channel.try_send(&[0]));
    assert_eq!(gate.admit(0), Admission::Granted);
    assert!(channel.try_send(&[1]));
    // Budget exhausted while both rounds are in flight — the channel having
    // free slots does not matter.
    assert_eq!(gate.admit(0), Admission::Blocked);
    assert_eq!(gate.outstanding(0), 2);
    // The consumer pops one round; the credit is still out until commit.
    let mut out = [0u64];
    assert!(channel.try_recv(&mut out));
    assert_eq!(gate.admit(0), Admission::Blocked);
    gate.credit_decode(0);
    assert_eq!(gate.outstanding(0), 1);
    assert_eq!(gate.admit(0), Admission::Granted);
    let report = gate.report("gate");
    assert_eq!(report.accepted, 3);
    assert_eq!(report.stall_cycles, 2);
}

/// Steal mux accounting: a worker whose home channel is dry takes a whole
/// batch from the neighbour and counts every record as stolen.
#[test]
fn steal_mux_counts_every_foreign_record() {
    let channels = [CreditChannel::new(32, 1), CreditChannel::new(32, 1)];
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

/// Two workers behind a two-slot queue (one credit per channel): the source
/// finds its credits exhausted on almost every round, so nearly every send
/// goes through the refresh-and-retry path of the credit loop.  The books
/// must still reconcile exactly.
#[test]
fn starved_credit_loops_still_reconcile_the_books() {
    let mut config = RuntimeConfig::new(3);
    config.seed = 11;
    config.rounds = 20_000;
    config.workers = 2;
    config.cadence_cycles = 0;
    config.queue_capacity = 2;
    config.push_policy = PushPolicy::Block;
    let engine = StreamingEngine::new(config).unwrap();
    let outcome = engine.run(&|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder);
    let report = &outcome.report;
    let counters = report.counters;
    assert_eq!(counters.generated, config.rounds);
    assert_eq!(counters.generated, counters.decoded + counters.dropped);
    assert_eq!(outcome.frame().total_recorded(), counters.decoded);
    let channels: Vec<_> = report
        .stages
        .iter()
        .filter(|stage| stage.stage.starts_with("channel."))
        .collect();
    assert_eq!(channels.len(), 2);
    for channel in &channels {
        assert_eq!(
            channel.credits_consumed, channel.credits_issued,
            "{channel:?}"
        );
        assert_eq!(channel.occupancy_peak, 1, "{channel:?}");
    }
    let sent: u64 = channels.iter().map(|c| c.credits_consumed).sum();
    assert_eq!(sent, counters.decoded);
    assert!(
        channels.iter().map(|c| c.rejected).sum::<u64>() > 0,
        "a one-slot channel never refused a send: the credit loop was not exercised"
    );
}

/// One deterministic step of the miniature stage graph used by the
/// property test below.
struct MiniGraph {
    gate: QosGate,
    channel: CreditChannel,
    /// The one encoded record, overwritten when the next round is staged.
    record: [u64; 2],
    /// Per-lattice next round to emit.
    next_round: Vec<u64>,
    rounds_per_lattice: u64,
    /// Whether `record` still waits to be sent: `(lattice, admitted)`.
    pending: Option<(usize, bool)>,
    /// Which lattice emits next (sources interleave round-robin).
    turn: usize,
    /// Per-lattice rounds received, in arrival order.
    received: Vec<Vec<u64>>,
}

impl MiniGraph {
    fn new(lattices: usize, rounds_per_lattice: u64, capacity: usize, budget: usize) -> Self {
        MiniGraph {
            gate: block_gate(lattices, Some(budget)),
            channel: CreditChannel::new(capacity, 2),
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
    fn step_source(&mut self) {
        if self.pending.is_none() {
            // Pick the next lattice with rounds left, round-robin.
            let lattices = self.next_round.len();
            for offset in 0..lattices {
                let lattice = (self.turn + offset) % lattices;
                if self.next_round[lattice] < self.rounds_per_lattice {
                    self.record = [lattice as u64, self.next_round[lattice]];
                    self.next_round[lattice] += 1;
                    self.pending = Some((lattice, false));
                    self.turn = lattice + 1;
                    break;
                }
            }
        }
        let Some((lattice, admitted)) = self.pending else {
            return;
        };
        let admitted = admitted || {
            match self.gate.admit(lattice) {
                Admission::Granted => true,
                Admission::Blocked => false,
                Admission::Shed => unreachable!("Block lanes never shed"),
            }
        };
        self.pending = Some((lattice, admitted));
        if admitted && self.channel.try_send(&self.record) {
            self.pending = None;
        }
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
            self.gate.credit_decode(lattice);
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
    /// budget, every lattice's rounds arrive exactly once, in order.
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
            prop_assert_eq!(graph.gate.outstanding(lattice), 0);
        }
        // Every credit is home on every loop.
        prop_assert_eq!(graph.channel.credits().available() as usize, capacity);
        let channel_report = graph.channel.report("channel");
        prop_assert_eq!(channel_report.credits_consumed, channel_report.credits_issued);
    }
}
