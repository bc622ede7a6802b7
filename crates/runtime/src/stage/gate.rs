//! The QoS admission gate: per-lattice push policy and outstanding budget.
//!
//! The gate is the pipeline's first seam.  Every generated round is offered
//! to its lattice's *lane*; the lane answers with an [`Admission`]:
//!
//! * [`Admission::Granted`] — the round may proceed to its channel;
//! * [`Admission::Blocked`] — a [`PushPolicy::Block`] lane is at its budget;
//!   the caller stalls and re-offers (each refusal is one counted
//!   backpressure spin);
//! * [`Admission::Shed`] — a [`PushPolicy::Drop`] lane is at its budget; the
//!   round is dropped at the door, before it costs a channel slot.
//!
//! A lane's budget bounds the lattice's *outstanding* rounds — enqueued, not
//! yet committed — across every stage between gate and sink, exactly like
//! [`LatticeSpec::queue_budget`](crate::lattice_set::LatticeSpec::queue_budget)
//! promises, and the book of that quantity is the lattice's own
//! [`LatticeCounters`]: a budgeted lane admits iff `enqueued − decoded <
//! queue_budget`.  The source is the only writer of `enqueued` and workers
//! only ever raise `decoded`, so a stale read can only under-admit; nothing
//! is published through the budget, so the reads are `Relaxed`.  Admission
//! holds nothing: a granted round that its channel then refuses, or that is
//! shed for any other reason, simply never becomes `enqueued`.  The gate is
//! source-side state — workers never see it — and a budget-less lane reads
//! no line a worker writes.

use crate::config::{MachineConfig, PushPolicy};
use crate::lattice_set::LatticeSet;
use crate::stage::{resume_stride, StageReport};
use crate::telemetry::LatticeCounters;

/// The gate's answer to one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Proceed to the channel.
    Granted,
    /// At budget under [`PushPolicy::Block`]: stall and re-offer.
    Blocked,
    /// At budget under [`PushPolicy::Drop`]: drop the round now.
    Shed,
}

/// One lattice's admission lane.
#[derive(Debug)]
struct GateLane {
    policy: PushPolicy,
    /// The outstanding-rounds budget; `None` admits unconditionally.
    budget: Option<u64>,
    granted: u64,
    blocked: u64,
    shed: u64,
    /// The most outstanding rounds any grant of a budgeted lane left the
    /// lattice with (the granted round included).
    outstanding_peak: u64,
}

/// Per-lattice admission control, owned by the source.
#[derive(Debug)]
pub struct QosGate {
    lanes: Vec<GateLane>,
}

impl QosGate {
    /// The gate for `config`'s machine: lane `i` gets lattice `i`'s
    /// effective push policy and queue budget.
    #[must_use]
    pub fn for_machine(config: &MachineConfig, set: &LatticeSet) -> Self {
        QosGate {
            lanes: set
                .iter()
                .map(|(_, spec, _)| GateLane {
                    policy: config.policy_for(spec),
                    budget: spec.queue_budget.map(|budget| budget as u64),
                    granted: 0,
                    blocked: 0,
                    shed: 0,
                    outstanding_peak: 0,
                })
                .collect(),
        }
    }

    /// Offers one round of `lattice_id` for admission against that
    /// lattice's own `counters`.
    pub fn admit(&mut self, lattice_id: usize, counters: &LatticeCounters) -> Admission {
        let lane = &mut self.lanes[lattice_id];
        // What the lattice would have outstanding with this round granted
        // (budgeted lanes only: a budget-less lane reads no worker's line).
        let would_hold = lane.budget.map(|_| counters.outstanding() + 1);
        // Both `Some` or both `None`; `None <= None` admits unconditionally.
        let admitted = would_hold <= lane.budget;
        match (admitted, lane.policy) {
            (true, _) => {
                lane.granted += 1;
                lane.outstanding_peak = lane.outstanding_peak.max(would_hold.unwrap_or(0));
                Admission::Granted
            }
            (false, PushPolicy::Block) => {
                lane.blocked += 1;
                Admission::Blocked
            }
            (false, PushPolicy::Drop) => {
                lane.shed += 1;
                Admission::Shed
            }
        }
    }

    /// The outstanding count at or below which a [`Admission::Blocked`] lane
    /// is worth re-offering to: [`resume_stride`] rounds under the budget,
    /// the hysteresis a full channel's sender waits out
    /// ([`Channel::can_resume`](crate::stage::Channel::can_resume)).  Unlike
    /// that wait, this one has only the workers' `decoded` line to watch.
    /// `None` for a budget-less lane, which never blocks.
    pub(crate) fn resume_at(&self, lattice_id: usize) -> Option<u64> {
        let budget = self.lanes[lattice_id].budget?;
        Some(budget - resume_stride(budget))
    }

    /// The push policy lane `lattice_id` admits under.
    #[must_use]
    pub fn policy(&self, lattice_id: usize) -> PushPolicy {
        self.lanes[lattice_id].policy
    }

    /// This gate's [`StageReport`]: accepted = granted admissions, rejected
    /// = shed rounds, stall cycles = blocked (retried) admissions, occupancy
    /// peak = the most outstanding rounds any one budgeted lane was granted
    /// up to (0 for a gate without budgets).
    #[must_use]
    pub fn report(&self, stage: impl Into<String>) -> StageReport {
        let mut report = StageReport::named(stage);
        for lane in &self.lanes {
            report.accepted += lane.granted;
            report.emitted += lane.granted;
            report.rejected += lane.shed;
            report.stall_cycles += lane.blocked;
            report.occupancy_peak = report.occupancy_peak.max(lane.outstanding_peak);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice_set::LatticeSpec;
    use std::sync::atomic::Ordering;

    fn gate_with(policy: PushPolicy, budget: Option<usize>) -> QosGate {
        let mut spec = LatticeSpec::new(3);
        spec.rounds = 10;
        spec.push_policy = Some(policy);
        spec.queue_budget = budget;
        let config = MachineConfig {
            lattices: vec![spec],
            ..MachineConfig::new(&[3], 0)
        };
        let set = LatticeSet::new(config.lattices.clone()).unwrap();
        QosGate::for_machine(&config, &set)
    }

    /// Offers a round and, as the source does, counts a granted one as
    /// enqueued.
    fn offer(gate: &mut QosGate, counters: &LatticeCounters) -> Admission {
        let admission = gate.admit(0, counters);
        if admission == Admission::Granted {
            counters.enqueued.fetch_add(1, Ordering::Relaxed);
        }
        admission
    }

    #[test]
    fn block_lane_blocks_at_budget_and_resumes_after_commit() {
        let mut gate = gate_with(PushPolicy::Block, Some(2));
        let counters = LatticeCounters::default();
        assert_eq!(offer(&mut gate, &counters), Admission::Granted);
        assert_eq!(offer(&mut gate, &counters), Admission::Granted);
        assert_eq!(offer(&mut gate, &counters), Admission::Blocked);
        assert_eq!(counters.outstanding(), 2);
        // A committed decode lowers the outstanding count; the retry now
        // succeeds.
        counters.decoded.fetch_add(1, Ordering::Relaxed);
        assert_eq!(offer(&mut gate, &counters), Admission::Granted);
        assert_eq!(offer(&mut gate, &counters), Admission::Blocked);
        let report = gate.report("gate");
        assert_eq!(report.accepted, 3);
        assert_eq!(report.stall_cycles, 2);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn drop_lane_sheds_at_budget_and_a_refused_send_holds_nothing() {
        let mut gate = gate_with(PushPolicy::Drop, Some(1));
        let counters = LatticeCounters::default();
        // Granted, but the channel refused the send: the round never became
        // enqueued, so the lane is still open for the next one.
        assert_eq!(gate.admit(0, &counters), Admission::Granted);
        assert_eq!(offer(&mut gate, &counters), Admission::Granted);
        assert_eq!(offer(&mut gate, &counters), Admission::Shed);
        let report = gate.report("gate");
        assert_eq!(report.accepted, 2);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.stall_cycles, 0);
    }

    #[test]
    fn a_blocked_lane_resumes_an_eighth_under_its_budget() {
        for (budget, resume_at) in [(1, 0), (2, 1), (8, 7), (16, 14), (1024, 896)] {
            let gate = gate_with(PushPolicy::Block, Some(budget));
            assert_eq!(gate.resume_at(0), Some(resume_at), "budget {budget}");
        }
        assert_eq!(gate_with(PushPolicy::Block, None).resume_at(0), None);
    }

    #[test]
    fn budget_less_lane_admits_unconditionally() {
        let mut gate = gate_with(PushPolicy::Block, None);
        let counters = LatticeCounters::default();
        for _ in 0..100 {
            assert_eq!(offer(&mut gate, &counters), Admission::Granted);
        }
        assert_eq!(gate.policy(0), PushPolicy::Block);
        assert_eq!(gate.report("gate").occupancy_peak, 0);
    }

    /// The gate's occupancy peak is a high-water mark kept at admission, not
    /// the outstanding count left when the report is assembled.
    #[test]
    fn occupancy_peak_is_the_most_rounds_a_budgeted_lane_ever_held() {
        let mut gate = gate_with(PushPolicy::Block, Some(2));
        let counters = LatticeCounters::default();
        assert_eq!(offer(&mut gate, &counters), Admission::Granted);
        assert_eq!(gate.report("gate").occupancy_peak, 1);
        assert_eq!(offer(&mut gate, &counters), Admission::Granted);
        counters.decoded.fetch_add(1, Ordering::Relaxed);
        assert_eq!(offer(&mut gate, &counters), Admission::Granted);
        assert_eq!(gate.report("gate").occupancy_peak, 2);
        // Everything committed: the peak stands.
        counters.decoded.fetch_add(2, Ordering::Relaxed);
        assert_eq!(counters.outstanding(), 0);
        assert_eq!(gate.report("gate").occupancy_peak, 2);
    }
}
