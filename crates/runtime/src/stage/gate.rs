//! The QoS admission gate: per-lattice push policy and outstanding budget.
//!
//! The gate is the pipeline's first seam.  Every generated round is offered
//! to its lattice's *lane*; the lane answers with an [`Admission`]:
//!
//! * [`Admission::Granted`] — the round may proceed to its channel (and, if
//!   the lane has a budget, one budget credit is now held on its behalf);
//! * [`Admission::Blocked`] — a [`PushPolicy::Block`] lane is out of budget
//!   credits; the caller stalls and re-offers (each refusal is one counted
//!   backpressure spin);
//! * [`Admission::Shed`] — a [`PushPolicy::Drop`] lane is out of budget
//!   credits; the round is dropped at the door, before it costs a channel
//!   slot.
//!
//! A lane's budget is a pipeline-spanning credit loop (see
//! [`CreditCounter`]): the credit acquired at admission is returned by the
//! decode worker only when the round's correction is committed
//! ([`QosGate::credit_decode`]), so the budget bounds the lattice's
//! *outstanding* rounds across every stage between gate and sink, exactly
//! like [`LatticeSpec::queue_budget`](crate::lattice_set::LatticeSpec::queue_budget)
//! promises.  A `Drop`-lane round that is granted but then refused by a full
//! channel returns its credit through [`QosGate::refund`].

use crate::config::{MachineConfig, PushPolicy};
use crate::lattice_set::LatticeSet;
use crate::stage::credit::CreditCounter;
use crate::stage::StageReport;
use std::sync::atomic::{AtomicU64, Ordering};

/// The gate's answer to one admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Proceed to the channel; a budget credit (if any) is held.
    Granted,
    /// Out of budget under [`PushPolicy::Block`]: stall and re-offer.
    Blocked,
    /// Out of budget under [`PushPolicy::Drop`]: drop the round now.
    Shed,
}

/// One lattice's admission lane.
#[derive(Debug)]
struct GateLane {
    policy: PushPolicy,
    /// The outstanding-rounds budget; `None` admits unconditionally.
    budget: Option<CreditCounter>,
    granted: AtomicU64,
    blocked: AtomicU64,
    shed: AtomicU64,
}

/// Per-lattice admission control, shared by reference between the source
/// (admission) and the decode workers (credit return).
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
                    budget: spec
                        .queue_budget
                        .map(|budget| CreditCounter::new(budget as u64)),
                    granted: AtomicU64::new(0),
                    blocked: AtomicU64::new(0),
                    shed: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// A gate of `lanes` budget-less [`PushPolicy::Block`] lanes: every
    /// admission is granted.  Useful for driving a worker directly in tests.
    #[must_use]
    pub fn unbounded(lanes: usize) -> Self {
        QosGate {
            lanes: (0..lanes)
                .map(|_| GateLane {
                    policy: PushPolicy::Block,
                    budget: None,
                    granted: AtomicU64::new(0),
                    blocked: AtomicU64::new(0),
                    shed: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Offers one round of `lattice_id` for admission.
    pub fn admit(&self, lattice_id: usize) -> Admission {
        let lane = &self.lanes[lattice_id];
        let admitted = match &lane.budget {
            Some(budget) => budget
                .acquire()
                .map(|grant| budget.record_peak(grant))
                .is_some(),
            None => true,
        };
        match (admitted, lane.policy) {
            (true, _) => {
                lane.granted.fetch_add(1, Ordering::Relaxed);
                Admission::Granted
            }
            (false, PushPolicy::Block) => {
                lane.blocked.fetch_add(1, Ordering::Relaxed);
                Admission::Blocked
            }
            (false, PushPolicy::Drop) => {
                lane.shed.fetch_add(1, Ordering::Relaxed);
                Admission::Shed
            }
        }
    }

    /// Returns a granted round's budget credit *without* it having been
    /// decoded — the path for a `Drop`-lane round that was admitted but
    /// then refused by its full channel and shed.
    pub fn refund(&self, lattice_id: usize) {
        if let Some(budget) = &self.lanes[lattice_id].budget {
            budget.release();
        }
    }

    /// Returns the budget credit of a committed round.  Decode workers call
    /// this once per decoded round, closing the gate-to-sink credit loop.
    pub fn credit_decode(&self, lattice_id: usize) {
        if let Some(budget) = &self.lanes[lattice_id].budget {
            budget.release();
        }
    }

    /// The push policy lane `lattice_id` admits under.
    #[must_use]
    pub fn policy(&self, lattice_id: usize) -> PushPolicy {
        self.lanes[lattice_id].policy
    }

    /// Lane `lattice_id`'s rounds currently between admission and commit
    /// (zero for budget-less lanes, which do not track flight).
    #[must_use]
    pub fn outstanding(&self, lattice_id: usize) -> u64 {
        self.lanes[lattice_id]
            .budget
            .as_ref()
            .map_or(0, CreditCounter::in_flight)
    }

    /// Number of lanes (== lattices).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// This gate's [`StageReport`]: accepted = granted admissions, rejected
    /// = shed rounds, stall cycles = blocked (retried) admissions, credit
    /// totals summed over every lane's budget loop, occupancy peak = the most
    /// rounds any one budgeted lane held between admission and commit (0 for
    /// a gate without budgets).
    #[must_use]
    pub fn report(&self, stage: impl Into<String>) -> StageReport {
        let mut report = StageReport::named(stage);
        for lane in &self.lanes {
            report.accepted += lane.granted.load(Ordering::Relaxed);
            report.emitted += lane.granted.load(Ordering::Relaxed);
            report.rejected += lane.shed.load(Ordering::Relaxed);
            report.stall_cycles += lane.blocked.load(Ordering::Relaxed);
            if let Some(budget) = &lane.budget {
                report.credits_consumed += budget.consumed();
                report.credits_issued += budget.issued();
                report.occupancy_peak = report.occupancy_peak.max(budget.in_flight_peak());
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice_set::LatticeSpec;

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

    #[test]
    fn block_lane_blocks_at_budget_and_resumes_after_commit() {
        let gate = gate_with(PushPolicy::Block, Some(2));
        assert_eq!(gate.admit(0), Admission::Granted);
        assert_eq!(gate.admit(0), Admission::Granted);
        assert_eq!(gate.admit(0), Admission::Blocked);
        assert_eq!(gate.outstanding(0), 2);
        // A committed decode returns the credit; the retry now succeeds.
        gate.credit_decode(0);
        assert_eq!(gate.admit(0), Admission::Granted);
        assert_eq!(gate.admit(0), Admission::Blocked);
        let report = gate.report("gate");
        assert_eq!(report.accepted, 3);
        assert_eq!(report.stall_cycles, 2);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn drop_lane_sheds_at_budget_and_refund_reopens_it() {
        let gate = gate_with(PushPolicy::Drop, Some(1));
        assert_eq!(gate.admit(0), Admission::Granted);
        assert_eq!(gate.admit(0), Admission::Shed);
        // The granted round's channel send failed: its credit comes home and
        // the next round is admitted again.
        gate.refund(0);
        assert_eq!(gate.admit(0), Admission::Granted);
        let report = gate.report("gate");
        assert_eq!(report.accepted, 2);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.stall_cycles, 0);
    }

    #[test]
    fn budget_less_lane_admits_unconditionally() {
        let gate = gate_with(PushPolicy::Block, None);
        for _ in 0..100 {
            assert_eq!(gate.admit(0), Admission::Granted);
        }
        assert_eq!(gate.outstanding(0), 0);
        assert_eq!(gate.report("gate").credits_consumed, 0);
    }

    /// The gate's occupancy peak is a high-water mark kept at admission, not
    /// the in-flight count left when the report is assembled.
    #[test]
    fn occupancy_peak_is_the_most_rounds_a_budgeted_lane_ever_held() {
        let gate = gate_with(PushPolicy::Block, Some(2));
        assert_eq!(gate.admit(0), Admission::Granted);
        assert_eq!(gate.admit(0), Admission::Granted);
        gate.credit_decode(0);
        assert_eq!(gate.admit(0), Admission::Granted);
        assert_eq!(gate.report("gate").occupancy_peak, 2);
        // Every credit home again: the peak stands.
        gate.credit_decode(0);
        gate.credit_decode(0);
        assert_eq!(gate.outstanding(0), 0);
        assert_eq!(gate.report("gate").occupancy_peak, 2);

        let unbudgeted = gate_with(PushPolicy::Block, None);
        assert_eq!(unbudgeted.admit(0), Admission::Granted);
        assert_eq!(unbudgeted.report("gate").occupancy_peak, 0);
    }

    #[test]
    fn unbounded_gate_serves_every_lane() {
        let gate = QosGate::unbounded(3);
        assert_eq!(gate.lanes(), 3);
        for lane in 0..3 {
            assert_eq!(gate.admit(lane), Admission::Granted);
            assert_eq!(gate.policy(lane), PushPolicy::Block);
        }
    }
}
