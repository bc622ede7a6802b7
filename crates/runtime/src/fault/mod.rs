//! Deterministic fault injection and the run's fault ledger.
//!
//! A [`FaultPlan`] is a declarative schedule of hostile events — worker
//! crashes, in-flight packet corruption, channel stalls — keyed entirely by
//! *logical* run coordinates (worker id × rounds decoded, lattice id × round
//! index, channel index × round index), never by wall clock or extra
//! randomness.  The same plan against the same seeded machine therefore
//! injects the same faults at the same points every run, which is what lets
//! the recovery tests demand byte-identical frames.  A burst-noise episode
//! is not in the plan: it is part of a lattice's stream
//! ([`LatticeSpec::burst`](crate::lattice_set::LatticeSpec::burst), beside
//! its noise and seed); the ledger counts the lattices that carry one.
//!
//! The plan is carried by
//! [`MachineConfig::fault`](crate::config::MachineConfig) and armed as a
//! [`FaultInjector`] by the engine for each run.  The injector's hooks sit on
//! the producer and worker hot paths but are engineered to cost nothing when
//! the plan is empty: every hook short-circuits on a pre-computed emptiness
//! check, performs no allocation either way, and takes no locks (arming is a
//! compare-and-swap per scheduled fault).  `tests/allocation_free.rs` runs
//! the hooks of a disabled injector under a counting allocator to pin this.
//!
//! What happened under fire is reconciled in the [`FaultReport`] attached to
//! every [`RuntimeReport`](crate::telemetry::RuntimeReport): injected counts
//! (from the injector's own books) versus observed counts (from the event
//! journal and runtime counters).  [`FaultReport::reconciled`] is the
//! self-healing contract in one predicate — every crash recovered by a
//! restart, every poisoned packet quarantined, every scheduled burst seen
//! starting and ending.

use crate::obs::{EventCounts, EventKind};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

/// Kill one worker once it has committed a given number of rounds.
///
/// The crash fires at a batch boundary (no records are in flight inside the
/// worker when it dies), as a panic unwound to the worker's supervisor,
/// which restarts the decode stage — re-`prepare`-ing its decoders — over
/// the same frame shard.  Each scheduled crash fires at most once, so the
/// replacement does not immediately re-crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashFault {
    /// The worker to kill.
    pub worker_id: usize,
    /// Fire once the worker has committed at least this many rounds.
    pub after_decoded: u64,
}

/// Flip one bit of one lattice round's encoded record after admission, while
/// it is "on the wire".
///
/// The poisoned record still travels to a worker, whose codec rejects it
/// (header check or checksum trailer) and quarantines it; the producer
/// accounts the round as shed at injection time so the frame and residual
/// books stay exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorruptionFault {
    /// The lattice whose round is poisoned.
    pub lattice_id: u32,
    /// The round (within that lattice's stream) to poison.
    pub round: u64,
    /// Word index to flip, reduced modulo the record length.
    pub word: usize,
    /// Bit index to flip, reduced modulo 64.
    pub bit: u32,
}

/// Make one channel refuse the producer's sends for a while — a dead
/// or wedged consumer, as seen from the send side.
///
/// The stall arms the first time the producer routes a round to the channel
/// at or after `from_round` (machine-wide emission index) and holds for
/// `duration_ns` of wall-clock time; `u64::MAX` never releases, which is how
/// the watchdog's force-shed degradation path is exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallFault {
    /// The channel that refuses sends.
    pub channel: usize,
    /// Machine-wide emission index at which the stall arms.
    pub from_round: u64,
    /// How long the channel stays dead once armed (`u64::MAX` = forever).
    pub duration_ns: u64,
}

/// A deterministic schedule of injectable faults for one run.
///
/// Empty by default (and in every config built by the public constructors):
/// a plan-free run pays nothing for the hooks.  Build one with the
/// fluent helpers:
///
/// ```rust
/// use nisqplus_runtime::fault::FaultPlan;
///
/// let plan = FaultPlan::default()
///     .crash_worker(1, 10)
///     .corrupt_record(0, 25, 2, 17)
///     .stall_channel(0, 100, 5_000_000);
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Scheduled worker crashes.
    pub crashes: Vec<CrashFault>,
    /// Scheduled packet corruptions.
    pub corruptions: Vec<CorruptionFault>,
    /// Scheduled channel stalls.
    pub stalls: Vec<StallFault>,
}

impl FaultPlan {
    /// Schedules a worker crash once `worker_id` has committed
    /// `after_decoded` rounds.
    #[must_use]
    pub fn crash_worker(mut self, worker_id: usize, after_decoded: u64) -> Self {
        self.crashes.push(CrashFault {
            worker_id,
            after_decoded,
        });
        self
    }

    /// Schedules a single-bit corruption of `(lattice_id, round)`'s encoded
    /// record.
    #[must_use]
    pub fn corrupt_record(mut self, lattice_id: u32, round: u64, word: usize, bit: u32) -> Self {
        self.corruptions.push(CorruptionFault {
            lattice_id,
            round,
            word,
            bit,
        });
        self
    }

    /// Schedules a channel stall.
    #[must_use]
    pub fn stall_channel(mut self, channel: usize, from_round: u64, duration_ns: u64) -> Self {
        self.stalls.push(StallFault {
            channel,
            from_round,
            duration_ns,
        });
        self
    }

    /// `true` when the plan schedules nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.corruptions.is_empty() && self.stalls.is_empty()
    }
}

/// The substring every injected crash panic carries, so test harnesses can
/// tell scheduled panics from real bugs (see
/// [`silence_injected_crash_panics`]).
pub const CRASH_PANIC_MARKER: &str = "fault-injected worker crash";

/// Installs (once, process-wide) a panic hook that swallows the default
/// stderr report for panics carrying [`CRASH_PANIC_MARKER`], delegating
/// everything else to the previous hook.  Injected crashes are *scheduled*
/// events; without this the recovery proptests would spray hundreds of
/// backtraces for panics that are the test passing.
pub fn silence_injected_crash_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|message| message.contains(CRASH_PANIC_MARKER));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// One scheduled fault's arm-once latch plus delivery bookkeeping.
#[derive(Debug, Default)]
struct Armed {
    fired: AtomicBool,
}

impl Armed {
    /// Latches the fault: `true` exactly once.
    fn fire(&self) -> bool {
        !self.fired.swap(true, Ordering::AcqRel)
    }
}

/// The armed, thread-shared runtime form of a [`FaultPlan`].
///
/// Built by the engine for one run and handed by reference to the source
/// stage and every worker seat.  All hooks are lock- and allocation-free; with an
/// empty plan each is a branch on a pre-computed flag.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    crash_armed: Vec<Armed>,
    corruption_armed: Vec<Armed>,
    /// Wall-clock nanoseconds (run epoch) at which each stall armed;
    /// `u64::MAX` = not yet armed.
    stall_started: Vec<AtomicU64>,
    corruptions_delivered: AtomicU64,
    crashes_fired: AtomicU64,
    stalls_fired: AtomicU64,
}

impl FaultInjector {
    /// Arms `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            crash_armed: plan.crashes.iter().map(|_| Armed::default()).collect(),
            corruption_armed: plan.corruptions.iter().map(|_| Armed::default()).collect(),
            stall_started: plan
                .stalls
                .iter()
                .map(|_| AtomicU64::new(u64::MAX))
                .collect(),
            corruptions_delivered: AtomicU64::new(0),
            crashes_fired: AtomicU64::new(0),
            stalls_fired: AtomicU64::new(0),
            plan,
        }
    }

    /// An injector that injects nothing (the default for every run that
    /// doesn't ask for faults).
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(FaultPlan::default())
    }

    /// The plan this injector was armed with.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Worker hook, called at each batch boundary: `true` when a scheduled
    /// crash for `worker_id` should fire now (the worker has committed
    /// `decoded` rounds).  Fires each scheduled crash at most once, so the
    /// supervisor's replacement survives.
    #[must_use]
    pub fn should_crash(&self, worker_id: usize, decoded: u64) -> bool {
        if self.plan.crashes.is_empty() {
            return false;
        }
        for (fault, armed) in self.plan.crashes.iter().zip(&self.crash_armed) {
            if fault.worker_id == worker_id && decoded >= fault.after_decoded && armed.fire() {
                self.crashes_fired.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Producer hook: the `(word, bit)` to flip in `(lattice_id, round)`'s
    /// encoded record, or `None` (the overwhelmingly common case).  Each
    /// scheduled corruption is returned at most once.
    #[must_use]
    pub fn corrupt(&self, lattice_id: u32, round: u64) -> Option<(usize, u32)> {
        if self.plan.corruptions.is_empty() {
            return None;
        }
        for (fault, armed) in self.plan.corruptions.iter().zip(&self.corruption_armed) {
            if fault.lattice_id == lattice_id && fault.round == round && armed.fire() {
                return Some((fault.word, fault.bit));
            }
        }
        None
    }

    /// Producer hook: records that a poisoned record actually reached a
    /// channel (a corrupted round shed before the wire never gets here, and
    /// correspondingly never produces a quarantine).
    pub fn corruption_delivered(&self) {
        self.corruptions_delivered.fetch_add(1, Ordering::Relaxed);
    }

    /// `true` when the plan schedules any channel stalls — the producer's
    /// cheap guard before paying for clock reads on the send path.
    #[must_use]
    pub fn has_stalls(&self) -> bool {
        !self.plan.stalls.is_empty()
    }

    /// Producer hook: whether `channel` currently refuses sends.  Arms any
    /// scheduled stall whose `from_round` has been reached; an armed stall
    /// holds until `duration_ns` of wall clock has passed since arming.
    #[must_use]
    pub fn stall_active(&self, channel: usize, emitted_total: u64, elapsed_ns: u64) -> bool {
        for (fault, started) in self.plan.stalls.iter().zip(&self.stall_started) {
            if fault.channel != channel || emitted_total < fault.from_round {
                continue;
            }
            let armed_at = match started.compare_exchange(
                u64::MAX,
                elapsed_ns,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.stalls_fired.fetch_add(1, Ordering::Relaxed);
                    elapsed_ns
                }
                Err(existing) => existing,
            };
            if elapsed_ns < armed_at.saturating_add(fault.duration_ns) {
                return true;
            }
        }
        false
    }

    /// The injector's own books: how many scheduled faults actually fired.
    #[must_use]
    pub fn snapshot(&self) -> FaultInjections {
        FaultInjections {
            crashes: self.crashes_fired.load(Ordering::Relaxed),
            corruptions: self.corruptions_delivered.load(Ordering::Relaxed),
            stalls: self.stalls_fired.load(Ordering::Relaxed),
        }
    }
}

/// How many scheduled faults actually fired, from the injector's own books —
/// the "injected" side of the [`FaultReport`] reconciliation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultInjections {
    /// Worker crashes fired.
    pub crashes: u64,
    /// Poisoned records that reached a channel.
    pub corruptions: u64,
    /// Channel stalls armed.
    pub stalls: u64,
}

/// The run's fault ledger: what was injected, what the runtime observed, and
/// whether the two sides reconcile — attached to every
/// [`RuntimeReport`](crate::telemetry::RuntimeReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Whether the run carried a non-empty [`FaultPlan`] or a lattice with a
    /// burst episode.
    pub enabled: bool,
    /// Worker crashes the injector fired.
    pub injected_crashes: u64,
    /// Worker crashes the supervisors caught (journal `worker_crash`).
    pub observed_crashes: u64,
    /// Worker restarts the supervisors performed (journal `worker_restart`).
    pub worker_restarts: u64,
    /// Poisoned records the injector delivered to a channel.
    pub injected_corruptions: u64,
    /// Records the workers quarantined as undecodable.
    pub quarantined: u64,
    /// Lattices whose stream carries a burst episode
    /// ([`LatticeSpec::burst`](crate::lattice_set::LatticeSpec::burst)).
    pub planned_bursts: u64,
    /// Burst episodes the source saw begin (journal `burst_start`).
    pub bursts_started: u64,
    /// Burst episodes the source saw end (journal `burst_end`).
    pub bursts_ended: u64,
    /// Channel stalls the injector armed.
    pub injected_stalls: u64,
    /// Rounds the backpressure watchdog force-shed (journal
    /// `watchdog_trip`).
    pub watchdog_trips: u64,
    /// Whether the run finished degraded: the watchdog had to force-shed to
    /// end the run instead of hanging (the report is then a diagnostic, not
    /// a clean measurement).
    pub degraded: bool,
}

impl FaultReport {
    /// Folds the number of lattices that carry a burst episode, the
    /// injector's books, the event journal's totals and the workers'
    /// quarantine counter into the ledger.
    #[must_use]
    pub fn assemble(
        plan: &FaultPlan,
        planned_bursts: u64,
        injected: FaultInjections,
        counts: &EventCounts,
        quarantined: u64,
    ) -> Self {
        FaultReport {
            enabled: !plan.is_empty() || planned_bursts > 0,
            injected_crashes: injected.crashes,
            observed_crashes: counts[EventKind::WorkerCrash],
            worker_restarts: counts[EventKind::WorkerRestart],
            injected_corruptions: injected.corruptions,
            quarantined,
            planned_bursts,
            bursts_started: counts[EventKind::BurstStart],
            bursts_ended: counts[EventKind::BurstEnd],
            injected_stalls: injected.stalls,
            watchdog_trips: counts[EventKind::WatchdogTrip],
            degraded: counts[EventKind::WatchdogTrip] > 0,
        }
    }

    /// The self-healing contract in one predicate: every injected crash was
    /// observed and answered by exactly one restart, every delivered
    /// poisoned record was quarantined (and nothing else was), and every
    /// scheduled burst was seen starting *and* ending inside the run.
    #[must_use]
    pub fn reconciled(&self) -> bool {
        self.injected_crashes == self.observed_crashes
            && self.observed_crashes == self.worker_restarts
            && self.injected_corruptions == self.quarantined
            && self.bursts_started == self.planned_bursts
            && self.bursts_ended == self.planned_bursts
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} crash(es)/{} restart(s) | {} corrupted → {} quarantined | \
             {}/{} burst(s) started/{} ended | {} stall(s) | {} watchdog trip(s) | {}",
            self.injected_crashes,
            self.worker_restarts,
            self.injected_corruptions,
            self.quarantined,
            self.bursts_started,
            self.planned_bursts,
            self.bursts_ended,
            self.injected_stalls,
            self.watchdog_trips,
            if !self.enabled {
                "clean"
            } else if self.reconciled() {
                "RECONCILED"
            } else {
                "UNRECONCILED"
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let injector = FaultInjector::disabled();
        assert!(injector.plan().is_empty());
        assert!(!injector.should_crash(0, 1_000_000));
        assert_eq!(injector.corrupt(0, 0), None);
        assert!(!injector.has_stalls());
        assert!(!injector.stall_active(0, 0, 0));
        assert_eq!(injector.snapshot(), FaultInjections::default());
    }

    #[test]
    fn crash_fires_once_at_its_threshold() {
        let injector = FaultInjector::new(FaultPlan::default().crash_worker(1, 10));
        assert!(!injector.should_crash(1, 9), "below the threshold");
        assert!(!injector.should_crash(0, 50), "wrong worker");
        assert!(injector.should_crash(1, 10));
        assert!(
            !injector.should_crash(1, 11),
            "the replacement must not re-crash"
        );
        assert_eq!(injector.snapshot().crashes, 1);
    }

    #[test]
    fn corruption_targets_one_round_once() {
        let injector = FaultInjector::new(FaultPlan::default().corrupt_record(2, 7, 3, 41));
        assert_eq!(injector.corrupt(2, 6), None);
        assert_eq!(injector.corrupt(1, 7), None);
        assert_eq!(injector.corrupt(2, 7), Some((3, 41)));
        assert_eq!(injector.corrupt(2, 7), None, "armed once");
        // Delivery is the producer's separate call, after the send succeeds.
        assert_eq!(injector.snapshot().corruptions, 0);
        injector.corruption_delivered();
        assert_eq!(injector.snapshot().corruptions, 1);
    }

    #[test]
    fn stall_arms_at_its_round_and_releases_after_its_duration() {
        let injector = FaultInjector::new(FaultPlan::default().stall_channel(1, 5, 1_000));
        assert!(injector.has_stalls());
        assert!(!injector.stall_active(1, 4, 0), "before its round");
        assert!(!injector.stall_active(0, 10, 0), "other channel");
        // Arms at round 5, elapsed 100 ns: dead until 1_100 ns.
        assert!(injector.stall_active(1, 5, 100));
        assert!(injector.stall_active(1, 6, 1_099));
        assert!(!injector.stall_active(1, 7, 1_100), "stall released");
        assert_eq!(injector.snapshot().stalls, 1);
    }

    #[test]
    fn forever_stall_never_releases() {
        let injector = FaultInjector::new(FaultPlan::default().stall_channel(0, 0, u64::MAX));
        assert!(injector.stall_active(0, 0, 0));
        assert!(injector.stall_active(0, 100, u64::MAX - 1));
    }

    #[test]
    fn report_reconciles_matching_books() {
        let plan = FaultPlan::default()
            .crash_worker(0, 5)
            .corrupt_record(1, 3, 0, 1);
        let injected = FaultInjections {
            crashes: 1,
            corruptions: 1,
            stalls: 0,
        };
        let mut counts = EventCounts::default();
        for kind in [
            EventKind::WorkerCrash,
            EventKind::WorkerRestart,
            EventKind::Quarantine,
            EventKind::BurstStart,
            EventKind::BurstEnd,
        ] {
            counts[kind] = 1;
        }
        // One lattice of the machine carries a burst episode.
        let report = FaultReport::assemble(&plan, 1, injected, &counts, 1);
        assert!(report.enabled);
        assert!(report.reconciled(), "{report}");
        assert!(!report.degraded);

        // A burst episode alone makes the ledger worth printing.
        let burst_only = FaultInjections::default();
        let mut burst_counts = EventCounts::default();
        burst_counts[EventKind::BurstStart] = 1;
        burst_counts[EventKind::BurstEnd] = 1;
        let report = FaultReport::assemble(&FaultPlan::default(), 1, burst_only, &burst_counts, 0);
        assert!(report.enabled);
        assert!(report.reconciled(), "{report}");

        // A lost restart breaks the ledger.
        let mut broken = counts;
        broken[EventKind::WorkerRestart] = 0;
        let report = FaultReport::assemble(&plan, 1, injected, &broken, 1);
        assert!(!report.reconciled());

        // A watchdog trip marks the run degraded without (alone) breaking
        // reconciliation.
        let mut tripped = counts;
        tripped[EventKind::WatchdogTrip] = 2;
        let report = FaultReport::assemble(&plan, 1, injected, &tripped, 1);
        assert!(report.degraded);
        assert!(report.reconciled());
    }

    #[test]
    fn display_names_the_verdict() {
        let clean = FaultReport::default();
        assert!(clean.to_string().contains("clean"));
        let mut loud = FaultReport {
            enabled: true,
            ..FaultReport::default()
        };
        assert!(loud.to_string().contains("RECONCILED"));
        loud.injected_crashes = 1;
        assert!(loud.to_string().contains("UNRECONCILED"));
    }
}
