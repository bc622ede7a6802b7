//! Deterministic fault injection and the run's fault report.
//!
//! A [`FaultPlan`] is a declarative schedule of hostile events — worker
//! crashes and ring stalls — keyed entirely by *logical* run coordinates
//! (worker id × rounds decoded, round index), never by wall clock or extra
//! randomness.  The same plan against the same seeded machine therefore
//! injects the same faults at the same points every run, which is what lets
//! the recovery tests demand byte-identical frames.  A burst-noise episode
//! is not in the plan: it is physics, part of a lattice's noise schedule
//! ([`LatticeSpec::burst`](crate::lattice_set::LatticeSpec::burst), beside
//! its noise and seed), not an injected fault.
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
//! The [`FaultReport`] attached to every
//! [`RuntimeReport`](crate::telemetry::RuntimeReport) holds the injected
//! side alone, from the injector's own books; what the runtime observed is
//! counted once, in the event journal and the runtime counters.
//! [`RuntimeReport::check_invariants`](crate::telemetry::RuntimeReport::check_invariants)
//! holds the two sides against each other — every injected crash observed
//! and recovered by a restart.

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

/// Make the ring refuse the producer's sends for a while — a dead or
/// wedged worker pool, as seen from the send side.
///
/// The stall arms the first time the producer offers a round to the ring
/// at or after `from_round` (machine-wide emission index) and holds for
/// `duration_ns` of wall-clock time; `u64::MAX` never releases, which is how
/// the watchdog's force-shed degradation path is exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallFault {
    /// Machine-wide emission index at which the stall arms.
    pub from_round: u64,
    /// How long the ring stays shut once armed (`u64::MAX` = forever).
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
///     .stall_ring(100, 5_000_000);
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Scheduled worker crashes.
    pub crashes: Vec<CrashFault>,
    /// Scheduled ring stalls.
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

    /// Schedules a ring stall.
    #[must_use]
    pub fn stall_ring(mut self, from_round: u64, duration_ns: u64) -> Self {
        self.stalls.push(StallFault {
            from_round,
            duration_ns,
        });
        self
    }

    /// `true` when the plan schedules nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.stalls.is_empty()
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

/// One scheduled crash's arm-once latch.
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
    /// Wall-clock nanoseconds (run epoch) at which each stall armed;
    /// `u64::MAX` = not yet armed.
    stall_started: Vec<AtomicU64>,
    crashes_fired: AtomicU64,
    stalls_fired: AtomicU64,
}

impl FaultInjector {
    /// Arms `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            crash_armed: plan.crashes.iter().map(|_| Armed::default()).collect(),
            stall_started: plan
                .stalls
                .iter()
                .map(|_| AtomicU64::new(u64::MAX))
                .collect(),
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

    /// `true` when the plan schedules any ring stalls — the producer's
    /// cheap guard before paying for clock reads on the send path.
    #[must_use]
    pub fn has_stalls(&self) -> bool {
        !self.plan.stalls.is_empty()
    }

    /// Producer hook: whether the ring currently refuses sends.  Arms any
    /// scheduled stall whose `from_round` has been reached; an armed stall
    /// holds until `duration_ns` of wall clock has passed since arming.
    #[must_use]
    pub fn stall_active(&self, emitted_total: u64, elapsed_ns: u64) -> bool {
        for (fault, started) in self.plan.stalls.iter().zip(&self.stall_started) {
            if emitted_total < fault.from_round {
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
            stalls: self.stalls_fired.load(Ordering::Relaxed),
        }
    }
}

/// How many scheduled faults actually fired, from the injector's own books —
/// what the [`FaultReport`] carries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultInjections {
    /// Worker crashes fired.
    pub crashes: u64,
    /// Ring stalls armed.
    pub stalls: u64,
}

/// What the run's fault plan injected, attached to every
/// [`RuntimeReport`](crate::telemetry::RuntimeReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Whether the run carried a non-empty [`FaultPlan`].
    pub enabled: bool,
    /// Worker crashes the injector fired.
    pub injected_crashes: u64,
    /// Ring stalls the injector armed.
    pub injected_stalls: u64,
}

impl FaultReport {
    /// Folds the injector's books into the report.
    #[must_use]
    pub fn assemble(plan: &FaultPlan, injected: FaultInjections) -> Self {
        FaultReport {
            enabled: !plan.is_empty(),
            injected_crashes: injected.crashes,
            injected_stalls: injected.stalls,
        }
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
        assert!(!injector.has_stalls());
        assert!(!injector.stall_active(0, 0));
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
    fn stall_arms_at_its_round_and_releases_after_its_duration() {
        let injector = FaultInjector::new(FaultPlan::default().stall_ring(5, 1_000));
        assert!(injector.has_stalls());
        assert!(!injector.stall_active(4, 0), "before its round");
        // Arms at round 5, elapsed 100 ns: dead until 1_100 ns.
        assert!(injector.stall_active(5, 100));
        assert!(injector.stall_active(6, 1_099));
        assert!(!injector.stall_active(7, 1_100), "stall released");
        assert_eq!(injector.snapshot().stalls, 1);
    }

    #[test]
    fn forever_stall_never_releases() {
        let injector = FaultInjector::new(FaultPlan::default().stall_ring(0, u64::MAX));
        assert!(injector.stall_active(0, 0));
        assert!(injector.stall_active(100, u64::MAX - 1));
    }
}
