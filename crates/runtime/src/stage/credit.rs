//! Credit counters: the flow-control token of every stage seam.
//!
//! A [`CreditCounter`] models the credit loop of a latency-insensitive
//! hardware channel: the receiver grants the sender a fixed number of
//! credits up front (its buffer depth), the sender consumes one credit per
//! transfer, and the receiver returns the credit when the transfer leaves
//! its buffer.  The sender can therefore never overrun the receiver — the
//! credit counter *is* the backpressure, and exhaustion is observable as a
//! counted stall instead of a lost record.
//!
//! The runtime uses credit loops at two scopes:
//!
//! * **one seam** — a [`CreditChannel`](crate::stage::CreditChannel) grants
//!   exactly its ring capacity and returns each credit at pop time, so
//!   `available() == free slots` whenever no receive is mid-flight;
//! * **several stages** — a per-lattice queue budget
//!   ([`LatticeSpec::queue_budget`](crate::lattice_set::LatticeSpec::queue_budget))
//!   is a credit loop spanning the whole pipeline: the
//!   [`QosGate`](crate::stage::QosGate) consumes a credit at admission and
//!   the decode stage returns it only when the round's correction is
//!   committed, bounding the lattice's *outstanding* rounds end to end.
//!
//! # Two single-writer counters
//!
//! The loop is two monotone counters, each advanced by one side only and
//! each on a cache line the other side does not write:
//!
//! * `consumed` — credits ever acquired; advanced by *senders*
//!   (compare-and-swap).  Beside it on the senders' line sits
//!   `issued_seen`, the senders' cached lower bound of `issued`;
//! * `issued` — credits ever returned; advanced by *receivers*
//!   (`fetch_add`), alone on the receivers' line.
//!
//! There is no third book: `available() = initial + issued − consumed` is
//! derived.  A sender is granted a credit while `consumed < initial +
//! issued_seen` and re-reads the receivers' line only when that cached view
//! says "exhausted" — in a channel that keeps up, once per `initial` sends
//! instead of once per send.  Three invariants carry the argument (the tests
//! below assert each):
//!
//! * **`seen-is-conservative`** — `issued_seen ≤ issued` at every instant:
//!   `issued_seen` only ever takes a value that was loaded from `issued`
//!   (folded in with `fetch_max`), and `issued` never decreases.  So a grant
//!   made against the cached view would also have been made against the
//!   true counter, for any number of senders.
//! * **`never-oversubscribed`** — `consumed ≤ initial + issued` at every
//!   instant: a grant is the compare-and-swap `consumed → consumed + 1`
//!   taken under `consumed < initial + issued_seen ≤ initial + issued`, and
//!   a failed swap re-checks against the value it lost to.
//! * **`balanced-at-quiescence`** — once every acquired credit has been
//!   released, `consumed == issued` and `available() == initial`.
//!
//! Orderings: [`CreditCounter::release`] is a `Release` increment of
//! `issued`; a sender observes it either directly (`Acquire` load of
//! `issued`) or through `issued_seen` (written `Release`, read `Acquire`),
//! so whatever the receiver did before returning a credit happens-before the
//! grant that spends it.  Grants order among senders through the `AcqRel`
//! swap on `consumed`.

use std::sync::atomic::{AtomicU64, Ordering};

/// The senders' cache line: written by senders only
/// ([`CreditCounter::try_acquire`], [`CreditCounter::record_peak`]).
#[derive(Debug)]
#[repr(align(64))]
struct SendersLine {
    /// Total credits ever consumed (successful acquisitions).
    consumed: AtomicU64,
    /// The senders' cached lower bound of `ReceiversLine::issued`.
    issued_seen: AtomicU64,
    /// Credits-in-flight high-water mark over the grants handed to
    /// [`CreditCounter::record_peak`].
    in_flight_peak: AtomicU64,
    /// The up-front grant (immutable).
    initial: u64,
}

/// The receivers' cache line: written by [`CreditCounter::release`] only.
#[derive(Debug)]
#[repr(align(64))]
struct ReceiversLine {
    /// Total credits ever returned (replenishments; the initial grant is
    /// not counted).
    issued: AtomicU64,
}

/// What a successful acquisition saw: what [`CreditCounter::record_peak`]
/// needs to keep the in-flight high-water mark without re-reading the
/// receivers' line on every grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Grant {
    /// `consumed` right after this acquisition (its own credit included).
    pub consumed: u64,
    /// The `issued_seen` value the credit was granted under.
    pub issued_seen: u64,
}

/// An atomic credit counter: `initial` credits granted up front, consumed
/// with [`CreditCounter::try_acquire`] and returned with
/// [`CreditCounter::release`].  All operations are lock-free and safe to
/// share across threads by reference.
#[derive(Debug)]
pub struct CreditCounter {
    senders: SendersLine,
    receivers: ReceiversLine,
}

impl CreditCounter {
    /// A counter with `initial` credits granted up front.
    #[must_use]
    pub fn new(initial: u64) -> Self {
        CreditCounter {
            senders: SendersLine {
                consumed: AtomicU64::new(0),
                issued_seen: AtomicU64::new(0),
                in_flight_peak: AtomicU64::new(0),
                initial,
            },
            receivers: ReceiversLine {
                issued: AtomicU64::new(0),
            },
        }
    }

    /// Consumes one credit.  Returns `false` (and consumes nothing) when no
    /// credit is available — the caller's cue to stall, shed, or retry.
    pub fn try_acquire(&self) -> bool {
        self.acquire().is_some()
    }

    /// [`CreditCounter::try_acquire`], reporting what the grant saw.
    pub(crate) fn acquire(&self) -> Option<Grant> {
        let senders = &self.senders;
        let mut consumed = senders.consumed.load(Ordering::Relaxed);
        let mut issued_seen = senders.issued_seen.load(Ordering::Acquire);
        loop {
            if consumed >= senders.initial + issued_seen {
                // The cached view says "exhausted": only now look at the
                // receivers' line.  `consumed` only grows, so if even a stale
                // copy has reached the refreshed limit the live value has too.
                issued_seen = self.refresh_issued_seen();
                if consumed >= senders.initial + issued_seen {
                    return None;
                }
            }
            match senders.consumed.compare_exchange_weak(
                consumed,
                consumed + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(Grant {
                        consumed: consumed + 1,
                        issued_seen,
                    })
                }
                Err(actual) => consumed = actual,
            }
        }
    }

    /// Re-reads the receivers' line, folds the value into the senders'
    /// cached view and returns the refreshed view (`≥` the `issued` it read).
    fn refresh_issued_seen(&self) -> u64 {
        let issued = self.receivers.issued.load(Ordering::Acquire);
        // `fetch_max`, not `store`: with several senders a slower one must
        // not roll the shared view back.
        self.senders
            .issued_seen
            .fetch_max(issued, Ordering::AcqRel)
            .max(issued)
    }

    /// Folds `grant` into the in-flight high-water mark; senders call it
    /// right after the acquisition (a channel: right after the send the
    /// credit paid for).  The mark is exact without reading the receivers'
    /// counter on every grant: the grant's own view gives the upper bound
    /// `consumed − issued_seen` on the credits in flight, and the true figure
    /// (`consumed − issued`, which can only be lower) is looked up only when
    /// that bound exceeds the recorded mark — whenever it does not, the true
    /// figure could not have raised the mark either.
    pub(crate) fn record_peak(&self, grant: Grant) {
        let peak = &self.senders.in_flight_peak;
        if grant.consumed - grant.issued_seen > peak.load(Ordering::Relaxed) {
            // Refreshing the cached view here also keeps the bound tight, so
            // a steady loop takes this branch about once per `peak` grants.
            let issued_seen = self.refresh_issued_seen();
            peak.fetch_max(
                grant.consumed.saturating_sub(issued_seen),
                Ordering::Relaxed,
            );
        }
    }

    /// The most credits in flight right after any grant handed to
    /// [`CreditCounter::record_peak`].
    pub(crate) fn in_flight_peak(&self) -> u64 {
        self.senders.in_flight_peak.load(Ordering::Relaxed)
    }

    /// Returns one credit to the pool.
    ///
    /// The caller is responsible for releasing only credits it acquired:
    /// the counter itself does not bound [`CreditCounter::available`] above
    /// [`CreditCounter::initial`].
    pub fn release(&self) {
        self.receivers.issued.fetch_add(1, Ordering::Release);
    }

    /// Credits currently available: `initial + issued − consumed`.  Exact at
    /// quiescence; mid-run, `issued` is read first, so the answer errs low
    /// (a credit returned between the two loads is not yet counted).
    #[must_use]
    pub fn available(&self) -> u64 {
        let issued = self.receivers.issued.load(Ordering::Acquire);
        (self.senders.initial + issued).saturating_sub(self.consumed())
    }

    /// Total credits consumed so far (successful [`CreditCounter::try_acquire`]s).
    #[must_use]
    pub fn consumed(&self) -> u64 {
        self.senders.consumed.load(Ordering::Relaxed)
    }

    /// Total credits returned so far ([`CreditCounter::release`] calls; the
    /// initial grant is not counted).
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.receivers.issued.load(Ordering::Relaxed)
    }

    /// The up-front grant.
    #[must_use]
    pub fn initial(&self) -> u64 {
        self.senders.initial
    }

    /// Credits currently held by senders: consumed but not yet returned.
    /// For a channel-scoped loop this is the channel occupancy; for a
    /// budget-scoped loop it is the lattice's outstanding rounds.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        // `issued` first: the difference can then only err high, and the
        // clamp keeps it inside what `never-oversubscribed` allows.
        let issued = self.issued();
        self.consumed()
            .saturating_sub(issued)
            .min(self.senders.initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_exhaust_and_replenish() {
        let credits = CreditCounter::new(2);
        assert_eq!(credits.available(), 2);
        assert!(credits.try_acquire());
        assert!(credits.try_acquire());
        // Exhausted: further acquisitions fail without consuming anything.
        assert!(!credits.try_acquire());
        assert!(!credits.try_acquire());
        assert_eq!(credits.available(), 0);
        assert_eq!(credits.consumed(), 2);
        assert_eq!(credits.in_flight(), 2);
        // One release replenishes exactly one acquisition.
        credits.release();
        assert_eq!(credits.available(), 1);
        assert!(credits.try_acquire());
        assert!(!credits.try_acquire());
        assert_eq!(credits.consumed(), 3);
        assert_eq!(credits.issued(), 1);
    }

    #[test]
    fn zero_credit_counter_always_stalls() {
        let credits = CreditCounter::new(0);
        assert!(!credits.try_acquire());
        credits.release();
        assert!(credits.try_acquire());
        assert!(!credits.try_acquire());
    }

    #[test]
    fn sender_and_receiver_counters_sit_on_separate_lines() {
        let credits = CreditCounter::new(1);
        let senders = &credits.senders as *const SendersLine as usize;
        let receivers = &credits.receivers as *const ReceiversLine as usize;
        assert_eq!(senders % 64, 0);
        assert_eq!(receivers % 64, 0);
        assert_ne!(senders, receivers);
        assert_eq!(std::mem::size_of::<SendersLine>(), 64);
        assert_eq!(std::mem::size_of::<ReceiversLine>(), 64);
    }

    /// The cached view is refreshed only on apparent exhaustion, and a grant
    /// reports the view it was made under.
    #[test]
    fn receivers_line_is_read_only_when_the_cached_view_is_exhausted() {
        let credits = CreditCounter::new(2);
        let seen = || credits.senders.issued_seen.load(Ordering::Relaxed);
        assert!(credits.try_acquire());
        credits.release();
        // One credit left under the cached view: granted without a refresh.
        assert_eq!(
            credits.acquire(),
            Some(Grant {
                consumed: 2,
                issued_seen: 0
            })
        );
        assert_eq!(seen(), 0);
        // The cached view is exhausted, the true counter is not.
        assert_eq!(
            credits.acquire(),
            Some(Grant {
                consumed: 3,
                issued_seen: 1
            })
        );
        assert_eq!(seen(), 1);
        assert!(!credits.try_acquire());
        assert_eq!(credits.available(), 0);
        assert_eq!(credits.in_flight(), 2);
    }

    /// `never-oversubscribed` and `balanced-at-quiescence` with several
    /// senders and receivers.  In-flight credits are counted a second time,
    /// independently of the counter under test — incremented after a grant,
    /// decremented before the matching release, so it never exceeds the
    /// true figure — and checked at every grant.
    #[test]
    fn concurrent_acquire_never_oversubscribes() {
        use std::sync::atomic::AtomicU64;
        use std::thread;
        const INITIAL: u64 = 3;
        const SENDERS: u64 = 3;
        const RECEIVERS: usize = 2;
        const PER_SENDER: u64 = 5_000;
        let credits = CreditCounter::new(INITIAL);
        let in_flight = AtomicU64::new(0);
        // Granted credits waiting for a receiver to return them.
        let handed_over = AtomicU64::new(0);
        let returned = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..RECEIVERS {
                s.spawn(|| {
                    while returned.load(Ordering::SeqCst) < SENDERS * PER_SENDER {
                        let took = handed_over
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                            .is_ok();
                        if took {
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                            credits.release();
                            returned.fetch_add(1, Ordering::SeqCst);
                        } else {
                            thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..SENDERS {
                s.spawn(|| {
                    let mut granted = 0;
                    while granted < PER_SENDER {
                        if credits.try_acquire() {
                            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                            assert!(now <= INITIAL, "{now} credits in flight of {INITIAL}");
                            handed_over.fetch_add(1, Ordering::SeqCst);
                            granted += 1;
                        } else {
                            thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(credits.consumed(), SENDERS * PER_SENDER);
        assert_eq!(credits.issued(), credits.consumed());
        assert_eq!(credits.available(), INITIAL);
        assert_eq!(credits.in_flight(), 0);
        assert!(credits.senders.issued_seen.load(Ordering::Relaxed) <= credits.issued());
    }

    proptest::proptest! {
        /// Any single-thread script of acquires and releases behaves like the
        /// one-line model `available = initial + issued − consumed`, and the
        /// three named invariants hold after every step.
        #[test]
        fn scripted_sequences_match_the_trivial_model(
            initial in 0u64..6,
            script in proptest::collection::vec(proptest::prelude::any::<bool>(), 0..200),
        ) {
            let credits = CreditCounter::new(initial);
            let (mut consumed, mut issued) = (0u64, 0u64);
            for acquire in script {
                if acquire {
                    let expected = initial + issued > consumed;
                    proptest::prop_assert_eq!(credits.try_acquire(), expected);
                    consumed += u64::from(expected);
                } else if issued < consumed {
                    // Release only what was acquired, as callers must.
                    credits.release();
                    issued += 1;
                }
                proptest::prop_assert_eq!(credits.consumed(), consumed);
                proptest::prop_assert_eq!(credits.issued(), issued);
                proptest::prop_assert_eq!(credits.available(), initial + issued - consumed);
                proptest::prop_assert_eq!(credits.in_flight(), consumed - issued);
                let seen = credits.senders.issued_seen.load(Ordering::Relaxed);
                proptest::prop_assert!(seen <= issued, "seen-is-conservative");
                proptest::prop_assert!(consumed <= initial + issued, "never-oversubscribed");
            }
            while issued < consumed {
                credits.release();
                issued += 1;
            }
            proptest::prop_assert_eq!(credits.consumed(), credits.issued());
            proptest::prop_assert_eq!(credits.available(), initial);
        }
    }
}
