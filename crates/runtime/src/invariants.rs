//! The run's book-keeping identities, each stated once as a [`Violation`]
//! variant and checked by [`RuntimeReport::check_invariants`] (plus, for the
//! frames and corrections only an outcome holds,
//! [`RuntimeOutcome::check_invariants`]) on any finished run.  Tests,
//! examples, the soak and the golden replay call a checker once per run
//! instead of restating the identities; the report prints its verdict on
//! its `invariants:` line.

use crate::engine::RuntimeOutcome;
use crate::obs::EventKind::{NoiseChange, Shed, WatchdogTrip, WorkerCrash, WorkerRestart};
use crate::stage::StageReport;
use crate::telemetry::{LatticeCounterSnapshot, RuntimeReport};
use std::fmt;

/// One broken book-keeping identity, with the numbers that break it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// `generated != decoded + dropped` for a lattice (the machine's follows
    /// from this and [`Violation::LatticeSum`]).
    Conservation {
        /// The lattice.
        lattice: usize,
        /// Its `counters.generated`.
        generated: u64,
        /// Its `counters.decoded`.
        decoded: u64,
        /// Its `counters.dropped`.
        dropped: u64,
    },
    /// A machine-wide counter is not the sum of its per-lattice slices.
    LatticeSum {
        /// The counter's name in `counters`.
        counter: &'static str,
        /// Σ `lattices[].counters.<counter>`.
        lattices: u64,
        /// `counters.<counter>`.
        machine: u64,
    },
    /// `dropped != journal shed + watchdog_trip`.
    ShedAccounting {
        /// `counters.dropped`.
        dropped: u64,
        /// `journal.counts.shed`.
        shed: u64,
        /// `journal.counts.watchdog_trip`.
        watchdog_trips: u64,
    },
    /// The `channel` row's `accepted` == its `emitted` == `enqueued` fails.
    ChannelFlow {
        /// `stages[channel].accepted`.
        accepted: u64,
        /// `stages[channel].emitted`.
        emitted: u64,
        /// `counters.enqueued`.
        enqueued: u64,
    },
    /// Σ decode-stage `emitted` == Σ `worker_counters[].decoded` ==
    /// `counters.decoded` fails.
    DecodeFlow {
        /// Σ `stages[decode.*].emitted`.
        stage_emitted: u64,
        /// Σ `worker_counters[].decoded`.
        worker_decoded: u64,
        /// `counters.decoded`.
        decoded: u64,
    },
    /// `measured.shed != dropped`, for a lattice or the machine.
    MeasuredShed {
        /// The lattice, or `None` for the machine-wide `measured`.
        lattice: Option<usize>,
        /// `measured.shed`.
        measured: u64,
        /// `counters.dropped`.
        dropped: u64,
    },
    /// A lattice's residual tallies do not cover exactly its decoded and
    /// shed rounds.
    ResidualCoverage {
        /// The lattice.
        lattice: usize,
        /// `residual.decoded.rounds`.
        decoded_tally: u64,
        /// `counters.decoded`.
        decoded: u64,
        /// `residual.shed.rounds`.
        shed_tally: u64,
        /// `counters.dropped`.
        dropped: u64,
    },
    /// Injected == journal `worker_crash` == `worker_restart` fails (a
    /// decoder bug, or a record whose header fails verification, reads as a
    /// crash nothing injected).
    Crashes {
        /// `fault.injected_crashes`.
        injected: u64,
        /// `journal.counts.worker_crash`.
        crashed: u64,
        /// `journal.counts.worker_restart`.
        restarted: u64,
    },
    /// `journal.counts.noise_change != Σ (lattices[].noise_epochs.len() −
    /// 1)`: each noise-schedule boundary a lattice crossed is journaled once.
    NoiseChanges {
        /// `journal.counts.noise_change`.
        journaled: u64,
        /// Σ over lattices of the epoch count less one (0 for a lattice
        /// that emitted nothing, or for every lattice of a replay).
        boundaries: u64,
    },
    /// A lattice's frame does not record every generated round.
    Frame {
        /// The lattice.
        lattice: usize,
        /// `frame_for(lattice).total_recorded()`.
        recorded: u64,
        /// Its `counters.generated`.
        generated: u64,
    },
    /// The corrections do not ascend strictly by `(lattice, round)`, or —
    /// when the run kept every one (recording on, no cap) — do not number
    /// `decoded`.
    Corrections {
        /// `corrections.len()`.
        recorded: u64,
        /// `counters.decoded`.
        decoded: u64,
        /// Whether they are strictly ascending.
        sorted: bool,
    },
}

/// Every identity a finished run breaks, in check order; never empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violations(pub Vec<Violation>);

impl fmt::Display for Violations {
    /// `N broken: ` and every violation's variant name and numbers.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let each: Vec<String> = self.0.iter().map(|v| format!("{v:?}")).collect();
        write!(f, "{} broken: {}", self.0.len(), each.join("; "))
    }
}

impl std::error::Error for Violations {}

fn verdict(found: Vec<Violation>) -> Result<(), Violations> {
    if found.is_empty() {
        Ok(())
    } else {
        Err(Violations(found))
    }
}

impl RuntimeReport {
    /// Checks every book-keeping identity the report alone can check (see
    /// [`Violation`]).
    ///
    /// # Errors
    ///
    /// Returns every identity the report breaks.
    pub fn check_invariants(&self) -> Result<(), Violations> {
        verdict(self.violations())
    }

    fn violations(&self) -> Vec<Violation> {
        let mut found = Vec::new();
        let mut require = |holds: bool, violation: Violation| {
            if !holds {
                found.push(violation);
            }
        };
        let c = &self.counters;
        for lattice in &self.lattices {
            let (id, l) = (lattice.lattice_id, &lattice.counters);
            require(
                l.generated == l.decoded + l.dropped,
                Violation::Conservation {
                    lattice: id,
                    generated: l.generated,
                    decoded: l.decoded,
                    dropped: l.dropped,
                },
            );
            require(
                lattice.measured.shed == l.dropped,
                Violation::MeasuredShed {
                    lattice: Some(id),
                    measured: lattice.measured.shed,
                    dropped: l.dropped,
                },
            );
            if let Some(residual) = &lattice.residual {
                require(
                    residual.decoded.rounds == l.decoded && residual.shed.rounds == l.dropped,
                    Violation::ResidualCoverage {
                        lattice: id,
                        decoded_tally: residual.decoded.rounds,
                        decoded: l.decoded,
                        shed_tally: residual.shed.rounds,
                        dropped: l.dropped,
                    },
                );
            }
        }
        let sum = |pick: fn(&LatticeCounterSnapshot) -> u64| -> u64 {
            self.lattices.iter().map(|l| pick(&l.counters)).sum()
        };
        let spins = sum(|l| l.backpressure_spins);
        for (counter, lattices, machine) in [
            ("generated", sum(|l| l.generated), c.generated),
            ("enqueued", sum(|l| l.enqueued), c.enqueued),
            ("dropped", sum(|l| l.dropped), c.dropped),
            ("backpressure_spins", spins, c.backpressure_spins),
            ("decoded", sum(|l| l.decoded), c.decoded),
        ] {
            require(
                lattices == machine,
                Violation::LatticeSum {
                    counter,
                    lattices,
                    machine,
                },
            );
        }
        require(
            self.measured.shed == c.dropped,
            Violation::MeasuredShed {
                lattice: None,
                measured: self.measured.shed,
                dropped: c.dropped,
            },
        );
        let counts = &self.journal.counts;
        let (shed, watchdog_trips) = (counts[Shed], counts[WatchdogTrip]);
        require(
            c.dropped == shed + watchdog_trips,
            Violation::ShedAccounting {
                dropped: c.dropped,
                shed,
                watchdog_trips,
            },
        );
        let stages = |prefix: &str, pick: fn(&StageReport) -> u64| -> u64 {
            let rows = self.stages.iter().filter(|s| s.stage.starts_with(prefix));
            rows.map(pick).sum()
        };
        let (accepted, emitted) = self
            .stages
            .iter()
            .find(|s| s.stage == "channel")
            .map_or((0, 0), |s| (s.accepted, s.emitted));
        require(
            accepted == emitted && emitted == c.enqueued,
            Violation::ChannelFlow {
                accepted,
                emitted,
                enqueued: c.enqueued,
            },
        );
        let stage_emitted = stages("decode.", |s| s.emitted);
        let worker_decoded = self.worker_counters.iter().map(|w| w.decoded).sum();
        require(
            stage_emitted == worker_decoded && worker_decoded == c.decoded,
            Violation::DecodeFlow {
                stage_emitted,
                worker_decoded,
                decoded: c.decoded,
            },
        );
        let fault = &self.fault;
        let (crashed, restarted) = (counts[WorkerCrash], counts[WorkerRestart]);
        require(
            fault.injected_crashes == crashed && crashed == restarted,
            Violation::Crashes {
                injected: fault.injected_crashes,
                crashed,
                restarted,
            },
        );
        let boundaries = (self.lattices.iter())
            .map(|l| l.noise_epochs.len().saturating_sub(1) as u64)
            .sum();
        require(
            counts[NoiseChange] == boundaries,
            Violation::NoiseChanges {
                journaled: counts[NoiseChange],
                boundaries,
            },
        );
        found
    }
}

impl RuntimeOutcome {
    /// Checks the report's identities ([`RuntimeReport::check_invariants`]),
    /// then the ones only the outcome holds: every lattice's frame records
    /// every generated round, and the recorded corrections are in order and,
    /// when the run kept every one, number the decoded rounds.
    ///
    /// # Errors
    ///
    /// Returns every identity the outcome breaks.
    pub fn check_invariants(&self) -> Result<(), Violations> {
        let mut found = self.report.violations();
        for (lattice, frame) in self.report.lattices.iter().zip(&self.frames) {
            let (recorded, generated) = (frame.total_recorded(), lattice.counters.generated);
            if recorded != generated {
                found.push(Violation::Frame {
                    lattice: lattice.lattice_id,
                    recorded,
                    generated,
                });
            }
        }
        let key = |i: usize| (self.corrections[i].lattice_id, self.corrections[i].round);
        let sorted = (1..self.corrections.len()).all(|i| key(i - 1) < key(i));
        let (recorded, decoded) = (self.corrections.len() as u64, self.report.counters.decoded);
        if !sorted || (self.complete_corrections && recorded != decoded) {
            found.push(Violation::Corrections {
                recorded,
                decoded,
                sorted,
            });
        }
        verdict(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{silence_injected_crash_panics, FaultPlan};
    use crate::{MachineConfig, PushPolicy, ShardedPauliFrame, StreamingEngine};
    use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};
    use nisqplus_qec::BurstEvent;

    /// A small mixed machine whose run touches every identity: three
    /// lattices of two distances, a Drop lane behind a one-round budget, a
    /// burst, an injected crash, residuals and the full correction
    /// history.
    fn clean_run() -> RuntimeOutcome {
        silence_injected_crash_panics();
        let mut config = MachineConfig::new(&[3, 5, 3], 31);
        for spec in &mut config.lattices {
            spec.rounds = 60;
            spec.cadence_cycles = 0;
        }
        config.lattices[0].push_policy = Some(PushPolicy::Drop);
        config.lattices[0].queue_budget = Some(1);
        config.lattices[2].burst = Some(BurstEvent::new(10, 20, 4.0).unwrap());
        config.workers = 2;
        config.analyze_residuals = true;
        config.record_corrections = true;
        // Worker 0 checks its crash hook before its first batch, so a crash
        // after 0 rounds always fires, whatever the schedule.
        config.fault = FaultPlan::default().crash_worker(0, 0);
        let engine = StreamingEngine::with_machine(config).unwrap();
        engine.run(&|| Box::new(GreedyMatchingDecoder::new()) as DynDecoder)
    }

    /// The variants the first objecting checker returns: the report's, else
    /// the outcome's.
    fn broken(outcome: &RuntimeOutcome) -> Vec<String> {
        let found = match outcome.report.check_invariants() {
            Ok(()) => outcome.check_invariants(),
            broken => broken,
        };
        let found = found.err().map(|v| v.0).unwrap_or_default();
        let variant = |v: &Violation| format!("{v:?}").split(' ').next().unwrap().to_string();
        found.iter().map(variant).collect()
    }

    /// A clean run holds, and says so on its `invariants:` line; each
    /// mutation perturbs only the fields of one identity, and exactly that
    /// identity's variant comes back.
    #[test]
    fn every_violation_is_caught_alone() {
        let clean = clean_run();
        assert_eq!(clean.check_invariants(), Ok(()));
        assert!(clean.report.to_string().contains("\n  invariants: hold\n"));
        assert_eq!(clean.report.fault.injected_crashes, 1);
        assert_eq!(clean.report.journal.counts[NoiseChange], 2);
        type Mutation = fn(&mut RuntimeOutcome);
        let mutations: [(&str, Mutation); 12] = [
            ("Conservation", |o| {
                o.report.lattices[1].counters.generated += 1;
                o.report.counters.generated += 1;
            }),
            ("LatticeSum", |o| o.report.counters.backpressure_spins += 1),
            ("ShedAccounting", |o| o.report.journal.counts[Shed] += 1),
            ("ChannelFlow", |o| o.report.stages[3].accepted += 1),
            ("DecodeFlow", |o| o.report.worker_counters[1].decoded += 1),
            ("MeasuredShed", |o| o.report.measured.shed += 1),
            ("ResidualCoverage", |o| {
                o.report.lattices[2].residual.as_mut().unwrap().shed.rounds += 1;
            }),
            ("Crashes", |o| o.report.journal.counts[WorkerRestart] += 1),
            ("NoiseChanges", |o| {
                o.report.journal.counts[NoiseChange] -= 1
            }),
            ("Frame", |o| {
                o.frames[1] = ShardedPauliFrame::from_shards(o.frames[1].num_data(), Vec::new());
            }),
            ("Corrections", |o| o.corrections.swap(0, 1)),
            ("Corrections", |o| o.corrections.truncate(1)),
        ];
        assert_eq!(clean.report.stages[3].stage, "channel");
        for (variant, mutate) in mutations {
            let mut outcome = clean.clone();
            mutate(&mut outcome);
            assert_eq!(broken(&outcome), [variant]);
        }
    }
}
