//! The run's book-keeping identities, each stated once as a [`Violation`]
//! variant and checked by [`RuntimeReport::check_invariants`] (plus, for the
//! frames and corrections only an outcome holds,
//! [`RuntimeOutcome::check_invariants`]) on any finished run.  Tests,
//! examples, the soak and the golden replay call a checker once per run
//! instead of restating the identities; the report prints its verdict on
//! its `invariants:` line.

use crate::engine::RuntimeOutcome;
use crate::obs::EventKind::{NoiseChange, Shed, WatchdogTrip, WorkerCrash, WorkerRestart};
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
    /// `dropped != journal shed + watchdog_trip + worker_crash`: every
    /// round is lost one way, and each way journals it once — a shed, a
    /// watchdog trip, or the crash of the worker whose decoder panicked on
    /// it.
    ShedAccounting {
        /// `counters.dropped`.
        dropped: u64,
        /// `journal.counts.shed`.
        shed: u64,
        /// `journal.counts.watchdog_trip`.
        watchdog_trips: u64,
        /// `journal.counts.worker_crash`.
        crashes: u64,
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
    /// Σ decode-stage `emitted` != `counters.decoded`: the rounds the
    /// workers' sinks committed are not the rounds the lattices counted
    /// decoded.
    DecodeFlow {
        /// Σ `stages[decode.*].emitted`.
        stage_emitted: u64,
        /// `counters.decoded`.
        decoded: u64,
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
    /// A worker crashed, or a crash went without its restart: journal
    /// `worker_crash > 0`, or `worker_crash != worker_restart`.  A decoder
    /// panic is the only way a worker crashes, so any crash is a decoder
    /// bug (or a record whose header fails verification), even when the
    /// books around it hold.
    Crashes {
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
        let counts = &self.journal.counts;
        let (shed, watchdog_trips) = (counts[Shed], counts[WatchdogTrip]);
        let (crashed, restarted) = (counts[WorkerCrash], counts[WorkerRestart]);
        require(
            c.dropped == shed + watchdog_trips + crashed,
            Violation::ShedAccounting {
                dropped: c.dropped,
                shed,
                watchdog_trips,
                crashes: crashed,
            },
        );
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
        let decode_rows = self
            .stages
            .iter()
            .filter(|s| s.stage.starts_with("decode."));
        let stage_emitted = decode_rows.map(|s| s.emitted).sum();
        require(
            stage_emitted == c.decoded,
            Violation::DecodeFlow {
                stage_emitted,
                decoded: c.decoded,
            },
        );
        require(
            crashed == 0 && crashed == restarted,
            Violation::Crashes { crashed, restarted },
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
    use crate::{MachineConfig, NoiseSpec, PushPolicy, ShardedPauliFrame, StreamingEngine};
    use nisqplus_decoders::{DynDecoder, GreedyMatchingDecoder};

    /// A small mixed machine whose run touches every identity: three
    /// lattices of two distances shedding at a four-slot ring, a burst (two
    /// re-tunes), residuals and the full correction history.  (A crash
    /// breaks `Crashes` by design; `tests/fault.rs` checks that a decoder
    /// panic breaks nothing else.)
    fn clean_run() -> RuntimeOutcome {
        let mut config = MachineConfig::new(&[3, 5, 3], 31);
        for spec in &mut config.lattices {
            spec.rounds = 60;
            spec.cadence_cycles = 0;
        }
        config.push_policy = PushPolicy::Drop;
        config.queue_capacity = 4;
        let (base, hot) = (
            config.lattices[2].noise,
            NoiseSpec::PureDephasing { p: 0.12 },
        );
        config.lattices[2].retunes = vec![(10, hot), (30, base)];
        config.workers = 2;
        config.analyze_residuals = true;
        config.record_corrections = true;
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
        assert_eq!(clean.report.journal.counts[NoiseChange], 2);
        type Mutation = fn(&mut RuntimeOutcome);
        let mutations: [(&str, Mutation); 11] = [
            ("Conservation", |o| {
                o.report.lattices[1].counters.generated += 1;
                o.report.counters.generated += 1;
            }),
            ("LatticeSum", |o| o.report.counters.backpressure_spins += 1),
            ("ShedAccounting", |o| o.report.journal.counts[Shed] += 1),
            ("ChannelFlow", |o| o.report.stages[2].accepted += 1),
            ("DecodeFlow", |o| o.report.stages[4].emitted += 1),
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
        assert_eq!(clean.report.stages[2].stage, "channel");
        assert_eq!(clean.report.stages[4].stage, "decode.1");
        for (variant, mutate) in mutations {
            let mut outcome = clean.clone();
            mutate(&mut outcome);
            assert_eq!(broken(&outcome), [variant]);
        }
    }
}
