//! Scripted elastic machine reconfiguration.
//!
//! A [`ScenarioScript`] is a list of [`ScenarioAction`]s keyed on the
//! *machine-global* emission round: the `N`-th round the interleaved source
//! emits across all lattices, counted from zero.  Scripts are applied to an
//! [`InterleavedSource`](crate::source::InterleavedSource) before the first
//! round and fire deterministically as the global counter advances, so a
//! scripted run is exactly as replayable as a static one — the script is part
//! of the stream's identity, like seeds and burst episodes.
//!
//! Every lattice a script touches must be pre-registered in the machine's
//! [`LatticeSet`](crate::lattice_set::LatticeSet), so its records fit the
//! slots the run was sized for.  A lattice targeted by
//! [`ScenarioAction::AddLattice`] starts *dormant* (emitting nothing) and
//! comes online when its round arrives; [`ScenarioAction::RetireLattice`]
//! truncates a stream, so the lattice emits nothing more and the rounds
//! already in flight drain to a final frame.

use crate::source::NoiseSpec;
use nisqplus_qec::QecError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One scripted reconfiguration, keyed on the machine-global emission round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScenarioAction {
    /// Bring a pre-registered, dormant lattice online: it starts emitting at
    /// the given global round, paced from the virtual instant of the round
    /// that triggered it.
    AddLattice {
        /// Machine-global round at which the lattice comes online.
        at_round: u64,
        /// The pre-registered lattice to activate.
        lattice_id: u32,
    },
    /// Retire a lattice: its stream stops emitting and rounds already in
    /// flight drain to a final frame.
    RetireLattice {
        /// Machine-global round at which the lattice retires.
        at_round: u64,
        /// The lattice to retire.
        lattice_id: u32,
    },
    /// Swap a lattice's noise channel mid-run (a re-calibration event).  A
    /// lattice's stream is a function of its seed and its script, so the swap
    /// never perturbs other lattices, the rounds before it, or a replay's
    /// reproducibility.
    SetErrorRate {
        /// Machine-global round from which the new channel applies.
        at_round: u64,
        /// The lattice whose channel is swapped.
        lattice_id: u32,
        /// The new noise channel.
        noise: NoiseSpec,
    },
}

impl ScenarioAction {
    /// The machine-global round the action fires at.
    #[must_use]
    pub fn at_round(&self) -> u64 {
        match *self {
            ScenarioAction::AddLattice { at_round, .. }
            | ScenarioAction::RetireLattice { at_round, .. }
            | ScenarioAction::SetErrorRate { at_round, .. } => at_round,
        }
    }

    /// The lattice the action targets.
    #[must_use]
    pub fn lattice_id(&self) -> u32 {
        match *self {
            ScenarioAction::AddLattice { lattice_id, .. }
            | ScenarioAction::RetireLattice { lattice_id, .. }
            | ScenarioAction::SetErrorRate { lattice_id, .. } => lattice_id,
        }
    }
}

/// Why a [`ScenarioScript`] was rejected.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// An action targets a lattice id outside the machine's registration.
    LatticeOutOfRange {
        /// The offending lattice id.
        lattice_id: u32,
        /// The number of registered lattices.
        len: usize,
    },
    /// A lattice is targeted by more than one `AddLattice` action.
    DuplicateAdd {
        /// The doubly-added lattice id.
        lattice_id: u32,
    },
    /// A `SetErrorRate` action carries an invalid noise channel.
    InvalidNoise {
        /// The lattice the action targets.
        lattice_id: u32,
        /// The underlying channel validation error.
        error: QecError,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::LatticeOutOfRange { lattice_id, len } => write!(
                f,
                "scenario action targets lattice {lattice_id}, but only {len} lattices are \
                 registered (elastic lattices must be pre-registered)"
            ),
            ScenarioError::DuplicateAdd { lattice_id } => {
                write!(f, "lattice {lattice_id} is added more than once")
            }
            ScenarioError::InvalidNoise { lattice_id, error } => {
                write!(f, "invalid noise channel for lattice {lattice_id}: {error}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::InvalidNoise { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// A scripted sequence of elastic reconfigurations for one run.
///
/// The default script is empty — a static machine.  Actions may be pushed in
/// any order; they are sorted by firing round (stably, so same-round actions
/// fire in script order) when applied to a source.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScenarioScript {
    /// The scripted actions, in script order.
    pub actions: Vec<ScenarioAction>,
}

impl ScenarioScript {
    /// Creates a script from a list of actions.
    #[must_use]
    pub fn new(actions: Vec<ScenarioAction>) -> Self {
        ScenarioScript { actions }
    }

    /// `true` if the script contains no actions (a static machine).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The number of scripted actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Appends an `AddLattice` action and returns the script (builder style).
    #[must_use]
    pub fn add_lattice(mut self, at_round: u64, lattice_id: u32) -> Self {
        self.actions.push(ScenarioAction::AddLattice {
            at_round,
            lattice_id,
        });
        self
    }

    /// Appends a `RetireLattice` action and returns the script.
    #[must_use]
    pub fn retire_lattice(mut self, at_round: u64, lattice_id: u32) -> Self {
        self.actions.push(ScenarioAction::RetireLattice {
            at_round,
            lattice_id,
        });
        self
    }

    /// Appends a `SetErrorRate` action and returns the script.
    #[must_use]
    pub fn set_error_rate(mut self, at_round: u64, lattice_id: u32, noise: NoiseSpec) -> Self {
        self.actions.push(ScenarioAction::SetErrorRate {
            at_round,
            lattice_id,
            noise,
        });
        self
    }

    /// Checks every action against a machine with `num_lattices` registered
    /// lattices.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] if an action targets an unregistered
    /// lattice, a lattice is added twice, or a `SetErrorRate` channel is
    /// invalid.
    pub fn validate(&self, num_lattices: usize) -> Result<(), ScenarioError> {
        let mut added = vec![false; num_lattices];
        for action in &self.actions {
            let lattice_id = action.lattice_id();
            if lattice_id as usize >= num_lattices {
                return Err(ScenarioError::LatticeOutOfRange {
                    lattice_id,
                    len: num_lattices,
                });
            }
            match *action {
                ScenarioAction::AddLattice { lattice_id, .. } => {
                    if std::mem::replace(&mut added[lattice_id as usize], true) {
                        return Err(ScenarioError::DuplicateAdd { lattice_id });
                    }
                }
                ScenarioAction::SetErrorRate {
                    lattice_id, noise, ..
                } => {
                    noise
                        .validate()
                        .map_err(|error| ScenarioError::InvalidNoise { lattice_id, error })?;
                }
                ScenarioAction::RetireLattice { .. } => {}
            }
        }
        Ok(())
    }

    /// The actions sorted by firing round (stable: same-round actions keep
    /// script order).
    #[must_use]
    pub fn sorted_actions(&self) -> Vec<ScenarioAction> {
        let mut actions = self.actions.clone();
        actions.sort_by_key(ScenarioAction::at_round);
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_actions_in_order() {
        let script = ScenarioScript::default()
            .add_lattice(10, 2)
            .retire_lattice(20, 0)
            .set_error_rate(5, 1, NoiseSpec::PureDephasing { p: 0.05 });
        assert_eq!(script.len(), 3);
        assert!(!script.is_empty());
        assert_eq!(script.actions[0].at_round(), 10);
        assert_eq!(script.actions[0].lattice_id(), 2);
        // Sorting is by round, stable.
        let sorted = script.sorted_actions();
        assert_eq!(sorted[0].at_round(), 5);
        assert_eq!(sorted[2].at_round(), 20);
    }

    #[test]
    fn validation_rejects_out_of_range_and_duplicates() {
        let script = ScenarioScript::default().add_lattice(0, 5);
        assert_eq!(
            script.validate(3),
            Err(ScenarioError::LatticeOutOfRange {
                lattice_id: 5,
                len: 3
            })
        );
        let script = ScenarioScript::default()
            .add_lattice(0, 1)
            .add_lattice(9, 1);
        assert_eq!(
            script.validate(3),
            Err(ScenarioError::DuplicateAdd { lattice_id: 1 })
        );
        let script =
            ScenarioScript::default().set_error_rate(4, 0, NoiseSpec::PureDephasing { p: 1.5 });
        assert!(matches!(
            script.validate(1),
            Err(ScenarioError::InvalidNoise { lattice_id: 0, .. })
        ));
        assert!(ScenarioScript::default().validate(0).is_ok());
    }

    #[test]
    fn errors_display_informatively() {
        let err = ScenarioError::LatticeOutOfRange {
            lattice_id: 7,
            len: 2,
        };
        assert!(err.to_string().contains('7'));
        assert!(err.to_string().contains("pre-registered"));
        let err = ScenarioError::DuplicateAdd { lattice_id: 3 };
        assert!(err.to_string().contains('3'));
    }
}
