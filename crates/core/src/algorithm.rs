//! The greedy mesh decoding algorithm.
//!
//! Section V-C of the paper describes the decoder's behaviour as an
//! algorithm: repeatedly find the pair of hot-syndrome modules whose grow
//! waves meet first, report the chain of modules connecting them, reset their
//! hot-syndrome inputs and start over, until no hot syndrome remains.
//!
//! This module is that algorithm.  It does not simulate individual pulses:
//! the cycle count of every candidate pairing is the closed-form timing of
//! Section V-C ([`pair_timing`], [`boundary_timing`]) — grow waves advancing
//! one module per cycle, then the pair-request / pair-grant / pair exchange
//! retracing the longest leg — and the pairings execute in completion-time
//! order.  It is the decoder every experiment in the workspace runs.
//!
//! The incremental design flaws that the paper's ablation (Figure 10, top
//! row) attributes to the missing mechanisms are modelled explicitly:
//!
//! * without **reset**, the grow waves of already-paired modules keep
//!   propagating, so live defects can erroneously pair with them ("ghosts");
//! * without **boundary** modules, defects can only pair with other defects,
//!   so lone defects are never cleared;
//! * without the **equidistant handshake**, a defect pairs simultaneously
//!   with *every* partner at the minimal distance instead of exactly one.

use crate::config::MeshConfig;
use nisqplus_qec::lattice::{Lattice, Sector};
use serde::{Deserialize, Serialize};

/// How a single pairing's latency is modelled, in mesh clock cycles.
///
/// Grow pulses advance one module per cycle; the request, grant and pair
/// pulses of the handshake each retrace the longest leg of the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalTiming {
    /// Cycle at which the pairing is first detected (grow waves meet).
    pub detection: usize,
    /// Cycle at which the pairing completes (both hot syndromes cleared).
    pub completion: usize,
}

/// Computes the signal timing of a defect-defect pairing from the mesh-grid
/// offsets between the two ancilla modules.
#[must_use]
pub fn pair_timing(config: &MeshConfig, delta_row: usize, delta_col: usize) -> SignalTiming {
    let longest = delta_row.max(delta_col);
    let (detection, longest_leg) = if delta_row == 0 || delta_col == 0 {
        // Head-on collision along a row or column: the waves meet in the
        // middle of the separation.
        (longest.div_ceil(2), longest.div_ceil(2))
    } else {
        // The effective corner module sees one wave after `delta_col` cycles
        // and the other after `delta_row` cycles.
        (longest, longest)
    };
    let completion = if config.equidistant_handshake {
        // Request, grant and pair each retrace the longest leg.
        detection + 3 * longest_leg
    } else {
        // The intermediate module emits pair pulses immediately.
        detection + longest_leg
    };
    SignalTiming {
        detection,
        completion,
    }
}

/// Computes the signal timing of a defect-boundary pairing from the mesh-grid
/// distance between the ancilla module and the boundary module.
#[must_use]
pub fn boundary_timing(config: &MeshConfig, distance: usize) -> SignalTiming {
    let completion = if config.equidistant_handshake {
        distance + 3 * distance
    } else {
        distance + distance
    };
    SignalTiming {
        detection: distance,
        completion,
    }
}

/// One pairing chosen by the algorithm.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeshPairing {
    /// Two live defects paired with each other (ancilla indices).
    Defects(usize, usize),
    /// A defect paired with the lattice boundary.
    ToBoundary(usize),
    /// A live defect paired with the lingering grow wave of an
    /// already-cleared defect (only possible without the reset mechanism).
    ToGhost {
        /// The live defect that was cleared by the spurious pairing.
        live: usize,
        /// The already-cleared defect whose wave caused it.
        ghost: usize,
    },
}

/// The outcome of decoding one sector's defects on the mesh.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeshDecodeResult {
    /// Data qubits flagged by the error-output of their module (the chain),
    /// ascending.
    pub chain_data_qubits: Vec<usize>,
    /// Number of mesh clock cycles the decode took.
    pub cycles: usize,
    /// Number of hot syndromes that were successfully paired off.
    pub cleared_defects: usize,
    /// `true` if every hot syndrome was cleared before the cycle cap.
    pub completed: bool,
}

/// What a decode reports besides its chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MeshOutcome {
    /// Mesh clock cycles consumed.
    pub(crate) cycles: usize,
    /// Hot syndromes paired off.
    pub(crate) cleared_defects: usize,
    /// Whether every hot syndrome was cleared before the cycle cap.
    pub(crate) completed: bool,
}

/// Ends a completion time's list in [`MeshScratch::timetable`].
const END: usize = usize::MAX;

/// One pairing the decode's defects could make, linked into the list of its
/// completion time.
///
/// `a` and `b` are positions in [`MeshScratch::defects`], `a < b`; `b` is
/// one past the last defect for a pairing with the boundary.
#[derive(Debug, Clone, Copy)]
struct TimetableEntry {
    a: usize,
    b: usize,
    /// The next entry of the same completion time, or [`END`].
    next: usize,
}

/// Whom a hot module pairs with in a round.  The variant order, then the
/// position, is the order in which one module's simultaneous pairings reach
/// the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Partner {
    /// A live defect at a later position.
    Defect(usize),
    /// The lattice boundary.
    Boundary,
    /// An already-cleared defect whose grow wave lingers (no reset).
    Ghost(usize),
}

/// The reusable working memory of [`GreedyMeshAlgorithm`].
///
/// Everything but `defects` is rebuilt at the start of a decode, so nothing
/// leaks from one decode (or lattice) into the next.
#[derive(Debug, Clone, Default)]
pub(crate) struct MeshScratch {
    /// The defects to decode (ancilla indices), ascending and distinct;
    /// filled by the caller.
    pub(crate) defects: Vec<usize>,
    /// Per defect position: not yet cleared; one more entry, always `true`,
    /// stands for the boundary.
    live: Vec<bool>,
    /// Per defect position: cleared by the round being selected.
    cleared_now: Vec<bool>,
    /// The positions `cleared_now` marks.
    cleared: Vec<usize>,
    /// Every possible pairing.
    timetable: Vec<TimetableEntry>,
    /// Per completion time, the first entry of its list in `timetable`, in
    /// which the entries follow each other in enumeration order.
    first_at: Vec<usize>,
    /// The pairings still possible at the round's completion time.
    round: Vec<(usize, Partner)>,
    /// The chain as a bit plane over the data qubits (qubit `q` is bit
    /// `q % 64` of word `q / 64`): set where chains crossed an odd number of
    /// times.
    chain: Vec<u64>,
}

impl MeshScratch {
    /// Reserves for the worst case on `lattice` (every ancilla of a sector
    /// hot), so that no decode on it allocates.
    pub(crate) fn reserve_for(&mut self, lattice: &Lattice) {
        let defects = lattice.ancillas_per_sector();
        let pairings = defects * (defects + 1) / 2;
        self.defects.reserve(defects);
        self.live.reserve(defects + 1);
        self.cleared_now.reserve(defects);
        self.cleared.reserve(defects);
        self.timetable.reserve(pairings);
        self.first_at.reserve(Self::completion_times(lattice));
        self.round.reserve(pairings);
        self.chain.reserve(lattice.num_data().div_ceil(64));
    }

    /// How many completion times a decode on `lattice` can see, zero
    /// included: grow waves meet after at most a mesh side, one halo cell
    /// included, and the handshake retraces that leg three times.
    fn completion_times(lattice: &Lattice) -> usize {
        4 * (lattice.size() + 1) + 1
    }

    /// Visits the data qubits of the last decode's chain, ascending.
    pub(crate) fn for_each_chain_qubit(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.chain.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// The greedy mesh decoder.
///
/// A pairing's completion time depends on the pair alone, and a round
/// completes, among the pairings whose hot modules are still live, all those
/// of the earliest completion time, in the order one would enumerate them:
/// by first defect, each with its later defects ascending, then the
/// boundary, then the ghosts ascending.  So a decode computes every time
/// once, links the pairings into one list per time (in enumeration order),
/// and walks the times upwards — O(defects² + rounds), on working memory
/// that [`SfqMeshDecoder`](crate::SfqMeshDecoder) keeps from decode to
/// decode.
#[derive(Debug, Clone)]
pub struct GreedyMeshAlgorithm {
    config: MeshConfig,
}

impl GreedyMeshAlgorithm {
    /// Creates the algorithm for a mesh configuration.
    #[must_use]
    pub fn new(config: MeshConfig) -> Self {
        GreedyMeshAlgorithm { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// Decodes `scratch.defects`, leaving the chain in `scratch` for
    /// [`MeshScratch::for_each_chain_qubit`] and pushing the pairings, in the order
    /// they completed, onto `pairings` when there is one.
    pub(crate) fn decode_prepared(
        &self,
        lattice: &Lattice,
        sector: Sector,
        scratch: &mut MeshScratch,
        mut pairings: Option<&mut Vec<MeshPairing>>,
    ) -> MeshOutcome {
        let cfg = &self.config;
        let MeshScratch {
            defects,
            live,
            cleared_now,
            cleared,
            timetable,
            first_at,
            round,
            chain,
        } = scratch;
        for &a in defects.iter() {
            assert_eq!(
                lattice.ancilla_sector(a),
                sector,
                "defect {a} does not belong to the {sector} sector"
            );
        }
        debug_assert!(defects.windows(2).all(|pair| pair[0] < pair[1]));
        chain.clear();
        chain.resize(lattice.num_data().div_ceil(64), 0);
        let max_cycles = cfg.max_cycles(lattice.size() + 2);

        // --- Time every possible pairing -----------------------------------
        // Enumerated backwards and linked at the front, so that each time's
        // list reads forwards.
        let boundary = defects.len();
        timetable.clear();
        first_at.clear();
        first_at.resize(MeshScratch::completion_times(lattice), END);
        let mut link = |a: usize, b: usize, completion: usize| {
            let next = std::mem::replace(&mut first_at[completion], timetable.len());
            timetable.push(TimetableEntry { a, b, next });
        };
        for i in (0..boundary).rev() {
            let a = defects[i];
            if cfg.boundary {
                // Distance (in mesh cells) from an ancilla module to the
                // nearest boundary module of its sector: one cell beyond the
                // last data qubit.
                let distance = 2 * lattice.boundary_distance(a);
                link(i, boundary, boundary_timing(cfg, distance).completion);
            }
            let ca = lattice.ancilla_coord(a);
            for j in (i + 1..boundary).rev() {
                let cb = lattice.ancilla_coord(defects[j]);
                let (dr, dc) = (ca.row.abs_diff(cb.row), ca.col.abs_diff(cb.col));
                link(i, j, pair_timing(cfg, dr, dc).completion);
            }
        }

        // --- Walk the times upwards, one round per iteration ---------------
        live.clear();
        live.resize(defects.len() + 1, true);
        cleared_now.clear();
        cleared_now.resize(defects.len(), false);
        let mut remaining = defects.len();
        let mut cycles = 0usize;
        let mut time = 0usize;
        while remaining > 0 && cycles < max_cycles {
            // The earliest time at which a pairing is still possible.
            round.clear();
            while time < first_at.len() {
                let mut at = first_at[time];
                while at != END {
                    let TimetableEntry { a, b, next } = timetable[at];
                    at = next;
                    match (live[a], live[b]) {
                        (true, true) if b == boundary => round.push((a, Partner::Boundary)),
                        (true, true) => round.push((a, Partner::Defect(b))),
                        (true, false) if !cfg.reset => round.push((a, Partner::Ghost(b))),
                        (false, true) if !cfg.reset && b != boundary => {
                            round.push((b, Partner::Ghost(a)));
                        }
                        _ => {}
                    }
                }
                if !round.is_empty() {
                    break;
                }
                time += 1;
            }
            if round.is_empty() {
                // No way to pair the remaining defects (e.g. a lone defect
                // with no boundary modules): the decode stalls until the cap.
                cycles = max_cycles;
                break;
            }
            if !cfg.reset {
                // Ghost pairings were listed where their dead end enumerated
                // them while it lived.
                round.sort_unstable();
            }

            // --- Select which of the tied candidates actually complete -----
            for &(a, partner) in round.iter() {
                let other = match partner {
                    Partner::Defect(b) => Some(b),
                    Partner::Boundary | Partner::Ghost(_) => None,
                };
                let conflict = cleared_now[a] || other.is_some_and(|b| cleared_now[b]);
                if conflict && cfg.equidistant_handshake {
                    // The request/grant handshake lets each hot module commit
                    // to exactly one pairing; later ties are dropped.
                    continue;
                }
                // Without the handshake, equidistant ties all fire (the flaw
                // Figure 8(c) illustrates); with it, disjoint simultaneous
                // pairings still complete concurrently.
                for endpoint in std::iter::once(a).chain(other) {
                    if !std::mem::replace(&mut cleared_now[endpoint], true) {
                        cleared.push(endpoint);
                    }
                }
                // Chains overlap-toggle rather than accumulate: two chains
                // crossing the same data qubit cancel, exactly like two pair
                // pulses flipping the same error output.
                let toggle = |q: usize| chain[q / 64] ^= 1 << (q % 64);
                match partner {
                    Partner::Defect(b) | Partner::Ghost(b) => {
                        lattice.for_each_correction_path_qubit(defects[a], defects[b], toggle);
                    }
                    Partner::Boundary => lattice.for_each_boundary_path_qubit(defects[a], toggle),
                }
                if let Some(pairings) = pairings.as_deref_mut() {
                    pairings.push(match partner {
                        Partner::Defect(b) => MeshPairing::Defects(defects[a], defects[b]),
                        Partner::Boundary => MeshPairing::ToBoundary(defects[a]),
                        Partner::Ghost(b) => MeshPairing::ToGhost {
                            live: defects[a],
                            ghost: defects[b],
                        },
                    });
                }
            }
            remaining -= cleared.len();
            for endpoint in cleared.drain(..) {
                live[endpoint] = false;
                cleared_now[endpoint] = false;
            }

            cycles += time;
            if cfg.reset {
                // Every candidate of this time was selected or lost an
                // endpoint: the time is spent.  Without reset it is scanned
                // again, because a defect the round cleared is a ghost by
                // now and can pair at the same time.
                time += 1;
                if remaining > 0 {
                    cycles += usize::from(cfg.module_depth);
                }
            }
            if cycles >= max_cycles {
                cycles = max_cycles;
                break;
            }
        }

        MeshOutcome {
            cycles,
            cleared_defects: defects.len() - remaining,
            completed: remaining == 0,
        }
    }

    /// Decodes the given defects, returning the chain, cycle count and the
    /// list of pairings in the order they completed.
    #[must_use]
    pub fn decode_defects_with_pairings(
        &self,
        lattice: &Lattice,
        sector: Sector,
        defects: &[usize],
    ) -> (MeshDecodeResult, Vec<MeshPairing>) {
        let mut scratch = MeshScratch::default();
        scratch.defects.extend_from_slice(defects);
        scratch.defects.sort_unstable();
        scratch.defects.dedup();
        let mut pairings = Vec::new();
        let outcome = self.decode_prepared(lattice, sector, &mut scratch, Some(&mut pairings));
        let mut chain_data_qubits = Vec::new();
        scratch.for_each_chain_qubit(|q| chain_data_qubits.push(q));
        let result = MeshDecodeResult {
            chain_data_qubits,
            cycles: outcome.cycles,
            cleared_defects: outcome.cleared_defects,
            completed: outcome.completed,
        };
        (result, pairings)
    }

    /// Decodes the given defects, returning only the decode result.
    #[must_use]
    pub fn decode_defects(
        &self,
        lattice: &Lattice,
        sector: Sector,
        defects: &[usize],
    ) -> MeshDecodeResult {
        self.decode_defects_with_pairings(lattice, sector, defects)
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DecoderVariant;
    use nisqplus_qec::lattice::{Coord, QubitKind};
    use nisqplus_qec::pauli::{Pauli, PauliString};

    fn final_algorithm() -> GreedyMeshAlgorithm {
        GreedyMeshAlgorithm::new(DecoderVariant::Final.config())
    }

    fn ancilla_at(lattice: &Lattice, row: usize, col: usize) -> usize {
        lattice.cell(Coord::new(row, col)).index
    }

    fn data_at(lattice: &Lattice, row: usize, col: usize) -> usize {
        let cell = lattice.cell(Coord::new(row, col));
        assert_eq!(
            cell.kind,
            QubitKind::Data,
            "({row},{col}) is not a data qubit"
        );
        cell.index
    }

    #[test]
    fn adjacent_defect_pair_is_connected_by_one_data_qubit() {
        let lat = Lattice::new(5).unwrap();
        // Two X ancillas in the same column, two rows apart, share one data qubit.
        let defects = [ancilla_at(&lat, 3, 4), ancilla_at(&lat, 5, 4)];
        let result = final_algorithm().decode_defects(&lat, Sector::X, &defects);
        assert!(result.completed, "{result:?}");
        assert_eq!(result.cleared_defects, 2);
        assert_eq!(result.chain_data_qubits, vec![data_at(&lat, 4, 4)]);
    }

    #[test]
    fn single_defect_near_boundary_matches_to_boundary() {
        let lat = Lattice::new(5).unwrap();
        // X ancilla in the top row of ancillas: one data qubit from the boundary.
        let (result, pairings) = final_algorithm().decode_defects_with_pairings(
            &lat,
            Sector::X,
            &[ancilla_at(&lat, 1, 4)],
        );
        assert!(result.completed, "{result:?}");
        assert_eq!(
            pairings,
            vec![MeshPairing::ToBoundary(ancilla_at(&lat, 1, 4))]
        );
        assert_eq!(result.chain_data_qubits, vec![data_at(&lat, 0, 4)]);
    }

    #[test]
    fn z_sector_uses_left_right_boundaries() {
        let lat = Lattice::new(5).unwrap();
        // Z ancilla next to the left boundary.
        let result = final_algorithm().decode_defects(&lat, Sector::Z, &[ancilla_at(&lat, 4, 1)]);
        assert!(result.completed, "{result:?}");
        assert_eq!(result.chain_data_qubits, vec![data_at(&lat, 4, 0)]);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn wrong_sector_defect_panics() {
        let lat = Lattice::new(5).unwrap();
        let z_ancilla = ancilla_at(&lat, 0, 1);
        let _ = final_algorithm().decode_defects(&lat, Sector::X, &[z_ancilla]);
    }

    #[test]
    fn timing_model_basics() {
        let cfg = DecoderVariant::Final.config();
        // Adjacent pair (two mesh cells apart, head-on).
        let t = pair_timing(&cfg, 2, 0);
        assert_eq!(t.detection, 1);
        assert_eq!(t.completion, 4);
        // Diagonal pair.
        let t = pair_timing(&cfg, 2, 4);
        assert_eq!(t.detection, 4);
        assert_eq!(t.completion, 16);
        // Boundary pairing at mesh distance 2.
        let t = boundary_timing(&cfg, 2);
        assert_eq!(t.completion, 8);
        // Without the handshake everything is cheaper.
        let cfg = DecoderVariant::WithResetAndBoundary.config();
        assert!(pair_timing(&cfg, 2, 4).completion < 16);
    }

    #[test]
    fn empty_defects_decode_instantly() {
        let lat = Lattice::new(5).unwrap();
        let result = final_algorithm().decode_defects(&lat, Sector::X, &[]);
        assert!(result.completed);
        assert_eq!(result.cycles, 0);
    }

    #[test]
    fn pair_and_boundary_chains_clear_the_syndrome() {
        let lat = Lattice::new(7).unwrap();
        let defects = vec![
            ancilla_at(&lat, 5, 4),
            ancilla_at(&lat, 7, 6),
            ancilla_at(&lat, 1, 12),
        ];
        let (result, pairings) =
            final_algorithm().decode_defects_with_pairings(&lat, Sector::X, &defects);
        assert!(result.completed);
        assert_eq!(result.cleared_defects, 3);
        assert_eq!(pairings.len(), 2);
        let correction =
            PauliString::from_sparse(lat.num_data(), &result.chain_data_qubits, Pauli::Z);
        let syndrome = lat.syndrome_of(&correction);
        let mut cleared = lat.defects(&syndrome, Sector::X);
        cleared.sort_unstable();
        let mut expected = defects.clone();
        expected.sort_unstable();
        assert_eq!(cleared, expected);
    }

    #[test]
    fn lone_defect_without_boundary_never_completes() {
        let lat = Lattice::new(5).unwrap();
        let algorithm = GreedyMeshAlgorithm::new(DecoderVariant::WithReset.config());
        let result = algorithm.decode_defects(&lat, Sector::X, &[ancilla_at(&lat, 1, 4)]);
        assert!(!result.completed);
        assert_eq!(result.cleared_defects, 0);
        assert_eq!(result.cycles, algorithm.config().max_cycles(lat.size() + 2));
    }

    #[test]
    fn equidistant_flaw_pairs_with_both_without_handshake() {
        // Three colinear defects: the middle one is equidistant from both ends.
        let lat = Lattice::new(9).unwrap();
        let left = ancilla_at(&lat, 7, 2);
        let middle = ancilla_at(&lat, 7, 6);
        let right = ancilla_at(&lat, 7, 10);
        let no_handshake = GreedyMeshAlgorithm::new(DecoderVariant::WithResetAndBoundary.config());
        let (_, pairings) =
            no_handshake.decode_defects_with_pairings(&lat, Sector::X, &[left, middle, right]);
        // Both (left, middle) and (middle, right) complete simultaneously.
        let defect_pairs = pairings
            .iter()
            .filter(|p| matches!(p, MeshPairing::Defects(_, _)))
            .count();
        assert_eq!(defect_pairs, 2, "pairings: {pairings:?}");

        // The full design breaks the tie and pairs the middle with only one end.
        let (_, pairings) =
            final_algorithm().decode_defects_with_pairings(&lat, Sector::X, &[left, middle, right]);
        let middle_pairs = pairings
            .iter()
            .filter(|p| match p {
                MeshPairing::Defects(a, b) => *a == middle || *b == middle,
                MeshPairing::ToBoundary(a) => *a == middle,
                MeshPairing::ToGhost { live, .. } => *live == middle,
            })
            .count();
        assert_eq!(middle_pairs, 1, "pairings: {pairings:?}");
    }

    #[test]
    fn ghost_pairing_occurs_only_without_reset() {
        // Two nearby defects pair first; a third defect closer to one of the
        // ghosts than to the boundary then mis-pairs when reset is disabled.
        let lat = Lattice::new(9).unwrap();
        let a = ancilla_at(&lat, 7, 6);
        let b = ancilla_at(&lat, 7, 8);
        let c = ancilla_at(&lat, 7, 12);
        let baseline = GreedyMeshAlgorithm::new(DecoderVariant::Baseline.config());
        let (_, pairings) = baseline.decode_defects_with_pairings(&lat, Sector::X, &[a, b, c]);
        assert!(
            pairings
                .iter()
                .any(|p| matches!(p, MeshPairing::ToGhost { .. })),
            "expected a ghost pairing, got {pairings:?}"
        );
        let with_reset = GreedyMeshAlgorithm::new(DecoderVariant::WithReset.config());
        let (_, pairings) = with_reset.decode_defects_with_pairings(&lat, Sector::X, &[a, b, c]);
        assert!(
            !pairings
                .iter()
                .any(|p| matches!(p, MeshPairing::ToGhost { .. })),
            "reset must prevent ghost pairings, got {pairings:?}"
        );
    }

    #[test]
    fn cycles_grow_with_separation() {
        let lat = Lattice::new(9).unwrap();
        let algorithm = final_algorithm();
        let near = algorithm.decode_defects(
            &lat,
            Sector::X,
            &[ancilla_at(&lat, 7, 6), ancilla_at(&lat, 9, 6)],
        );
        let far = algorithm.decode_defects(
            &lat,
            Sector::X,
            &[ancilla_at(&lat, 7, 6), ancilla_at(&lat, 7, 12)],
        );
        assert!(far.cycles > near.cycles);
    }

    #[test]
    fn overlapping_chains_cancel() {
        // Two defects whose boundary paths share no qubits plus a defect pair
        // whose path overlaps nothing: the chain is simply their union; but if
        // two pairings ever produce the same qubit twice it must cancel.  The
        // invariant checked here is that the correction always reproduces the
        // defect syndrome exactly for the final design.
        let lat = Lattice::new(9).unwrap();
        let defects: Vec<usize> = vec![
            ancilla_at(&lat, 1, 2),
            ancilla_at(&lat, 3, 2),
            ancilla_at(&lat, 1, 6),
            ancilla_at(&lat, 15, 10),
        ];
        let result = final_algorithm().decode_defects(&lat, Sector::X, &defects);
        assert!(result.completed);
        let correction =
            PauliString::from_sparse(lat.num_data(), &result.chain_data_qubits, Pauli::Z);
        let syndrome = lat.syndrome_of(&correction);
        let mut cleared = lat.defects(&syndrome, Sector::X);
        cleared.sort_unstable();
        let mut expected = defects;
        expected.sort_unstable();
        assert_eq!(cleared, expected);
    }
}
