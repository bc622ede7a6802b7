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
//! # Bitboard walk
//!
//! A pairing's completion time depends only on the grid offset between its
//! two modules, and a boundary pairing's only on the module.  So, once per
//! lattice, each sector's `rows × cols` ancilla grid
//! ([`Lattice::sector_grid`]; row-major bits of a [`Bits<W>`], as in
//! union-find, so a decode's defects are one copy of the syndrome's bit
//! range for the sector) gets a table of completion times: at each
//! time, the offsets `(Δr, Δc)` that complete then — each a shift `s` and a
//! mask of the origins whose partner lies on the grid — and the modules whose
//! boundary pairing completes then.  A decode holds its live defects as a set
//! `L` and walks the times upwards, as every module of the mesh acts in the
//! same cycle: the pairings of a time are `P & (P >> s) & mask` per offset
//! and `L & boundary`, where the pool `P` is `L` with reset and every defect
//! without — a pair with one cleared end is then a pairing with its ghost.
//! A round then visits the modules that pair at that time in ascending
//! order, each offering its pairings as the handshake sees them: later
//! live defects, the boundary, then ghosts, each ascending — no list, no
//! sort.  The word count `W` comes from union-find's ladder
//! {1, 2, 4, 8, 16}, so the mesh takes distances up to
//! [`MAX_DISTANCE`](nisqplus_decoders::bits::MAX_DISTANCE).
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
use nisqplus_decoders::bits::{assert_distance_supported, Bits};
use nisqplus_decoders::traits::sector_correction_pauli;
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::{Pauli, PauliString};
use nisqplus_qec::syndrome::Syndrome;
use serde::{Deserialize, Serialize};
use std::ops::Range;

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
    /// Hot syndromes handed to the decode.
    pub(crate) defects: usize,
    /// Mesh clock cycles consumed.
    pub(crate) cycles: usize,
    /// Hot syndromes paired off.
    pub(crate) cleared_defects: usize,
    /// Whether every hot syndrome was cleared before the cycle cap.
    pub(crate) completed: bool,
}

/// One grid offset: the pairings `(u, u + shift)` for the origins `u` in
/// `mask`.
#[derive(Debug, Clone, Copy)]
struct Offset<const W: usize> {
    shift: u32,
    mask: Bits<W>,
}

/// One completion time at which some pairing can complete.
#[derive(Debug, Clone)]
struct Slot<const W: usize> {
    time: usize,
    /// The offsets completing at `time`, in [`SectorTables::offsets`].
    offsets: Range<usize>,
    /// The modules whose boundary pairing completes at `time`.
    boundary: Bits<W>,
}

/// One sector's completion-time tables (module docs, "Bitboard walk").
#[derive(Debug, Clone)]
struct SectorTables<const W: usize> {
    /// The configuration the times are of.
    config: MeshConfig,
    /// The sector's first ancilla: bit `v` is ancilla `offset + v`.
    offset: usize,
    /// The Pauli a chain applies ([`sector_correction_pauli`]).
    pauli: Pauli,
    offsets: Vec<Offset<W>>,
    /// Ascending by time; times no pairing completes at are left out.
    slots: Vec<Slot<W>>,
}

impl<const W: usize> SectorTables<W> {
    fn build(config: &MeshConfig, lattice: &Lattice, sector: Sector) -> Self {
        let grid = lattice.sector_grid(sector);
        let (rows, cols, offset) = (grid.rows, grid.cols, grid.offset);

        let mut boundary = Vec::new();
        if config.boundary {
            for (v, a) in lattice.ancillas_in_sector(sector).enumerate() {
                // Distance (in mesh cells) from an ancilla module to the
                // nearest boundary module of its sector: one cell beyond the
                // last data qubit.
                let time = boundary_timing(config, 2 * lattice.boundary_distance(a)).completion;
                if boundary.len() <= time {
                    boundary.resize(time + 1, Bits::EMPTY);
                }
                boundary[time].toggle(v);
            }
        }

        // An origin's partner must stay on the grid: `Δr` rows down (a row
        // mask) and `Δc` columns across (a column mask; `left[k]` holds the
        // columns `0..k`).
        let row_masks: Vec<Bits<W>> = (0..rows)
            .map(|dr| Bits::below((rows - dr) * cols))
            .collect();
        let mut column = Bits::<W>::EMPTY;
        for i in 0..rows {
            column.insert(i * cols);
        }
        let mut left = vec![Bits::EMPTY; cols + 1];
        for k in 1..=cols {
            left[k] = left[k - 1] | column;
            column = column.plus(1);
        }
        // Every offset `(Δr, Δc)` whose partner comes later in row-major
        // order (`Δc > 0` on the origin's own row), with its completion time;
        // neighbouring ancillas are two mesh cells apart.
        let (times, unsorted): (Vec<usize>, Vec<Offset<W>>) = (0..rows)
            .flat_map(|dr| {
                let first = if dr == 0 { 1 } else { 1 - cols as isize };
                (first..cols as isize).map(move |dc| (dr, dc))
            })
            .map(|(dr, dc)| {
                let (lo, hi) = match usize::try_from(dc) {
                    Ok(right) => (0, cols - right),
                    Err(_) => (dc.unsigned_abs(), cols),
                };
                let offset = Offset {
                    shift: ((dr * cols) as isize + dc) as u32,
                    mask: row_masks[dr] & left[hi] & !left[lo],
                };
                let time = pair_timing(config, 2 * dr, 2 * dc.unsigned_abs()).completion;
                (time, offset)
            })
            .unzip();
        // Grouped by time; each time keeps the `(Δr, Δc)` order.
        let mut order: Vec<(usize, usize)> = times.into_iter().zip(0..).collect();
        order.sort();
        let offsets = order.iter().map(|&(_, i)| unsorted[i]).collect();
        let horizon = order.last().map_or(0, |&(t, _)| t + 1).max(boundary.len());
        boundary.resize(horizon, Bits::EMPTY);
        let start = |t| order.partition_point(|&(s, _)| s < t);
        let slots = (0..horizon)
            .filter(|&t| start(t) < start(t + 1) || !boundary[t].is_empty())
            .map(|time| Slot {
                time,
                offsets: start(time)..start(time + 1),
                boundary: boundary[time],
            })
            .collect();
        SectorTables {
            config: *config,
            offset,
            pauli: sector_correction_pauli(sector),
            offsets,
            slots,
        }
    }

    /// The live modules that pair at `slot`: the origin of each pairing of
    /// two `live` or `ghosts` modules at least one of which is live — its live
    /// end when the other is a ghost — and each live module whose boundary
    /// pairing completes then.  When one defect is left live, `lone`, it
    /// pairs with nothing but the boundary and the ghosts, and it tests its
    /// two possible partners' bits per offset instead of shifting the pool,
    /// which on a wide grid costs a word operation per word.
    fn origins(
        &self,
        slot: &Slot<W>,
        live: Bits<W>,
        ghosts: Bits<W>,
        lone: Option<usize>,
    ) -> Bits<W> {
        let boundary = live & slot.boundary;
        let lingering = !ghosts.is_empty();
        let offsets = &self.offsets[slot.offsets.clone()];
        if let Some(u) = lone {
            let meets_a_ghost = lingering
                && offsets.iter().any(|&Offset { shift, mask }| {
                    let s = shift as usize;
                    mask.contains(u) && ghosts.contains(u + s)
                        || u >= s && mask.contains(u - s) && ghosts.contains(u - s)
                });
            return if meets_a_ghost { live } else { boundary };
        }
        let pool = live | ghosts;
        let mut origins = boundary;
        for &Offset { shift, mask } in offsets {
            let pairs = pool & pool.minus(shift) & mask;
            if lingering {
                // A ghost's pairing belongs to its live partner.
                origins = origins | (pairs & live) | ((pairs & ghosts).plus(shift) & live);
            } else {
                origins = origins | pairs;
            }
        }
        origins
    }

    /// The pairings the live module at bit `a` can make at `slot`, by
    /// ancilla, in the order the handshake sees them: with its later live
    /// defects, the boundary, then the `ghosts`, each ascending.  For one
    /// module the offsets of a time, in `(Δr, Δc)` order, reach partners in
    /// row-major, that is index, order: walked forwards they give `a + s`
    /// ascending, backwards `a − s`.
    fn partners<'a>(
        &'a self,
        slot: &'a Slot<W>,
        a: usize,
        live: Bits<W>,
        ghosts: Bits<W>,
    ) -> impl Iterator<Item = MeshPairing> + 'a {
        let offsets = &self.offsets[slot.offsets.clone()];
        // With no ghost lingering, the two ghost walks cost nothing.
        let haunting = if ghosts.is_empty() { &[][..] } else { offsets };
        let later = move |offsets: &'a [Offset<W>], set: Bits<W>| {
            offsets.iter().filter_map(move |&Offset { shift, mask }| {
                let b = a + shift as usize;
                (mask.contains(a) && set.contains(b)).then_some(b)
            })
        };
        let earlier = haunting
            .iter()
            .rev()
            .filter_map(move |&Offset { shift, mask }| {
                let b = a.checked_sub(shift as usize)?;
                (mask.contains(b) && ghosts.contains(b)).then_some(b)
            });
        let (o, at) = (self.offset, self.offset + a);
        let to_boundary = slot.boundary.contains(a);
        let ghost = move |g| MeshPairing::ToGhost {
            live: at,
            ghost: o + g,
        };
        later(offsets, live)
            .map(move |b| MeshPairing::Defects(at, o + b))
            .chain(to_boundary.then_some(MeshPairing::ToBoundary(at)))
            .chain(earlier.chain(later(haunting, ghosts)).map(ghost))
    }

    /// Decodes the defects `live`, applying the sector's correction Pauli
    /// to `out` along every chain (module docs, "Bitboard walk").  `RESET`
    /// and `HANDSHAKE` are the configuration's as constants, so that each
    /// of the four walks compiles without the other's branches.
    fn decode<const RESET: bool, const HANDSHAKE: bool>(
        &self,
        lattice: &Lattice,
        mut live: Bits<W>,
        out: &mut PauliString,
        mut pairings: Option<&mut Vec<MeshPairing>>,
    ) -> MeshOutcome {
        let defects = live.count_ones() as usize;
        let max_cycles = self.config.max_cycles_on(lattice);
        let mut dead = Bits::EMPTY;
        let mut remaining = defects;
        let mut cycles = 0usize;
        let mut slot = 0usize;
        while remaining > 0 && cycles < max_cycles {
            // The earliest time at which a pairing is still possible, and
            // the modules that pair then.
            let ghosts = if RESET { Bits::EMPTY } else { dead };
            let lone = live.first().filter(|_| remaining == 1);
            let mut origins = Bits::EMPTY;
            while slot < self.slots.len() {
                origins = self.origins(&self.slots[slot], live, ghosts, lone);
                if !origins.is_empty() {
                    break;
                }
                slot += 1;
            }
            if origins.is_empty() {
                // No way to pair the remaining defects (e.g. a lone defect
                // with no boundary modules): the decode stalls until the cap.
                cycles = max_cycles;
                break;
            }

            // --- Select, module by module, the pairings that complete -----
            let at = &self.slots[slot];
            let mut cleared = Bits::<W>::EMPTY;
            let mut fire = |a: usize, pairing: MeshPairing, cleared: &mut Bits<W>| {
                // Chains overlap-toggle rather than accumulate: two chains
                // crossing the same data qubit cancel, exactly like two pair
                // pulses flipping the same error output.  Each goes onto
                // the correction's words as one or two runs of qubits.
                cleared.insert(a);
                match pairing {
                    MeshPairing::Defects(u, v) => {
                        cleared.insert(v - self.offset);
                        lattice.apply_correction_path(u, v, self.pauli, out);
                    }
                    MeshPairing::ToBoundary(u) => lattice.apply_boundary_path(u, self.pauli, out),
                    MeshPairing::ToGhost { live, ghost } => {
                        lattice.apply_correction_path(live, ghost, self.pauli, out);
                    }
                }
                if let Some(pairings) = pairings.as_deref_mut() {
                    pairings.push(pairing);
                }
            };
            origins.iter().for_each(|a| {
                if !HANDSHAKE {
                    // Without the handshake, equidistant ties all fire (the
                    // flaw Figure 8(c) illustrates).
                    let partners = self.partners(at, a, live, ghosts);
                    partners.for_each(|pairing| fire(a, pairing, &mut cleared));
                } else if !cleared.contains(a) {
                    // The request/grant handshake lets each hot module
                    // commit to exactly one pairing, its first whose partner
                    // is still hot; disjoint simultaneous pairings still
                    // complete concurrently.
                    let free = |pairing: &MeshPairing| match *pairing {
                        MeshPairing::Defects(_, b) => !cleared.contains(b - self.offset),
                        _ => true,
                    };
                    if let Some(pairing) = self.partners(at, a, live, ghosts).find(free) {
                        fire(a, pairing, &mut cleared);
                    }
                }
            });
            live = live & !cleared;
            dead = dead | cleared;
            remaining = live.count_ones() as usize;

            cycles += at.time;
            if RESET {
                // Every pairing of this time was selected or lost an
                // endpoint: the time is spent.  Without reset it is scanned
                // again, because a defect the round cleared is a ghost by
                // now and can pair at the same time.
                slot += 1;
                if remaining > 0 {
                    cycles += usize::from(self.config.module_depth);
                }
            }
            if cycles >= max_cycles {
                cycles = max_cycles;
                break;
            }
        }

        MeshOutcome {
            defects,
            cycles,
            cleared_defects: defects - remaining,
            completed: remaining == 0,
        }
    }
}

/// The sectors' tables, `[X, Z]`, at the word count the grid needs: `None`
/// for a sector not built.
#[derive(Debug, Clone)]
enum Grids {
    W1(SectorPair<1>),
    W2(SectorPair<2>),
    W4(SectorPair<4>),
    W8(SectorPair<8>),
    W16(SectorPair<16>),
}

type SectorPair<const W: usize> = Box<[Option<SectorTables<W>>; 2]>;

fn sector_pair<const W: usize>(
    config: &MeshConfig,
    lattice: &Lattice,
    sectors: &[Sector],
) -> SectorPair<W> {
    Box::new(Sector::ALL.map(|sector| {
        sectors
            .contains(&sector)
            .then(|| SectorTables::build(config, lattice, sector))
    }))
}

/// A mesh configuration's tables for one lattice: a decode on that lattice
/// reads them and allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct PreparedMesh {
    distance: usize,
    grids: Grids,
}

impl PreparedMesh {
    /// Builds the tables of `config` on `lattice` for `sectors`.
    ///
    /// # Panics
    ///
    /// Panics if `lattice.distance()` exceeds 31.
    pub(crate) fn build(config: &MeshConfig, lattice: &Lattice, sectors: &[Sector]) -> Self {
        let d = lattice.distance();
        assert_distance_supported("the SFQ mesh", d);
        let n = lattice.ancillas_per_sector();
        let grids = match n.div_ceil(64) {
            1 => Grids::W1(sector_pair(config, lattice, sectors)),
            2 => Grids::W2(sector_pair(config, lattice, sectors)),
            3..=4 => Grids::W4(sector_pair(config, lattice, sectors)),
            5..=8 => Grids::W8(sector_pair(config, lattice, sectors)),
            _ => Grids::W16(sector_pair(config, lattice, sectors)),
        };
        PreparedMesh { distance: d, grids }
    }

    /// The distance of the lattice the tables were built for.
    pub(crate) fn distance(&self) -> usize {
        self.distance
    }
}

/// The greedy mesh decoder.
///
/// A pairing's completion time depends on the pair alone, and a round
/// completes, among the pairings whose hot modules are still live, all those
/// of the earliest completion time, in the order one would enumerate them:
/// by first defect, each with its later defects ascending, then the
/// boundary, then the ghosts ascending.  So a decode walks the completion
/// times upwards over bitboard tables built once per lattice (module docs,
/// "Bitboard walk"): a few word operations per grid offset it reaches, and,
/// for each module that pairs at a round's time, a bit test per offset of
/// that time.
/// [`SfqMeshDecoder`](crate::SfqMeshDecoder) keeps the tables from decode to
/// decode; the `decode_defects` entry points build the decoded sector's per call.
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

    /// Decodes the hot ancillas of one sector on tables `prepared` built
    /// for `lattice`, applying the sector's correction Pauli to `out` along
    /// every chain and pushing the pairings, in the order they completed,
    /// onto `pairings` when there is one.
    pub(crate) fn decode_prepared(
        &self,
        lattice: &Lattice,
        sector: Sector,
        syndrome: &Syndrome,
        prepared: &PreparedMesh,
        out: &mut PauliString,
        pairings: Option<&mut Vec<MeshPairing>>,
    ) -> MeshOutcome {
        debug_assert_eq!(prepared.distance, lattice.distance());
        let s = sector.index();
        macro_rules! decode {
            ($tables:expr) => {{
                let tables = $tables[s]
                    .as_ref()
                    .expect("the decoded sector's tables are built");
                let live = Bits::defects(lattice, syndrome, sector);
                match (self.config.reset, self.config.equidistant_handshake) {
                    (true, true) => tables.decode::<true, true>(lattice, live, out, pairings),
                    (true, false) => tables.decode::<true, false>(lattice, live, out, pairings),
                    (false, true) => tables.decode::<false, true>(lattice, live, out, pairings),
                    (false, false) => tables.decode::<false, false>(lattice, live, out, pairings),
                }
            }};
        }
        match &prepared.grids {
            Grids::W1(g) => decode!(g),
            Grids::W2(g) => decode!(g),
            Grids::W4(g) => decode!(g),
            Grids::W8(g) => decode!(g),
            Grids::W16(g) => decode!(g),
        }
    }

    /// Decodes the given defects, returning the chain, cycle count and the
    /// list of pairings in the order they completed.
    ///
    /// Every call builds the sector's tables afresh, a few µs at d = 9; a
    /// loop of decodes belongs on [`SfqMeshDecoder`](crate::SfqMeshDecoder),
    /// which keeps them.
    ///
    /// # Panics
    ///
    /// Panics if a defect is not an ancilla of `sector`, or if
    /// `lattice.distance()` exceeds 31.
    #[must_use]
    pub fn decode_defects_with_pairings(
        &self,
        lattice: &Lattice,
        sector: Sector,
        defects: &[usize],
    ) -> (MeshDecodeResult, Vec<MeshPairing>) {
        let ancillas = lattice.ancillas_in_sector(sector);
        if let Some(a) = defects.iter().find(|a| !ancillas.contains(a)) {
            panic!("defect {a} does not belong to the {sector} sector");
        }
        let syndrome = Syndrome::from_hot(lattice.num_ancillas(), defects);
        let prepared = PreparedMesh::build(&self.config, lattice, &[sector]);
        let mut chain = PauliString::identity(lattice.num_data());
        let mut pairings = Vec::new();
        let outcome = self.decode_prepared(
            lattice,
            sector,
            &syndrome,
            &prepared,
            &mut chain,
            Some(&mut pairings),
        );
        let result = MeshDecodeResult {
            chain_data_qubits: chain.support(),
            cycles: outcome.cycles,
            cleared_defects: outcome.cleared_defects,
            completed: outcome.completed,
        };
        (result, pairings)
    }

    /// Decodes the given defects, returning only the decode result.
    ///
    /// # Panics
    ///
    /// As [`GreedyMeshAlgorithm::decode_defects_with_pairings`].
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

    /// What a round's walk relies on: at every time, the offsets reach any
    /// one module's partners in ascending index order.
    #[test]
    fn a_times_offsets_reach_each_modules_partners_in_index_order() {
        fn check<const W: usize>(tables: &SectorTables<W>, n: usize) {
            for slot in &tables.slots {
                for a in 0..n {
                    let partners: Vec<usize> = tables.offsets[slot.offsets.clone()]
                        .iter()
                        .filter(|o| o.mask.contains(a))
                        .map(|o| a + o.shift as usize)
                        .collect();
                    assert!(partners.windows(2).all(|p| p[0] < p[1]), "{partners:?}");
                }
            }
        }
        // One distance per word count: 1, 2, 4, 8 and 16 words.
        for d in [5, 9, 13, 17, 25] {
            let lattice = Lattice::new(d).unwrap();
            let n = lattice.ancillas_per_sector();
            for variant in DecoderVariant::ALL {
                let prepared = PreparedMesh::build(&variant.config(), &lattice, &Sector::ALL);
                for s in 0..2 {
                    match &prepared.grids {
                        Grids::W1(g) => check(g[s].as_ref().unwrap(), n),
                        Grids::W2(g) => check(g[s].as_ref().unwrap(), n),
                        Grids::W4(g) => check(g[s].as_ref().unwrap(), n),
                        Grids::W8(g) => check(g[s].as_ref().unwrap(), n),
                        Grids::W16(g) => check(g[s].as_ref().unwrap(), n),
                    }
                }
            }
        }
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
        cleared.sort();
        let mut expected = defects.clone();
        expected.sort();
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
        cleared.sort();
        let mut expected = defects;
        expected.sort();
        assert_eq!(cleared, expected);
    }
}
