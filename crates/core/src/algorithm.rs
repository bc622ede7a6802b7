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
//! lattice, each sector's `rows × cols` ancilla grid (row-major bits of a
//! [`Bits<W>`], as in union-find) gets a table of completion times: at each
//! time, the offsets `(Δr, Δc)` that complete then — each a shift `s` and a
//! mask of the origins whose partner lies on the grid — and the modules whose
//! boundary pairing completes then.  A decode holds its live defects as a set
//! `L` and walks the times upwards, as every module of the mesh acts in the
//! same cycle: the pairings of a time are `P & (P >> s) & mask` per offset
//! and `L & boundary`, where the pool `P` is `L` with reset and every defect
//! without — a pair with one cleared end is then a pairing with its ghost.
//! A round sorts its few pairings into the order the handshake sees them
//! and applies them.  The word count `W` comes from union-find's ladder
//! {1, 2, 4, 8, 16}, so the mesh takes distances up to 31.
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
use nisqplus_decoders::bits::Bits;
use nisqplus_decoders::traits::sector_correction_pauli;
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The largest distance whose sector grid fits in 16 words.
const MAX_DISTANCE: usize = 31;

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

/// Where a decode's defects come from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Defects<'a> {
    /// The hot ancillas of the decoded sector.
    Hot(&'a Syndrome),
    /// Ancilla indices, in any order and possibly repeated.
    Listed(&'a [usize]),
}

/// Whom a hot module pairs with: the middle field of a candidate's key,
/// ordered as one module's simultaneous pairings reach the handshake.
const DEFECT: u32 = 0;
const BOUNDARY: u32 = 1;
const GHOST: u32 = 2;

/// A candidate pairing of module `a` with `partner` (a bit, or 0 for the
/// boundary) packed so that keys sort by `(a, kind, partner)`: the order in
/// which the handshake sees them.  Bits are below 1024 (d ≤ 31).
fn candidate(a: usize, kind: u32, partner: usize) -> u32 {
    (a as u32) << 12 | kind << 10 | partner as u32
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
    /// Per ancilla of the lattice: its bit, or `None` for the other sector.
    bit_of_ancilla: Vec<Option<u16>>,
    /// Per bit: its ancilla.
    ancilla_of_bit: Vec<usize>,
    offsets: Vec<Offset<W>>,
    /// Ascending by time; times no pairing completes at are left out.
    slots: Vec<Slot<W>>,
}

impl<const W: usize> SectorTables<W> {
    fn build(config: &MeshConfig, lattice: &Lattice, sector: Sector) -> Self {
        let d = lattice.distance();
        let (rows, cols) = match sector {
            Sector::X => (d - 1, d),
            Sector::Z => (d, d - 1),
        };
        let ancilla_of_bit: Vec<usize> = lattice.ancillas_in_sector(sector).collect();
        let mut bit_of_ancilla = vec![None; lattice.num_ancillas()];
        for (v, &a) in ancilla_of_bit.iter().enumerate() {
            bit_of_ancilla[a] = Some(v as u16);
        }

        // Every offset `(Δr, Δc)` whose partner comes later in row-major
        // order (`Δc > 0` on the origin's own row), and its completion time.
        // Neighbouring ancillas are two mesh cells apart.
        let pairs = || {
            (0..rows).flat_map(move |dr| {
                let first = if dr == 0 { 1 } else { 1 - cols as isize };
                (first..cols as isize).map(move |dc| (dr, dc))
            })
        };
        let times: Vec<usize> = pairs()
            .map(|(dr, dc)| pair_timing(config, 2 * dr, 2 * dc.unsigned_abs()).completion)
            .collect();

        let mut boundary = Vec::new();
        if config.boundary {
            for (v, &a) in ancilla_of_bit.iter().enumerate() {
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
        let horizon = times
            .iter()
            .map(|&t| t + 1)
            .max()
            .unwrap_or(0)
            .max(boundary.len());
        boundary.resize(horizon, Bits::EMPTY);

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
        // The offsets grouped by time: `start[t]..start[t + 1]` completes at
        // `t` (a counting sort).
        let mut start = vec![0; horizon + 1];
        for &time in &times {
            start[time + 1] += 1;
        }
        for t in 0..horizon {
            start[t + 1] += start[t];
        }
        let mut offsets = vec![
            Offset {
                shift: 0,
                mask: Bits::EMPTY
            };
            times.len()
        ];
        let mut next = start.clone();
        for ((dr, dc), time) in pairs().zip(times) {
            let (lo, hi) = match usize::try_from(dc) {
                Ok(right) => (0, cols - right),
                Err(_) => (dc.unsigned_abs(), cols),
            };
            offsets[next[time]] = Offset {
                shift: ((dr * cols) as isize + dc) as u32,
                mask: row_masks[dr] & left[hi] & !left[lo],
            };
            next[time] += 1;
        }
        let slots = (0..horizon)
            .filter(|&t| start[t] < start[t + 1] || !boundary[t].is_empty())
            .map(|time| Slot {
                time,
                offsets: start[time]..start[time + 1],
                boundary: boundary[time],
            })
            .collect();
        SectorTables {
            bit_of_ancilla,
            ancilla_of_bit,
            offsets,
            slots,
        }
    }

    /// The defects as a set of bits.
    fn live_set(&self, lattice: &Lattice, sector: Sector, defects: Defects<'_>) -> Bits<W> {
        let mut live = Bits::EMPTY;
        let mut insert = |a: usize| {
            let v = self.bit_of_ancilla[a]
                .unwrap_or_else(|| panic!("defect {a} does not belong to the {sector} sector"));
            live.insert(usize::from(v));
        };
        match defects {
            Defects::Hot(syndrome) => lattice.for_each_defect(syndrome, sector, insert),
            Defects::Listed(listed) => listed.iter().for_each(|&a| insert(a)),
        }
        live
    }

    /// Pushes onto `candidates` the pairings possible at `slot`: between two
    /// defects of `pool`, at least one of them `live`, and of a live defect
    /// with the boundary.  With reset the pool is the live defects; without,
    /// it is every defect, so that a live one also pairs with the lingering
    /// wave of a cleared one.  When one defect is left live, `lone`, it pairs
    /// with nothing but the boundary under reset, and without reset the walk
    /// tests its two possible partners' bits instead of shifting the pool,
    /// which on a wide grid costs a word operation per word.
    fn collect(
        &self,
        slot: &Slot<W>,
        pool: Bits<W>,
        live: Bits<W>,
        lone: Option<usize>,
        candidates: &mut Vec<u32>,
    ) {
        let offsets = &self.offsets[slot.offsets.clone()];
        if let Some(u) = lone {
            if pool == live {
                // The pool is `u` alone (reset, or nothing cleared yet).
                return self.collect_boundary(slot, live, candidates);
            }
            for &Offset { shift, mask } in offsets {
                let s = shift as usize;
                // A valid origin's partner is on the grid; a pool member
                // other than `u` is a ghost.
                if mask.contains(u) && pool.contains(u + s) {
                    candidates.push(candidate(u, GHOST, u + s));
                }
                if u >= s && mask.contains(u - s) && pool.contains(u - s) {
                    candidates.push(candidate(u, GHOST, u - s));
                }
            }
        } else {
            for &Offset { shift, mask } in offsets {
                for u in (pool & pool.minus(shift) & mask).iter() {
                    let v = u + shift as usize;
                    match (live.contains(u), live.contains(v)) {
                        (true, true) => candidates.push(candidate(u, DEFECT, v)),
                        (true, false) => candidates.push(candidate(u, GHOST, v)),
                        (false, true) => candidates.push(candidate(v, GHOST, u)),
                        (false, false) => {}
                    }
                }
            }
        }
        self.collect_boundary(slot, live, candidates);
    }

    /// Pushes onto `candidates` the boundary pairings of `live` at `slot`.
    fn collect_boundary(&self, slot: &Slot<W>, live: Bits<W>, candidates: &mut Vec<u32>) {
        for u in (live & slot.boundary).iter() {
            candidates.push(candidate(u, BOUNDARY, 0));
        }
    }

    /// Decodes the defects `live`, calling `flip` on every data qubit of
    /// every chain (module docs, "Bitboard walk").
    fn decode(
        &self,
        config: &MeshConfig,
        lattice: &Lattice,
        mut live: Bits<W>,
        candidates: &mut Vec<u32>,
        mut flip: impl FnMut(usize),
        mut pairings: Option<&mut Vec<MeshPairing>>,
    ) -> MeshOutcome {
        let defects = live.count_ones() as usize;
        let max_cycles = config.max_cycles(lattice.size() + 2);
        let mut dead = Bits::EMPTY;
        let mut remaining = defects;
        let mut cycles = 0usize;
        let mut slot = 0usize;
        while remaining > 0 && cycles < max_cycles {
            // The earliest time at which a pairing is still possible.
            candidates.clear();
            let pool = if config.reset { live } else { live | dead };
            let lone = live.first().filter(|_| remaining == 1);
            while slot < self.slots.len() {
                self.collect(&self.slots[slot], pool, live, lone, candidates);
                if !candidates.is_empty() {
                    break;
                }
                slot += 1;
            }
            if candidates.is_empty() {
                // No way to pair the remaining defects (e.g. a lone defect
                // with no boundary modules): the decode stalls until the cap.
                cycles = max_cycles;
                break;
            }
            candidates.sort_unstable();

            // --- Select which of the tied candidates actually complete -----
            let mut cleared = Bits::<W>::EMPTY;
            for &key in candidates.iter() {
                let (a, kind, b) = ((key >> 12) as usize, key >> 10 & 3, (key & 0x3FF) as usize);
                let other = (kind == DEFECT).then_some(b);
                let conflict = cleared.contains(a) || other.is_some_and(|b| cleared.contains(b));
                if conflict && config.equidistant_handshake {
                    // The request/grant handshake lets each hot module commit
                    // to exactly one pairing; later ties are dropped.
                    continue;
                }
                // Without the handshake, equidistant ties all fire (the flaw
                // Figure 8(c) illustrates); with it, disjoint simultaneous
                // pairings still complete concurrently.
                for endpoint in std::iter::once(a).chain(other) {
                    cleared.insert(endpoint);
                }
                // Chains overlap-toggle rather than accumulate: two chains
                // crossing the same data qubit cancel, exactly like two pair
                // pulses flipping the same error output.
                let (a, b) = (self.ancilla_of_bit[a], self.ancilla_of_bit[b]);
                match kind {
                    BOUNDARY => lattice.for_each_boundary_path_qubit(a, &mut flip),
                    _ => lattice.for_each_correction_path_qubit(a, b, &mut flip),
                }
                if let Some(pairings) = pairings.as_deref_mut() {
                    pairings.push(match kind {
                        DEFECT => MeshPairing::Defects(a, b),
                        BOUNDARY => MeshPairing::ToBoundary(a),
                        _ => MeshPairing::ToGhost { live: a, ghost: b },
                    });
                }
            }
            live = live & !cleared;
            dead = dead | cleared;
            remaining = live.count_ones() as usize;

            cycles += self.slots[slot].time;
            if config.reset {
                // Every candidate of this time was selected or lost an
                // endpoint: the time is spent.  Without reset it is scanned
                // again, because a defect the round cleared is a ghost by
                // now and can pair at the same time.
                slot += 1;
                if remaining > 0 {
                    cycles += usize::from(config.module_depth);
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

/// A mesh configuration's tables for one lattice, and the decode's working
/// memory, sized so that no decode on that lattice allocates.
#[derive(Debug, Clone)]
pub(crate) struct PreparedMesh {
    distance: usize,
    grids: Grids,
    /// The pairings possible at the time being scanned, as
    /// [`candidate`] keys.
    candidates: Vec<u32>,
}

impl PreparedMesh {
    /// Builds the tables of `config` on `lattice` for `sectors`.
    ///
    /// # Panics
    ///
    /// Panics if `lattice.distance()` exceeds 31.
    pub(crate) fn build(config: &MeshConfig, lattice: &Lattice, sectors: &[Sector]) -> Self {
        let d = lattice.distance();
        assert!(
            d <= MAX_DISTANCE,
            "the SFQ mesh supports distances up to {MAX_DISTANCE} (16 words per sector grid), \
             not d = {d}"
        );
        let n = lattice.ancillas_per_sector();
        let grids = match n.div_ceil(64) {
            1 => Grids::W1(sector_pair(config, lattice, sectors)),
            2 => Grids::W2(sector_pair(config, lattice, sectors)),
            3..=4 => Grids::W4(sector_pair(config, lattice, sectors)),
            5..=8 => Grids::W8(sector_pair(config, lattice, sectors)),
            _ => Grids::W16(sector_pair(config, lattice, sectors)),
        };
        PreparedMesh {
            distance: d,
            grids,
            // A time's candidates name each pair of defects at most once,
            // and each defect's boundary pairing.
            candidates: Vec::with_capacity(n * (n + 1) / 2),
        }
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
/// "Bitboard walk"): a few word operations per grid offset it reaches, and a
/// sort of the few pairings that complete at each round's time.
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

    /// Decodes `defects` of one sector on tables `prepared` built for
    /// `lattice`, applying the sector's correction Pauli to `out` along every
    /// chain and pushing the pairings, in the order they completed, onto
    /// `pairings` when there is one.
    ///
    /// # Panics
    ///
    /// Panics if a defect is not an ancilla of `sector`.
    pub(crate) fn decode_prepared(
        &self,
        lattice: &Lattice,
        sector: Sector,
        defects: Defects<'_>,
        prepared: &mut PreparedMesh,
        out: &mut PauliString,
        pairings: Option<&mut Vec<MeshPairing>>,
    ) -> MeshOutcome {
        debug_assert_eq!(prepared.distance, lattice.distance());
        let pauli = sector_correction_pauli(sector);
        let PreparedMesh {
            grids, candidates, ..
        } = prepared;
        let s = sector.index();
        macro_rules! decode {
            ($tables:expr) => {{
                let tables = $tables[s]
                    .as_ref()
                    .expect("the decoded sector's tables are built");
                let live = tables.live_set(lattice, sector, defects);
                let flip = |q| out.apply(q, pauli);
                tables.decode(&self.config, lattice, live, candidates, flip, pairings)
            }};
        }
        match grids {
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
        let mut prepared = PreparedMesh::build(&self.config, lattice, &[sector]);
        let mut chain = PauliString::identity(lattice.num_data());
        let mut pairings = Vec::new();
        let outcome = self.decode_prepared(
            lattice,
            sector,
            Defects::Listed(defects),
            &mut prepared,
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
