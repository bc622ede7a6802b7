//! Matching-based decoders: the greedy 2-approximation and exact
//! minimum-weight matching.
//!
//! Decoding the surface code can be phrased as a matching problem over the
//! detection events (Section V-A of the paper): build a complete graph on the
//! hot ancillas (plus boundary nodes), weight each edge by the length of the
//! shortest error chain that would connect the pair, and find the pairing of
//! minimum total weight.
//!
//! * [`GreedyMatchingDecoder`] sorts all candidate edges by length and adds
//!   them greedily — the same 2-approximation (Drake & Hougardy) that the
//!   paper's hardware algorithm realizes in the mesh.  Its
//!   [`Decoder::decode_into`] hot path runs entirely out of a reusable
//!   scratch arena (flat defect-slot map, in-place edge sort, callback path
//!   walking): zero heap allocation in steady state.
//! * [`ExactMatchingDecoder`] finds the true minimum-weight matching by
//!   dynamic programming over defect subsets, which is feasible for the
//!   defect counts arising at the code distances studied (d ≤ 11).  It plays
//!   the role of the software MWPM baseline [Fowler et al.].

use crate::traits::{sector_correction_pauli, sorted_defect_edges, Decoder, MatchPair, Matching};
use nisqplus_qec::lattice::{Lattice, Sector};
use nisqplus_qec::pauli::PauliString;
use nisqplus_qec::syndrome::Syndrome;
use std::collections::HashMap;

/// Slot sentinel marking a boundary pseudo-endpoint in the edge list.
const BOUNDARY: usize = usize::MAX;

/// The reusable per-call arena of the greedy decoder: defect list, candidate
/// edges, flat ancilla→slot map and per-slot matched flags.  Capacities are
/// reserved for the worst case (every same-sector ancilla hot) by
/// [`Decoder::prepare`], after which decode rounds never allocate.
#[derive(Debug, Clone, Default)]
struct GreedyScratch {
    defects: Vec<usize>,
    /// Candidate edges `(chain length, a, b)`; `b == BOUNDARY` marks a
    /// defect-boundary edge.
    edges: Vec<(usize, usize, usize)>,
    /// Flat map ancilla index -> slot in `defects` (entries are only valid
    /// for ancillas currently in `defects`, so no clearing is needed).
    slot_of: Vec<u32>,
    matched: Vec<bool>,
}

impl GreedyScratch {
    fn reserve_for(&mut self, lattice: &Lattice) {
        let per_sector = lattice.ancillas_per_sector();
        self.defects.reserve(per_sector);
        self.matched.reserve(per_sector);
        self.edges.reserve(per_sector * (per_sector + 1) / 2);
        self.slot_of.clear();
        self.slot_of.resize(lattice.num_ancillas(), 0);
    }
}

/// The greedy sorted-edge matching decoder (software reference model of the
/// paper's hardware algorithm).
///
/// The algorithm of Section V-B: compute all pairwise defect distances plus
/// each defect's distance to its nearest boundary, sort ascending, and accept
/// each edge whose endpoints are still unmatched.  Every defect ends up
/// matched because its boundary edge is always individually acceptable.
#[derive(Debug, Clone, Default)]
pub struct GreedyMatchingDecoder {
    scratch: GreedyScratch,
}

impl GreedyMatchingDecoder {
    /// Creates a greedy matching decoder.
    #[must_use]
    pub fn new() -> Self {
        GreedyMatchingDecoder::default()
    }

    /// Computes the greedy matching for an explicit defect list.
    #[must_use]
    pub fn match_defects(&self, lattice: &Lattice, defects: &[usize]) -> Matching {
        let mut matched = vec![false; defects.len()];
        let index_of: HashMap<usize, usize> =
            defects.iter().enumerate().map(|(i, &a)| (a, i)).collect();

        // Candidate edges: defect-defect and defect-boundary, sorted by length.
        // Boundary edges are encoded with `usize::MAX` as the second endpoint.
        let mut edges: Vec<(usize, usize, usize)> = sorted_defect_edges(lattice, defects);
        for &a in defects {
            edges.push((lattice.boundary_distance(a), a, BOUNDARY));
        }
        edges.sort_unstable();

        let mut matching = Matching::new();
        for (_, a, b) in edges {
            let ia = index_of[&a];
            if matched[ia] {
                continue;
            }
            if b == BOUNDARY {
                matched[ia] = true;
                matching.push(MatchPair::ToBoundary(a));
            } else {
                let ib = index_of[&b];
                if matched[ib] {
                    continue;
                }
                matched[ia] = true;
                matched[ib] = true;
                matching.push(MatchPair::Defects(a, b));
            }
        }
        matching
    }
}

impl Decoder for GreedyMatchingDecoder {
    fn name(&self) -> &str {
        "greedy-matching"
    }

    fn prepare(&mut self, lattice: &Lattice) {
        self.scratch.reserve_for(lattice);
    }

    /// The amortized greedy decode: identical matching decisions to
    /// [`GreedyMatchingDecoder::match_defects`] (pinned by the seed-reference
    /// property test), but run out of the scratch arena with the correction
    /// chains applied directly to `out` — no per-call allocation.
    fn decode_into(
        &mut self,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
        out: &mut PauliString,
    ) {
        out.reset_identity(lattice.num_data());
        if self.scratch.slot_of.len() != lattice.num_ancillas() {
            self.scratch.reserve_for(lattice);
        }
        let scratch = &mut self.scratch;
        scratch.defects.clear();
        lattice.for_each_defect(syndrome, sector, |a| scratch.defects.push(a));
        if scratch.defects.is_empty() {
            return;
        }

        scratch.matched.clear();
        scratch.matched.resize(scratch.defects.len(), false);
        scratch.edges.clear();
        for (i, &a) in scratch.defects.iter().enumerate() {
            scratch.slot_of[a] = i as u32;
            for &b in &scratch.defects[i + 1..] {
                scratch.edges.push((lattice.ancilla_distance(a, b), a, b));
            }
            scratch
                .edges
                .push((lattice.boundary_distance(a), a, BOUNDARY));
        }
        // One in-place sort over the combined candidate list is equivalent to
        // the seed's sort-then-append-then-sort: `sort_unstable` on tuples is
        // a total order, so the doubly-sorted seed sequence and this
        // once-sorted sequence are the same sequence.
        scratch.edges.sort_unstable();

        let pauli = sector_correction_pauli(sector);
        for k in 0..scratch.edges.len() {
            let (_, a, b) = scratch.edges[k];
            let ia = scratch.slot_of[a] as usize;
            if scratch.matched[ia] {
                continue;
            }
            if b == BOUNDARY {
                scratch.matched[ia] = true;
                lattice.apply_boundary_path(a, pauli, out);
            } else {
                let ib = scratch.slot_of[b] as usize;
                if scratch.matched[ib] {
                    continue;
                }
                scratch.matched[ia] = true;
                scratch.matched[ib] = true;
                lattice.apply_correction_path(a, b, pauli, out);
            }
        }
    }
}

/// Exact minimum-weight matching decoder (the MWPM baseline).
///
/// The decoder minimises the total chain length over all ways of pairing
/// defects with each other or with the boundary, by dynamic programming over
/// subsets of defects.  The subset DP costs `O(2^n · n)` time and memory in
/// the defect count `n`, so syndromes with more than 22 defects fall back to
/// the greedy matching (this only happens far above threshold, where every
/// decoder has already failed).
#[derive(Debug, Clone, Default)]
pub struct ExactMatchingDecoder {
    greedy: GreedyMatchingDecoder,
}

/// The largest defect count [`ExactMatchingDecoder`] matches exactly.
const MAX_EXACT_DEFECTS: usize = 22;

impl ExactMatchingDecoder {
    /// Creates an exact matching decoder.
    #[must_use]
    pub fn new() -> Self {
        ExactMatchingDecoder::default()
    }

    /// Computes a minimum-weight matching of the given defects.
    ///
    /// Falls back to the greedy matching above 22 defects.
    #[must_use]
    pub fn match_defects(&self, lattice: &Lattice, defects: &[usize]) -> Matching {
        let n = defects.len();
        if n == 0 {
            return Matching::new();
        }
        if n > MAX_EXACT_DEFECTS {
            return self.greedy.match_defects(lattice, defects);
        }

        // Pre-compute distances.
        let mut pair_dist = vec![vec![0usize; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = lattice.ancilla_distance(defects[i], defects[j]);
                pair_dist[i][j] = d;
                pair_dist[j][i] = d;
            }
        }
        let boundary_dist: Vec<usize> = defects
            .iter()
            .map(|&a| lattice.boundary_distance(a))
            .collect();

        // DP over subsets: best[mask] = minimal weight to match every defect in `mask`.
        let full = (1u64 << n) - 1;
        // Memo for the subset DP: mask -> (cost, step taken), where a step is
        // (first defect, Some(partner) | None-for-boundary).
        type MatchStep = (usize, Option<usize>);
        type MatchMemo = HashMap<u64, (usize, Option<MatchStep>)>;
        let mut memo: MatchMemo = HashMap::new();
        memo.insert(0, (0, None));

        fn solve(
            mask: u64,
            n: usize,
            pair_dist: &[Vec<usize>],
            boundary_dist: &[usize],
            memo: &mut MatchMemo,
        ) -> usize {
            if let Some(&(cost, _)) = memo.get(&mask) {
                return cost;
            }
            let first = mask.trailing_zeros() as usize;
            // Option 1: match `first` to the boundary.
            let rest = mask & !(1u64 << first);
            let mut best =
                boundary_dist[first].saturating_add(solve(rest, n, pair_dist, boundary_dist, memo));
            let mut choice = (first, None);
            // Option 2: match `first` with another defect still in the mask.
            for j in (first + 1)..n {
                if rest & (1u64 << j) != 0 {
                    let sub = rest & !(1u64 << j);
                    let cost = pair_dist[first][j].saturating_add(solve(
                        sub,
                        n,
                        pair_dist,
                        boundary_dist,
                        memo,
                    ));
                    if cost < best {
                        best = cost;
                        choice = (first, Some(j));
                    }
                }
            }
            memo.insert(mask, (best, Some(choice)));
            best
        }

        solve(full, n, &pair_dist, &boundary_dist, &mut memo);

        // Reconstruct the optimal pairing.
        let mut matching = Matching::new();
        let mut mask = full;
        while mask != 0 {
            let (_, choice) = memo[&mask];
            let (first, partner) = choice.expect("non-empty mask always has a recorded choice");
            match partner {
                Some(j) => {
                    matching.push(MatchPair::Defects(defects[first], defects[j]));
                    mask &= !(1u64 << first);
                    mask &= !(1u64 << j);
                }
                None => {
                    matching.push(MatchPair::ToBoundary(defects[first]));
                    mask &= !(1u64 << first);
                }
            }
        }
        matching
    }
}

impl Decoder for ExactMatchingDecoder {
    fn name(&self) -> &str {
        "mwpm"
    }

    fn prepare(&mut self, lattice: &Lattice) {
        self.greedy.prepare(lattice);
    }

    fn decode_into(
        &mut self,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
        out: &mut PauliString,
    ) {
        out.reset_identity(lattice.num_data());
        let defects = lattice.defects(syndrome, sector);
        self.match_defects(lattice, &defects)
            .apply_to(lattice, sector, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisqplus_qec::lattice::Coord;
    use nisqplus_qec::logical::{classify_residual, LogicalState};
    use nisqplus_qec::pauli::{Pauli, PauliString};

    fn decode_and_classify<D: Decoder>(
        decoder: &mut D,
        lattice: &Lattice,
        error: &PauliString,
    ) -> LogicalState {
        let syndrome = lattice.syndrome_of(error);
        let correction = decoder.decode(lattice, &syndrome, Sector::X);
        classify_residual(lattice, error, correction.pauli_string(), Sector::X)
    }

    #[test]
    fn empty_syndrome_produces_identity_correction() {
        let lat = Lattice::new(5).unwrap();
        let syndrome = Syndrome::new(lat.num_ancillas());
        for decoder in [
            &mut ExactMatchingDecoder::new() as &mut dyn Decoder,
            &mut GreedyMatchingDecoder::new() as &mut dyn Decoder,
        ] {
            let c = decoder.decode(&lat, &syndrome, Sector::X);
            assert_eq!(c.weight(), 0);
            let mut buf = PauliString::identity(lat.num_data());
            decoder.decode_into(&lat, &syndrome, Sector::X, &mut buf);
            assert!(buf.is_identity());
        }
    }

    #[test]
    fn single_error_corrected_by_both_decoders() {
        let lat = Lattice::new(5).unwrap();
        for q in 0..lat.num_data() {
            let error = PauliString::from_sparse(lat.num_data(), &[q], Pauli::Z);
            assert_eq!(
                decode_and_classify(&mut ExactMatchingDecoder::new(), &lat, &error),
                LogicalState::Success,
                "exact failed on single error at data qubit {q}"
            );
            assert_eq!(
                decode_and_classify(&mut GreedyMatchingDecoder::new(), &lat, &error),
                LogicalState::Success,
                "greedy failed on single error at data qubit {q}"
            );
        }
    }

    #[test]
    fn greedy_decode_into_matches_decode() {
        let lat = Lattice::new(7).unwrap();
        let mut decoder = GreedyMatchingDecoder::new();
        decoder.prepare(&lat);
        let mut buf = PauliString::identity(lat.num_data());
        let xs: Vec<usize> = lat.ancillas_in_sector(Sector::X).collect();
        for chunk in xs.chunks(5) {
            let syndrome = Syndrome::from_hot(lat.num_ancillas(), chunk);
            let via_decode = decoder.decode(&lat, &syndrome, Sector::X);
            decoder.decode_into(&lat, &syndrome, Sector::X, &mut buf);
            assert_eq!(&buf, via_decode.pauli_string(), "defects {chunk:?}");
        }
    }

    #[test]
    fn two_adjacent_errors_corrected_at_distance_five() {
        let lat = Lattice::new(5).unwrap();
        // A short chain in the bulk.
        let q1 = lat.cell(Coord::new(4, 4)).index;
        let q2 = lat.cell(Coord::new(6, 4)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[q1, q2], Pauli::Z);
        assert_eq!(
            decode_and_classify(&mut ExactMatchingDecoder::new(), &lat, &error),
            LogicalState::Success
        );
    }

    #[test]
    fn any_error_of_weight_at_most_half_distance_is_corrected_exactly() {
        // The exact decoder must correct every error of weight <= (d-1)/2.
        let lat = Lattice::new(5).unwrap();
        let mut decoder = ExactMatchingDecoder::new();
        // All single and a sample of double errors.
        for a in 0..lat.num_data() {
            for b in (a + 1)..lat.num_data() {
                if (a + b) % 7 != 0 {
                    continue; // sample to keep the test fast
                }
                let error = PauliString::from_sparse(lat.num_data(), &[a, b], Pauli::Z);
                assert_eq!(
                    decode_and_classify(&mut decoder, &lat, &error),
                    LogicalState::Success,
                    "exact decoder failed on weight-2 error ({a}, {b}) at d=5"
                );
            }
        }
    }

    #[test]
    fn exact_matching_weight_never_exceeds_greedy() {
        let lat = Lattice::new(7).unwrap();
        let xs: Vec<usize> = lat.ancillas_in_sector(Sector::X).collect();
        let exact = ExactMatchingDecoder::new();
        let greedy = GreedyMatchingDecoder::new();
        // Several defect configurations.
        let configs: Vec<Vec<usize>> = vec![
            vec![xs[0], xs[5], xs[11], xs[17]],
            vec![xs[1], xs[2], xs[3], xs[4], xs[20], xs[21]],
            vec![xs[0], xs[41]],
            vec![xs[7]],
            vec![xs[3], xs[9], xs[27], xs[33], xs[39], xs[40]],
        ];
        for defects in configs {
            let we = exact.match_defects(&lat, &defects).total_weight(&lat);
            let wg = greedy.match_defects(&lat, &defects).total_weight(&lat);
            assert!(we <= wg, "exact {we} > greedy {wg} for defects {defects:?}");
            assert!(
                wg <= 2 * we.max(1),
                "greedy exceeded its 2-approximation bound"
            );
        }
    }

    #[test]
    fn matchings_cover_all_defects() {
        let lat = Lattice::new(7).unwrap();
        let xs: Vec<usize> = lat.ancillas_in_sector(Sector::X).collect();
        let defects = vec![xs[0], xs[5], xs[11], xs[17], xs[23]];
        for matching in [
            ExactMatchingDecoder::new().match_defects(&lat, &defects),
            GreedyMatchingDecoder::new().match_defects(&lat, &defects),
        ] {
            assert!(matching.covers_exactly(&defects));
        }
    }

    #[test]
    fn fallback_to_greedy_above_defect_cap() {
        let lat = Lattice::new(9).unwrap();
        let xs: Vec<usize> = lat.ancillas_in_sector(Sector::X).collect();
        let defects = &xs[..MAX_EXACT_DEFECTS + 1];
        let matching = ExactMatchingDecoder::new().match_defects(&lat, defects);
        assert!(matching.covers_exactly(defects));
        assert_eq!(
            matching,
            GreedyMatchingDecoder::new().match_defects(&lat, defects)
        );
    }

    /// Every X ancilla of d = 9 hot: 72 defects, beyond even a 64-bit
    /// subset mask, still decode and are all covered.
    #[test]
    fn more_defects_than_the_mask_width_falls_back_gracefully() {
        let lat = Lattice::new(9).unwrap();
        let all: Vec<usize> = lat.ancillas_in_sector(Sector::X).collect();
        assert_eq!(all.len(), 72);
        let matching = ExactMatchingDecoder::new().match_defects(&lat, &all);
        assert!(matching.covers_exactly(&all));
    }

    #[test]
    fn boundary_pairing_is_chosen_when_cheaper() {
        let lat = Lattice::new(9).unwrap();
        // Two defects on opposite edges of the lattice: matching each to its
        // own boundary is cheaper than matching them together.
        let xs: Vec<usize> = lat.ancillas_in_sector(Sector::X).collect();
        let top = *xs.iter().find(|&&a| lat.ancilla_coord(a).row == 1).unwrap();
        let bottom = *xs
            .iter()
            .find(|&&a| lat.ancilla_coord(a).row == lat.size() - 2)
            .unwrap();
        let matching = ExactMatchingDecoder::new().match_defects(&lat, &[top, bottom]);
        assert_eq!(matching.len(), 2);
        for pair in matching.pairs() {
            assert!(matches!(pair, MatchPair::ToBoundary(_)));
        }
    }

    #[test]
    fn decoder_names() {
        assert_eq!(ExactMatchingDecoder::new().name(), "mwpm");
        assert_eq!(GreedyMatchingDecoder::new().name(), "greedy-matching");
    }

    #[test]
    fn decode_both_sectors_handles_y_errors() {
        let lat = Lattice::new(5).unwrap();
        let q = lat.cell(Coord::new(4, 4)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[q], Pauli::Y);
        let syndrome = lat.syndrome_of(&error);
        let mut decoder = ExactMatchingDecoder::new();
        let mut correction = PauliString::identity(lat.num_data());
        let mut z_part = PauliString::identity(lat.num_data());
        decoder.decode_into(&lat, &syndrome, Sector::X, &mut correction);
        decoder.decode_into(&lat, &syndrome, Sector::Z, &mut z_part);
        correction.compose_with(&z_part);
        let (x_state, z_state) =
            nisqplus_qec::logical::classify_both_sectors(&lat, &error, &correction);
        assert_eq!(x_state, LogicalState::Success);
        assert_eq!(z_state, LogicalState::Success);
    }
}
