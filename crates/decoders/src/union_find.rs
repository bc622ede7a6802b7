//! The union-find decoder (Delfosse & Nickerson, "Almost-linear time decoding
//! algorithm for topological codes").
//!
//! Union-find is the fastest published *software* decoder the paper compares
//! against (Section VIII, "Comparison to existing approximation techniques"):
//! it trades a small amount of threshold (≈0.4%) for a large speed-up over
//! MWPM, but its decoding time still exceeds the syndrome-generation time, so
//! it remains exposed to the backlog problem.  We implement the standard
//! two-phase algorithm — cluster growth with half-edges and weighted union,
//! followed by peeling of the grown clusters — specialized to the
//! code-capacity setting used throughout the paper's accuracy evaluation.
//!
//! # Amortized hot path
//!
//! The decoding graph of a sector depends only on the lattice, never on the
//! syndrome, so the decoder caches one `SectorGraph` per sector — a flat
//! ancilla→vertex map and a CSR adjacency over the full edge set — together
//! with one `UfScratch` arena per graph, built full-size by
//! [`Decoder::prepare`] (or the first decode on a lattice).
//!
//! **Cost model.**  A sector decode costs one masked pass over the
//! syndrome's words to collect the defects
//! ([`Lattice::for_each_defect`]), plus work proportional to the vertices
//! and edges its clusters reach: growth walks only the active clusters'
//! vertices (an intrusive circular list per cluster, spliced in O(1) on
//! union) and peeling starts only from vertices a fully-grown edge or a
//! defect touched.  A sector without defects returns after the scan and
//! writes nothing.  Nothing is proportional to growth rounds × lattice size.
//!
//! **Clean-scratch invariant.**  Between decodes every `UfScratch` equals
//! `UfScratch::new` of its graph, field for field.  A decode sets a bit in
//! `reached` for every vertex it dirties and pushes every edge it grows onto
//! `touched_edges`, and restores exactly those before it returns; there is
//! no per-decode refill of whole-graph buffers.
//!
//! Steady-state [`Decoder::decode_into`] calls perform no heap allocation
//! (every list is bounded by the vertex or edge count and reserved up
//! front); `tests/allocation_free.rs` guards that with an allocation counter.

use crate::traits::{sector_correction_pauli, Correction, Decoder};
use nisqplus_qec::lattice::{Lattice, QubitKind, Sector};
use nisqplus_qec::pauli::{Pauli, PauliString};
use nisqplus_qec::syndrome::Syndrome;

/// An edge of the sector's decoding graph.
#[derive(Debug, Clone, Copy)]
struct GraphEdge {
    u: u32,
    v: u32,
    /// The data qubit the edge crosses; flipping it toggles both endpoints.
    data_qubit: u32,
}

/// The decoding graph of one sector: same-sector ancillas plus two virtual
/// boundary vertices.  Built once per lattice and reused on every decode.
#[derive(Debug, Clone)]
struct SectorGraph {
    /// Number of real (ancilla) vertices.
    num_ancilla_vertices: usize,
    /// Total vertices including the two boundary vertices.
    num_vertices: usize,
    /// Flat map ancilla index -> local ancilla-vertex index, ascending over
    /// this sector's ancillas (the defect scan visits no others; their
    /// entries are `u32::MAX`).
    vertex_of_ancilla: Vec<u32>,
    edges: Vec<GraphEdge>,
    /// CSR adjacency over the full edge set: vertex `v`'s incident
    /// `(neighbor, edge index)` entries are
    /// `adj_entries[adj_offsets[v]..adj_offsets[v + 1]]`, in edge-index order.
    adj_offsets: Vec<u32>,
    adj_entries: Vec<(u32, u32)>,
}

impl SectorGraph {
    fn build(lattice: &Lattice, sector: Sector) -> Self {
        let ancillas: Vec<u32> = lattice
            .ancillas_in_sector(sector)
            .map(|a| a as u32)
            .collect();
        let mut vertex_of_ancilla = vec![u32::MAX; lattice.num_ancillas()];
        for (v, &a) in ancillas.iter().enumerate() {
            vertex_of_ancilla[a as usize] = v as u32;
        }
        let num_ancilla_vertices = ancillas.len();
        let boundary_a = num_ancilla_vertices as u32;
        let boundary_b = num_ancilla_vertices as u32 + 1;
        let size = lattice.size();
        let mut edges = Vec::new();

        for &a in &ancillas {
            let c = lattice.ancilla_coord(a as usize);
            let u = vertex_of_ancilla[a as usize];
            // Neighbour below (same column, +2 rows).
            if c.row + 2 < size {
                let below = nisqplus_qec::lattice::Coord::new(c.row + 2, c.col);
                let info = lattice.cell(below);
                if info.kind == sector.ancilla_kind() {
                    let data = lattice.cell(nisqplus_qec::lattice::Coord::new(c.row + 1, c.col));
                    debug_assert_eq!(data.kind, QubitKind::Data);
                    edges.push(GraphEdge {
                        u,
                        v: vertex_of_ancilla[info.index],
                        data_qubit: data.index as u32,
                    });
                }
            }
            // Neighbour to the right (same row, +2 columns).
            if c.col + 2 < size {
                let right = nisqplus_qec::lattice::Coord::new(c.row, c.col + 2);
                let info = lattice.cell(right);
                if info.kind == sector.ancilla_kind() {
                    let data = lattice.cell(nisqplus_qec::lattice::Coord::new(c.row, c.col + 1));
                    debug_assert_eq!(data.kind, QubitKind::Data);
                    edges.push(GraphEdge {
                        u,
                        v: vertex_of_ancilla[info.index],
                        data_qubit: data.index as u32,
                    });
                }
            }
            // Boundary edges.
            match sector {
                Sector::X => {
                    if c.row == 1 {
                        let data = lattice.cell(nisqplus_qec::lattice::Coord::new(0, c.col));
                        edges.push(GraphEdge {
                            u,
                            v: boundary_a,
                            data_qubit: data.index as u32,
                        });
                    }
                    if c.row == size - 2 {
                        let data = lattice.cell(nisqplus_qec::lattice::Coord::new(size - 1, c.col));
                        edges.push(GraphEdge {
                            u,
                            v: boundary_b,
                            data_qubit: data.index as u32,
                        });
                    }
                }
                Sector::Z => {
                    if c.col == 1 {
                        let data = lattice.cell(nisqplus_qec::lattice::Coord::new(c.row, 0));
                        edges.push(GraphEdge {
                            u,
                            v: boundary_a,
                            data_qubit: data.index as u32,
                        });
                    }
                    if c.col == size - 2 {
                        let data = lattice.cell(nisqplus_qec::lattice::Coord::new(c.row, size - 1));
                        edges.push(GraphEdge {
                            u,
                            v: boundary_b,
                            data_qubit: data.index as u32,
                        });
                    }
                }
            }
        }

        let num_vertices = num_ancilla_vertices + 2;

        // CSR adjacency: count degrees, prefix-sum, fill in edge order so
        // each vertex's incident entries are sorted by edge index.
        let mut degree = vec![0u32; num_vertices];
        for edge in &edges {
            degree[edge.u as usize] += 1;
            degree[edge.v as usize] += 1;
        }
        let mut adj_offsets = vec![0u32; num_vertices + 1];
        for v in 0..num_vertices {
            adj_offsets[v + 1] = adj_offsets[v] + degree[v];
        }
        let mut cursor = adj_offsets[..num_vertices].to_vec();
        let mut adj_entries = vec![(0u32, 0u32); 2 * edges.len()];
        for (i, edge) in edges.iter().enumerate() {
            adj_entries[cursor[edge.u as usize] as usize] = (edge.v, i as u32);
            cursor[edge.u as usize] += 1;
            adj_entries[cursor[edge.v as usize] as usize] = (edge.u, i as u32);
            cursor[edge.v as usize] += 1;
        }

        SectorGraph {
            num_ancilla_vertices,
            num_vertices,
            vertex_of_ancilla,
            edges,
            adj_offsets,
            adj_entries,
        }
    }

    fn is_boundary_vertex(&self, v: u32) -> bool {
        v as usize >= self.num_ancilla_vertices
    }

    fn incident(&self, v: u32) -> &[(u32, u32)] {
        let lo = self.adj_offsets[v as usize] as usize;
        let hi = self.adj_offsets[v as usize + 1] as usize;
        &self.adj_entries[lo..hi]
    }
}

/// Per-vertex decode state: union-find forest, cluster membership list and
/// peeling bookkeeping in one record, so touching a vertex touches one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VertexState {
    /// Union-find parent; a root points at itself.
    parent: u32,
    /// Next vertex of the same cluster in a circular list (a singleton points
    /// at itself); two lists merge by swapping their roots' `next`.
    next: u32,
    /// BFS spanning-tree parent and the edge leading to it (peeling).
    tree_parent: u32,
    tree_edge: u32,
    /// Growth round in which this root's cluster was last walked, so a
    /// cluster holding several defects grows once per round.
    walked_round: u32,
    rank: u8,
    /// Defect parity of the cluster (meaningful on roots).
    parity: bool,
    /// Whether the cluster contains a boundary vertex (meaningful on roots).
    boundary: bool,
    charge: bool,
    visited: bool,
}

impl VertexState {
    fn fresh(v: u32, boundary: bool) -> Self {
        VertexState {
            parent: v,
            next: v,
            tree_parent: 0,
            tree_edge: 0,
            walked_round: 0,
            rank: 0,
            parity: false,
            boundary,
            charge: false,
            visited: false,
        }
    }

    /// A cluster is *active* while it holds odd defect parity and does not
    /// touch a boundary vertex.
    fn is_active_root(&self) -> bool {
        self.parity && !self.boundary
    }
}

/// Per-edge decode state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EdgeState {
    /// Half-edges grown so far: 0, 1 or 2 (fully grown).
    support: u8,
    /// Growth round of the last half-edge, so an edge seen from both
    /// endpoints (or from two active clusters) grows once per round.
    grown_round: u32,
}

/// The vertices whose bits are set in word `w` of a vertex bitmap, ascending.
fn bitmap_word_vertices(w: usize, mut bits: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let v = (w as u32) << 6 | bits.trailing_zeros();
            bits &= bits - 1;
            v
        })
    })
}

/// The scratch arena of one sector graph.  Built full-size once and kept
/// clean between decodes (see the module docs for the invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
struct UfScratch {
    vertices: Vec<VertexState>,
    edges: Vec<EdgeState>,
    /// Bitmap over vertices: those holding a defect or joined by a
    /// fully-grown edge — every vertex whose `VertexState` is dirty.
    reached: Vec<u64>,
    /// Edges with non-zero support, in first-growth order.
    touched_edges: Vec<u32>,
    /// Defect vertices, ascending.
    defects: Vec<u32>,
    newly_full: Vec<u32>,
    bfs: Vec<u32>,
}

impl UfScratch {
    fn new(graph: &SectorGraph) -> Self {
        let nv = graph.num_vertices;
        let ne = graph.edges.len();
        UfScratch {
            vertices: (0..nv as u32)
                .map(|v| VertexState::fresh(v, graph.is_boundary_vertex(v)))
                .collect(),
            edges: vec![EdgeState::default(); ne],
            reached: vec![0; nv.div_ceil(64)],
            touched_edges: Vec::with_capacity(ne),
            defects: Vec::with_capacity(graph.num_ancilla_vertices),
            newly_full: Vec::with_capacity(ne),
            bfs: Vec::with_capacity(nv),
        }
    }

    fn mark_reached(&mut self, v: u32) {
        self.reached[(v >> 6) as usize] |= 1 << (v & 63);
    }

    fn is_reached(&self, v: u32) -> bool {
        self.reached[(v >> 6) as usize] >> (v & 63) & 1 == 1
    }

    fn find(&mut self, v: u32) -> u32 {
        let mut root = v;
        while self.vertices[root as usize].parent != root {
            root = self.vertices[root as usize].parent;
        }
        // Full path compression, matching the seed's recursive find.
        let mut cur = v;
        while self.vertices[cur as usize].parent != root {
            let next = self.vertices[cur as usize].parent;
            self.vertices[cur as usize].parent = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        self.mark_reached(a);
        self.mark_reached(b);
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        let (big, small) = if self.vertices[ra as usize].rank >= self.vertices[rb as usize].rank {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let absorbed = self.vertices[small as usize];
        let root = &mut self.vertices[big as usize];
        if root.rank == absorbed.rank {
            root.rank += 1;
        }
        root.parity ^= absorbed.parity;
        root.boundary |= absorbed.boundary;
        // Splice the two circular membership lists into one.
        let big_next = std::mem::replace(&mut root.next, absorbed.next);
        let small_state = &mut self.vertices[small as usize];
        small_state.next = big_next;
        small_state.parent = big;
    }

    /// Grows every not-yet-full edge incident to the cluster rooted at
    /// `root` by one half-edge, unless it already grew in `round`.
    fn grow_cluster(&mut self, graph: &SectorGraph, root: u32, round: u32) {
        let mut v = root;
        loop {
            for &(_, edge_idx) in graph.incident(v) {
                let edge = &mut self.edges[edge_idx as usize];
                if edge.support >= 2 || edge.grown_round == round {
                    continue;
                }
                if edge.support == 0 {
                    self.touched_edges.push(edge_idx);
                }
                edge.grown_round = round;
                edge.support += 1;
                if edge.support == 2 {
                    self.newly_full.push(edge_idx);
                }
            }
            v = self.vertices[v as usize].next;
            if v == root {
                break;
            }
        }
    }

    /// Builds the BFS spanning tree of fully-grown edges from `start` into
    /// `self.bfs`, neighbours in edge-index order.
    fn span_from(&mut self, graph: &SectorGraph, start: u32) {
        self.vertices[start as usize].visited = true;
        self.bfs.clear();
        self.bfs.push(start);
        let mut head = 0;
        while head < self.bfs.len() {
            let v = self.bfs[head];
            head += 1;
            // Every fully-grown edge has been unioned, so both endpoints
            // share a cluster and no `find` is needed here.
            for &(w, edge_idx) in graph.incident(v) {
                if self.edges[edge_idx as usize].support != 2 {
                    continue;
                }
                let neighbour = &mut self.vertices[w as usize];
                if !neighbour.visited {
                    neighbour.visited = true;
                    neighbour.tree_parent = v;
                    neighbour.tree_edge = edge_idx;
                    self.bfs.push(w);
                }
            }
        }
    }

    /// Peels the spanning tree of fully-grown edges rooted at `start` (unless
    /// an earlier tree already covered it), applying `pauli` to `out` on the
    /// data qubit of every tree edge whose child carries a defect.
    fn peel_from(&mut self, graph: &SectorGraph, start: u32, pauli: Pauli, out: &mut PauliString) {
        if self.vertices[start as usize].visited {
            return;
        }
        self.span_from(graph, start);
        // Peel in reverse BFS order: children before parents.  Boundary
        // vertices absorb any charge pushed into them instead of relaying
        // it (pairing the chain to the boundary).
        for bi in (1..self.bfs.len()).rev() {
            let v = self.bfs[bi];
            let state = &mut self.vertices[v as usize];
            if graph.is_boundary_vertex(v) {
                state.charge = false;
                continue;
            }
            if state.charge {
                state.charge = false;
                let (parent, edge_idx) = (state.tree_parent, state.tree_edge);
                out.apply(graph.edges[edge_idx as usize].data_qubit as usize, pauli);
                self.vertices[parent as usize].charge ^= true;
            }
        }
        // Any residual charge on the root must sit on a boundary vertex
        // (odd clusters always grow until they absorb a boundary).
        let root = &mut self.vertices[start as usize];
        if root.charge {
            debug_assert!(
                graph.is_boundary_vertex(start),
                "non-boundary root left with residual charge"
            );
            root.charge = false;
        }
    }

    /// Restores the clean-scratch invariant: resets exactly the vertices and
    /// edges this decode dirtied.
    fn restore(&mut self, graph: &SectorGraph) {
        for w in 0..self.reached.len() {
            for v in bitmap_word_vertices(w, std::mem::take(&mut self.reached[w])) {
                self.vertices[v as usize] = VertexState::fresh(v, graph.is_boundary_vertex(v));
            }
        }
        for &edge_idx in &self.touched_edges {
            self.edges[edge_idx as usize] = EdgeState::default();
        }
        self.touched_edges.clear();
        self.defects.clear();
        self.newly_full.clear();
        self.bfs.clear();
    }
}

/// The lattice-keyed prepared state: one decoding graph and its scratch arena
/// per sector, in `[X, Z]` order.
#[derive(Debug, Clone)]
struct PreparedUnionFind {
    distance: usize,
    sectors: [(SectorGraph, UfScratch); 2],
}

/// The union-find decoder.
#[derive(Debug, Clone, Default)]
pub struct UnionFindDecoder {
    prepared: Option<PreparedUnionFind>,
}

impl UnionFindDecoder {
    /// Creates a union-find decoder.
    #[must_use]
    pub fn new() -> Self {
        UnionFindDecoder { prepared: None }
    }

    /// Returns `true` if prepared state for `lattice` is cached.
    #[must_use]
    pub fn is_prepared_for(&self, lattice: &Lattice) -> bool {
        self.prepared
            .as_ref()
            .is_some_and(|p| p.distance == lattice.distance())
    }

    fn ensure_prepared(&mut self, lattice: &Lattice) -> &mut PreparedUnionFind {
        if !self.is_prepared_for(lattice) {
            let sectors = Sector::ALL.map(|sector| {
                let graph = SectorGraph::build(lattice, sector);
                let scratch = UfScratch::new(&graph);
                (graph, scratch)
            });
            self.prepared = Some(PreparedUnionFind {
                distance: lattice.distance(),
                sectors,
            });
        }
        self.prepared.as_mut().expect("just prepared")
    }
}

/// Decodes one sector, applying the correction's data-qubit flips to `out`.
///
/// The result is the seed algorithm's, byte for byte (pinned by the
/// seed-reference property test): the correction depends only on the final
/// edge supports and on the peel's traversal order, never on which vertex
/// roots a cluster or on the order unions happen in.  So growth walks only
/// the active clusters and peeling starts only from reached vertices — an
/// unreached vertex has no fully-grown edge and peels nothing — in the seed's
/// order: boundary vertices first, then ancilla vertices ascending.
fn decode_sector_into(
    graph: &SectorGraph,
    scratch: &mut UfScratch,
    max_rounds: u32,
    lattice: &Lattice,
    syndrome: &Syndrome,
    sector: Sector,
    out: &mut PauliString,
) {
    // Hot ancillas of the other sector are masked out of the scan, so a
    // combined X/Z syndrome works directly.
    lattice.for_each_defect(syndrome, sector, |a| {
        let v = graph.vertex_of_ancilla[a];
        scratch.defects.push(v);
        scratch.mark_reached(v);
        let state = &mut scratch.vertices[v as usize];
        state.parity = true;
        state.charge = true;
    });
    if scratch.defects.is_empty() {
        return;
    }
    let pauli = sector_correction_pauli(sector);

    // ---- Growth phase ------------------------------------------------
    // Grow every active cluster's incident edges by one half-edge per
    // round (one half-edge even when both endpoints are active), merging
    // clusters whose connecting edge becomes fully grown.  Every active
    // cluster holds a defect, so the defects' roots enumerate them.
    for round in 1..=max_rounds {
        scratch.newly_full.clear();
        let mut any_active = false;
        for k in 0..scratch.defects.len() {
            let root = scratch.find(scratch.defects[k]);
            let state = &mut scratch.vertices[root as usize];
            if !state.is_active_root() || state.walked_round == round {
                continue;
            }
            state.walked_round = round;
            any_active = true;
            scratch.grow_cluster(graph, root, round);
        }
        if !any_active {
            break;
        }
        for k in 0..scratch.newly_full.len() {
            let edge = graph.edges[scratch.newly_full[k] as usize];
            scratch.union(edge.u, edge.v);
        }
    }

    // ---- Peeling phase -----------------------------------------------
    // Within each cluster, build a spanning forest of the fully-grown
    // edges (rooted at a boundary vertex when one is present) and peel
    // leaves, emitting an edge whenever the leaf carries a defect.
    let boundary_a = graph.num_ancilla_vertices as u32;
    for start in [boundary_a, boundary_a + 1] {
        if scratch.is_reached(start) {
            scratch.peel_from(graph, start, pauli, out);
        }
    }
    for w in 0..scratch.reached.len() {
        for start in bitmap_word_vertices(w, scratch.reached[w]) {
            scratch.peel_from(graph, start, pauli, out);
        }
    }

    scratch.restore(graph);
}

impl Decoder for UnionFindDecoder {
    fn name(&self) -> &str {
        "union-find"
    }

    fn prepare(&mut self, lattice: &Lattice) {
        let _ = self.ensure_prepared(lattice);
    }

    fn decode(&mut self, lattice: &Lattice, syndrome: &Syndrome, sector: Sector) -> Correction {
        let mut flips = PauliString::identity(lattice.num_data());
        self.decode_into(lattice, syndrome, sector, &mut flips);
        Correction::from_pauli_string(flips)
    }

    fn decode_into(
        &mut self,
        lattice: &Lattice,
        syndrome: &Syndrome,
        sector: Sector,
        out: &mut PauliString,
    ) {
        out.reset_identity(lattice.num_data());
        let max_rounds = (4 * lattice.size() + 8) as u32;
        let (graph, scratch) = &mut self.ensure_prepared(lattice).sectors[sector.index()];
        decode_sector_into(graph, scratch, max_rounds, lattice, syndrome, sector, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nisqplus_qec::error_model::{ErrorModel, PureDephasing};
    use nisqplus_qec::lattice::Coord;
    use nisqplus_qec::logical::{classify_residual, LogicalState};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn graph_has_expected_vertex_and_edge_counts() {
        let lat = Lattice::new(5).unwrap();
        let graph = SectorGraph::build(&lat, Sector::X);
        // d(d-1) ancilla vertices plus 2 boundary vertices.
        assert_eq!(graph.num_ancilla_vertices, 5 * 4);
        assert_eq!(graph.num_vertices, 22);
        // Internal edges: vertical (d-2)*d + horizontal (d-1)*(d-1); boundary edges: 2*d.
        let d = 5;
        let expected = (d - 2) * d + (d - 1) * (d - 1) + 2 * d;
        assert_eq!(graph.edges.len(), expected);
        // The CSR adjacency covers every edge from both endpoints.
        assert_eq!(graph.adj_entries.len(), 2 * expected);
        // The vertex map numbers exactly this sector's ancillas, ascending,
        // and the two boundary vertices follow them.
        let mapped: Vec<usize> = (0..lat.num_ancillas())
            .filter(|&a| graph.vertex_of_ancilla[a] != u32::MAX)
            .collect();
        assert_eq!(
            mapped,
            lat.ancillas_in_sector(Sector::X).collect::<Vec<_>>()
        );
        let vertices: Vec<u32> = mapped.iter().map(|&a| graph.vertex_of_ancilla[a]).collect();
        assert_eq!(vertices, (0..20).collect::<Vec<u32>>());
        assert!(!graph.is_boundary_vertex(19));
        assert!(graph.is_boundary_vertex(20) && graph.is_boundary_vertex(21));
        // The scratch arena is built full-size: one state per vertex and
        // edge, one bitmap word per 64 vertices.
        let scratch = UfScratch::new(&graph);
        assert_eq!(scratch.vertices.len(), graph.num_vertices);
        assert_eq!(scratch.edges.len(), expected);
        assert_eq!(scratch.reached.len(), 1);
    }

    #[test]
    fn csr_incidence_matches_edge_list() {
        let lat = Lattice::new(7).unwrap();
        for sector in Sector::ALL {
            let graph = SectorGraph::build(&lat, sector);
            for (i, edge) in graph.edges.iter().enumerate() {
                assert!(graph.incident(edge.u).contains(&(edge.v, i as u32)));
                assert!(graph.incident(edge.v).contains(&(edge.u, i as u32)));
            }
        }
    }

    #[test]
    fn empty_syndrome_gives_identity() {
        let lat = Lattice::new(5).unwrap();
        let mut decoder = UnionFindDecoder::new();
        let c = decoder.decode(&lat, &Syndrome::new(lat.num_ancillas()), Sector::X);
        assert_eq!(c.weight(), 0);
    }

    #[test]
    fn prepare_caches_and_rebuilds_on_lattice_change() {
        let lat5 = Lattice::new(5).unwrap();
        let lat7 = Lattice::new(7).unwrap();
        let mut decoder = UnionFindDecoder::new();
        assert!(!decoder.is_prepared_for(&lat5));
        decoder.prepare(&lat5);
        assert!(decoder.is_prepared_for(&lat5));
        assert!(!decoder.is_prepared_for(&lat7));
        // Decoding on a different lattice transparently re-prepares.
        let c = decoder.decode(&lat7, &Syndrome::new(lat7.num_ancillas()), Sector::X);
        assert_eq!(c.weight(), 0);
        assert!(decoder.is_prepared_for(&lat7));
    }

    #[test]
    fn corrects_every_single_qubit_error() {
        for d in [3, 5, 7] {
            let lat = Lattice::new(d).unwrap();
            let mut decoder = UnionFindDecoder::new();
            for q in 0..lat.num_data() {
                for (pauli, sector) in [(Pauli::Z, Sector::X), (Pauli::X, Sector::Z)] {
                    let error = PauliString::from_sparse(lat.num_data(), &[q], pauli);
                    let syndrome = lat.syndrome_of(&error);
                    let correction = decoder.decode(&lat, &syndrome, sector);
                    assert_eq!(
                        classify_residual(&lat, &error, correction.pauli_string(), sector),
                        LogicalState::Success,
                        "union-find failed on single {pauli} error at qubit {q}, d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn corrects_short_chains() {
        let lat = Lattice::new(7).unwrap();
        let mut decoder = UnionFindDecoder::new();
        let q1 = lat.cell(Coord::new(6, 6)).index;
        let q2 = lat.cell(Coord::new(6, 8)).index;
        let q3 = lat.cell(Coord::new(8, 6)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[q1, q2, q3], Pauli::Z);
        let syndrome = lat.syndrome_of(&error);
        let correction = decoder.decode(&lat, &syndrome, Sector::X);
        assert_eq!(
            classify_residual(&lat, &error, correction.pauli_string(), Sector::X),
            LogicalState::Success
        );
    }

    #[test]
    fn correction_always_clears_syndrome_under_random_errors() {
        // Even when union-find picks a logically wrong chain, its correction
        // must always return the state to the codespace.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let model = PureDephasing::new(0.12).unwrap();
        for d in [3, 5, 7] {
            let lat = Lattice::new(d).unwrap();
            let mut decoder = UnionFindDecoder::new();
            for _ in 0..60 {
                let error = model.sample(&lat, &mut rng);
                let syndrome = lat.syndrome_of(&error);
                let correction = decoder.decode(&lat, &syndrome, Sector::X);
                let state = classify_residual(&lat, &error, correction.pauli_string(), Sector::X);
                assert_ne!(
                    state,
                    LogicalState::InvalidCorrection,
                    "union-find produced a syndrome-violating correction at d={d}"
                );
            }
        }
    }

    /// The clean-scratch invariant: after every decode, each sector's scratch
    /// equals a freshly built one, field for field.
    fn assert_scratch_clean(decoder: &UnionFindDecoder, context: &str) {
        let prepared = decoder.prepared.as_ref().expect("prepared");
        for (graph, scratch) in &prepared.sectors {
            assert_eq!(
                scratch,
                &UfScratch::new(graph),
                "dirty scratch after {context}"
            );
        }
    }

    #[test]
    fn scratch_is_clean_after_every_decode() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let heavy = PureDephasing::new(0.2).unwrap();
        let mut buf = PauliString::identity(0);
        for d in [3, 5, 9] {
            let lat = Lattice::new(d).unwrap();
            let mut decoder = UnionFindDecoder::new();
            decoder.prepare(&lat);
            assert_scratch_clean(&decoder, "prepare");
            // Empty sector.
            let empty = Syndrome::new(lat.num_ancillas());
            for sector in Sector::ALL {
                decoder.decode_into(&lat, &empty, sector, &mut buf);
                assert_scratch_clean(&decoder, "an empty sector");
            }
            // Every single defect (a lone hot ancilla pairs to a boundary).
            for a in 0..lat.num_ancillas() {
                let syndrome = Syndrome::from_hot(lat.num_ancillas(), &[a]);
                for sector in Sector::ALL {
                    decoder.decode_into(&lat, &syndrome, sector, &mut buf);
                    assert_scratch_clean(&decoder, "a single defect");
                }
            }
            // High-weight syndromes: large merged clusters, both boundaries.
            for _ in 0..50 {
                let syndrome = lat.syndrome_of(&heavy.sample(&lat, &mut rng));
                decoder.decode_into(&lat, &syndrome, Sector::X, &mut buf);
                assert_scratch_clean(&decoder, "a p = 0.2 syndrome");
            }
        }
    }

    /// No (lattice, syndrome) pair exhausts `max_rounds`: every odd cluster
    /// meets a boundary first.  Forcing the exit with a smaller bound leaves
    /// active clusters and half-grown edges behind, which the restore must
    /// still undo; the peel's residual-charge `debug_assert` fires on such an
    /// exit, so this runs in release test builds only.
    #[test]
    #[cfg(not(debug_assertions))]
    fn scratch_is_clean_after_an_exit_through_the_round_guard() {
        let lat = Lattice::new(5).unwrap();
        let graph = SectorGraph::build(&lat, Sector::X);
        let mut scratch = UfScratch::new(&graph);
        let mut out = PauliString::identity(lat.num_data());
        let centre = lat.ancillas_in_sector(Sector::X).nth(10).unwrap();
        let syndrome = Syndrome::from_hot(lat.num_ancillas(), &[centre]);
        for max_rounds in 1..4 {
            decode_sector_into(
                &graph,
                &mut scratch,
                max_rounds,
                &lat,
                &syndrome,
                Sector::X,
                &mut out,
            );
            assert_eq!(scratch, UfScratch::new(&graph), "max_rounds = {max_rounds}");
        }
    }

    #[test]
    fn decode_into_matches_decode_and_overwrites_stale_contents() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let model = PureDephasing::new(0.1).unwrap();
        let lat = Lattice::new(7).unwrap();
        let mut decoder = UnionFindDecoder::new();
        decoder.prepare(&lat);
        // A deliberately stale, wrongly-sized buffer: decode_into must reset it.
        let mut buf = PauliString::from_sparse(3, &[0, 1, 2], Pauli::Y);
        for _ in 0..40 {
            let error = model.sample(&lat, &mut rng);
            let syndrome = lat.syndrome_of(&error);
            let via_decode = decoder.decode(&lat, &syndrome, Sector::X);
            decoder.decode_into(&lat, &syndrome, Sector::X, &mut buf);
            assert_eq!(&buf, via_decode.pauli_string());
        }
    }

    #[test]
    fn boundary_errors_are_matched_to_boundary() {
        let lat = Lattice::new(5).unwrap();
        let mut decoder = UnionFindDecoder::new();
        // A single error adjacent to the top boundary produces one defect.
        let q = lat.cell(Coord::new(0, 2)).index;
        let error = PauliString::from_sparse(lat.num_data(), &[q], Pauli::Z);
        let syndrome = lat.syndrome_of(&error);
        assert_eq!(lat.defects(&syndrome, Sector::X).len(), 1);
        let correction = decoder.decode(&lat, &syndrome, Sector::X);
        assert_eq!(
            classify_residual(&lat, &error, correction.pauli_string(), Sector::X),
            LogicalState::Success
        );
    }

    #[test]
    fn decoder_name() {
        assert_eq!(UnionFindDecoder::new().name(), "union-find");
    }
}
