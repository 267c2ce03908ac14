//! Mutable adjacency overlay on an immutable [`CsrGraph`] — the storage layer
//! of the `tdb-dynamic` incremental-maintenance subsystem.
//!
//! A [`DeltaGraph`] is a CSR *base* plus two per-vertex overlays:
//!
//! * **inserted** edges that are not in the base, kept as sorted lists, and
//! * **tombstoned** base edges that have been removed, also kept sorted.
//!
//! Neighbor iteration merges the base slice (skipping tombstones) with the
//! inserted list in one sorted, duplicate-free pass, so the overlay satisfies
//! the [`GraphView`] contract and every view-generic search primitive works on
//! it unchanged. Lookups and updates are `O(log d)` per endpoint.
//!
//! The overlay is stored copy-on-write in chunks of 64 vertices. Each
//! direction keeps a directory with one slot per chunk; a slot is either
//! empty (no vertex of the chunk has overlay entries) or an `Arc` of the
//! chunk's 64 `{inserted, tombstoned}` list pairs. Cloning a `DeltaGraph`
//! therefore copies one pointer per chunk and shares every list, and a later
//! write copies only the chunk it touches, and only while a clone still
//! shares it — path copying, as in Driscoll, Sarnak, Sleator and Tarjan's
//! persistent data structures. The serving layer clones the graph once per
//! published snapshot, so a publish costs `O(n / 64)` pointer copies.
//!
//! A list of up to three entries — most overlay lists — is stored inside its
//! chunk entry rather than in an allocation of its own. The chunk directory
//! adds one dependent load to every neighbor scan; reading short lists in
//! place saves the load of a separate list buffer, which more than pays it
//! back.
//!
//! The overlay degrades as it grows (each neighbor scan walks base + delta);
//! [`DeltaGraph::compact`] rebuilds a clean CSR from the merged edge set and
//! clears the overlays. Callers — `tdb-dynamic` in particular — compact once
//! the [`DeltaGraph::delta_len`] exceeds a workload-dependent threshold,
//! mirroring the "static index + cheap customization layer" design of routing
//! engines.

use std::sync::Arc;

use crate::csr::CsrGraph;
use crate::types::{Edge, VertexId};
use crate::view::GraphView;
use crate::Graph;

/// Vertices per overlay chunk: the unit a clone shares and a write copies.
const CHUNK: usize = 64;

/// Entries a [`SmallList`] holds inline: three ids and a length fit beside
/// the layout niche of the `Vec` a longer list holds, so the list takes no
/// more room than that `Vec`.
const INLINE: usize = 3;

/// A sorted list of vertex ids, stored inline up to [`INLINE`] entries and on
/// the heap beyond. A list that spilled to the heap stays there and keeps its
/// capacity, as a `Vec` does.
#[derive(Debug, Clone)]
enum SmallList {
    Inline(u8, [VertexId; INLINE]),
    Heap(Vec<VertexId>),
}

impl std::ops::Deref for SmallList {
    type Target = [VertexId];

    #[inline]
    fn deref(&self) -> &[VertexId] {
        match self {
            SmallList::Inline(len, items) => &items[..*len as usize],
            SmallList::Heap(items) => items,
        }
    }
}

impl SmallList {
    const EMPTY: SmallList = SmallList::Inline(0, [0; INLINE]);

    /// Insert `v` at position `idx`, shifting the entries after it.
    fn insert(&mut self, idx: usize, v: VertexId) {
        match self {
            SmallList::Inline(len, items) if (*len as usize) < INLINE => {
                items.copy_within(idx..*len as usize, idx + 1);
                items[idx] = v;
                *len += 1;
            }
            SmallList::Inline(_, items) => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(items);
                spilled.insert(idx, v);
                *self = SmallList::Heap(spilled);
            }
            SmallList::Heap(items) => items.insert(idx, v),
        }
    }

    /// Remove the entry at position `idx`, shifting the entries after it.
    fn remove(&mut self, idx: usize) {
        match self {
            SmallList::Inline(len, items) => {
                items.copy_within(idx + 1..*len as usize, idx);
                *len -= 1;
            }
            SmallList::Heap(items) => {
                items.remove(idx);
            }
        }
    }

    fn clear(&mut self) {
        match self {
            SmallList::Inline(len, _) => *len = 0,
            SmallList::Heap(items) => items.clear(),
        }
    }
}

/// The overlay of one vertex in one direction: neighbors inserted beyond the
/// base and tombstoned base neighbors.
#[derive(Debug, Clone)]
struct Lists {
    ins: SmallList,
    del: SmallList,
}

/// What an empty directory slot reads as, and what a new chunk holds.
static EMPTY: Lists = Lists {
    ins: SmallList::EMPTY,
    del: SmallList::EMPTY,
};

/// One direction of the overlay: a directory of copy-on-write chunks, one
/// slot per [`CHUNK`] vertices, `None` until a vertex of the slot is written.
#[derive(Debug, Clone, Default)]
struct Overlay {
    slots: Vec<Option<Arc<[Lists; CHUNK]>>>,
}

impl Overlay {
    #[inline]
    fn get(&self, v: VertexId) -> &Lists {
        let v = v as usize;
        match &self.slots[v / CHUNK] {
            Some(chunk) => &chunk[v % CHUNK],
            None => &EMPTY,
        }
    }

    /// The lists of `v` for writing: copies the chunk first if a clone still
    /// shares it.
    fn get_mut(&mut self, v: VertexId) -> &mut Lists {
        let v = v as usize;
        let chunk = self.slots[v / CHUNK]
            .get_or_insert_with(|| Arc::new(std::array::from_fn(|_| EMPTY.clone())));
        &mut Arc::make_mut(chunk)[v % CHUNK]
    }

    /// Grow the directory to cover `n` vertices.
    fn grow(&mut self, n: usize) {
        let slots = n.div_ceil(CHUNK);
        if slots > self.slots.len() {
            self.slots.resize(slots, None);
        }
    }

    /// Empty every list: a chunk owned alone is cleared in place, keeping the
    /// lists' capacity; a chunk a clone still shares is dropped.
    fn clear(&mut self) {
        for slot in &mut self.slots {
            match slot.as_mut().and_then(Arc::get_mut) {
                Some(chunk) => {
                    for lists in chunk.iter_mut() {
                        lists.ins.clear();
                        lists.del.clear();
                    }
                }
                None => *slot = None,
            }
        }
    }
}

/// A directed graph stored as an immutable CSR base plus a mutable edge delta.
///
/// ```
/// use tdb_graph::{builder::graph_from_edges, DeltaGraph, GraphView};
///
/// let base = graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
/// let mut g = DeltaGraph::new(base);
/// assert!(g.insert_edge(0, 2));
/// assert!(g.remove_edge(1, 2));
/// assert_eq!(g.out_iter(0).collect::<Vec<_>>(), vec![1, 2]);
/// assert_eq!(g.out_iter(1).count(), 0);
/// assert_eq!(g.edge_count(), 3);
/// g.compact();
/// assert_eq!(g.delta_len(), 0);
/// assert!(g.contains_edge(0, 2));
/// ```
///
/// Cloning is cheap: a clone shares the CSR base and every overlay chunk by
/// reference count, so it costs `O(n / 64)` pointer copies, and each side
/// copies a chunk only when it first writes to one the other still holds.
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    /// The immutable CSR base, shared rather than owned. The base is never
    /// mutated in place — compaction installs a freshly built CSR.
    base: Arc<CsrGraph>,
    /// Out-adjacency overlay: inserted and tombstoned out-neighbors.
    out: Overlay,
    /// In-adjacency overlay, the mirror of `out`.
    inc: Overlay,
    /// Valid vertex ids are `0..vertex_count`; may exceed the base's count.
    vertex_count: usize,
    /// Live overlay entry counts (inserted edges / tombstones).
    inserted: usize,
    deleted: usize,
}

impl DeltaGraph {
    /// Wrap a CSR base with an empty delta.
    pub fn new(base: CsrGraph) -> Self {
        Self::from_shared(Arc::new(base))
    }

    /// Wrap an already reference-counted CSR base with an empty delta.
    pub fn from_shared(base: Arc<CsrGraph>) -> Self {
        let mut g = DeltaGraph {
            vertex_count: 0,
            base,
            out: Overlay::default(),
            inc: Overlay::default(),
            inserted: 0,
            deleted: 0,
        };
        g.grow(g.base.num_vertices());
        g
    }

    /// The immutable CSR base (without the delta applied).
    pub fn base(&self) -> &CsrGraph {
        &self.base
    }

    /// A reference-counted handle to the CSR base. Snapshot consumers hold
    /// this across epochs so repeated clones of the same `DeltaGraph` share
    /// one set of base arrays.
    pub fn base_arc(&self) -> Arc<CsrGraph> {
        Arc::clone(&self.base)
    }

    /// Number of live overlay entries: inserted edges plus tombstones.
    ///
    /// This is the quantity compaction thresholds are expressed in — it bounds
    /// the extra work every neighbor scan pays relative to a clean CSR.
    pub fn delta_len(&self) -> usize {
        self.inserted + self.deleted
    }

    /// Number of inserted (non-base) edges currently live.
    pub fn inserted_len(&self) -> usize {
        self.inserted
    }

    /// Number of tombstoned base edges.
    pub fn deleted_len(&self) -> usize {
        self.deleted
    }

    /// Grow the vertex set so that `v` is a valid vertex id.
    ///
    /// New vertices start isolated. The CSR base is untouched; base adjacency
    /// for ids beyond the base vertex count is empty.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        self.grow(v as usize + 1);
    }

    fn grow(&mut self, n: usize) {
        if n > self.vertex_count {
            self.vertex_count = n;
            self.out.grow(n);
            self.inc.grow(n);
        }
    }

    #[inline]
    fn base_out(&self, v: VertexId) -> &[VertexId] {
        if (v as usize) < self.base.num_vertices() {
            self.base.out_neighbors(v)
        } else {
            &[]
        }
    }

    #[inline]
    fn base_in(&self, v: VertexId) -> &[VertexId] {
        if (v as usize) < self.base.num_vertices() {
            self.base.in_neighbors(v)
        } else {
            &[]
        }
    }

    /// Whether the base (ignoring tombstones) contains `(u, v)`.
    #[inline]
    fn base_has(&self, u: VertexId, v: VertexId) -> bool {
        self.base_out(u).binary_search(&v).is_ok()
    }

    /// Insert the directed edge `(u, v)`.
    ///
    /// Grows the vertex set as needed. Self-loops are rejected (they never lie
    /// on a simple cycle of length ≥ 2, matching [`crate::GraphBuilder`]'s
    /// normalization). Returns `true` when the edge was absent before the call
    /// — including the case of resurrecting a tombstoned base edge.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v {
            return false;
        }
        self.ensure_vertex(u.max(v));
        // Resurrect a tombstoned base edge.
        if let Ok(idx) = self.out.get(u).del.binary_search(&v) {
            self.out.get_mut(u).del.remove(idx);
            let del_in = &mut self.inc.get_mut(v).del;
            let in_idx = del_in
                .binary_search(&u)
                .expect("tombstone lists out of sync");
            del_in.remove(in_idx);
            self.deleted -= 1;
            return true;
        }
        if self.base_has(u, v) {
            return false; // live in the base already
        }
        match self.out.get(u).ins.binary_search(&v) {
            Ok(_) => false, // already inserted
            Err(idx) => {
                self.out.get_mut(u).ins.insert(idx, v);
                let ins_in = &mut self.inc.get_mut(v).ins;
                let in_idx = ins_in
                    .binary_search(&u)
                    .expect_err("insert lists out of sync");
                ins_in.insert(in_idx, u);
                self.inserted += 1;
                true
            }
        }
    }

    /// Remove the directed edge `(u, v)`.
    ///
    /// Returns `true` when the edge was present (either a base edge, which is
    /// tombstoned, or an inserted edge, which is dropped from the overlay).
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.vertex_count || v as usize >= self.vertex_count {
            return false;
        }
        if let Ok(idx) = self.out.get(u).ins.binary_search(&v) {
            self.out.get_mut(u).ins.remove(idx);
            let ins_in = &mut self.inc.get_mut(v).ins;
            let in_idx = ins_in.binary_search(&u).expect("insert lists out of sync");
            ins_in.remove(in_idx);
            self.inserted -= 1;
            return true;
        }
        if self.base_has(u, v) {
            if let Err(idx) = self.out.get(u).del.binary_search(&v) {
                self.out.get_mut(u).del.insert(idx, v);
                let del_in = &mut self.inc.get_mut(v).del;
                let in_idx = del_in
                    .binary_search(&u)
                    .expect_err("tombstone lists out of sync");
                del_in.insert(in_idx, u);
                self.deleted += 1;
                return true;
            }
        }
        false
    }

    /// Materialize the current (base + delta) edge set as a clean [`CsrGraph`].
    pub fn materialize(&self) -> CsrGraph {
        let n = self.vertex_count();
        let mut edges: Vec<Edge> = Vec::with_capacity(self.edge_count());
        for u in 0..n as VertexId {
            for v in self.out_iter(u) {
                edges.push(Edge::new(u, v));
            }
        }
        CsrGraph::from_edges(n, &mut edges)
    }

    /// Rebuild the CSR base from the merged edge set and clear the overlays.
    ///
    /// Costs `O(n + m)`; afterwards neighbor iteration is pure slice traversal
    /// again. A no-op when the delta is empty. Chunks a clone still shares are
    /// released to it rather than cleared.
    pub fn compact(&mut self) {
        if self.delta_len() == 0 && self.base.num_vertices() == self.vertex_count {
            return;
        }
        self.base = Arc::new(self.materialize());
        self.out.clear();
        self.inc.clear();
        self.inserted = 0;
        self.deleted = 0;
    }
}

impl GraphView for DeltaGraph {
    #[inline]
    fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    #[inline]
    fn edge_count(&self) -> usize {
        self.base.num_edges() + self.inserted - self.deleted
    }

    #[inline]
    fn out_iter(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let lists = self.out.get(v);
        MergedNeighbors::new(self.base_out(v), &lists.ins, &lists.del)
    }

    #[inline]
    fn in_iter(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let lists = self.inc.get(v);
        MergedNeighbors::new(self.base_in(v), &lists.ins, &lists.del)
    }

    #[inline]
    fn out_deg(&self, v: VertexId) -> usize {
        let lists = self.out.get(v);
        self.base_out(v).len() + lists.ins.len() - lists.del.len()
    }

    #[inline]
    fn in_deg(&self, v: VertexId) -> usize {
        let lists = self.inc.get(v);
        self.base_in(v).len() + lists.ins.len() - lists.del.len()
    }

    #[inline]
    fn contains_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u as usize >= self.vertex_count {
            return false;
        }
        let lists = self.out.get(u);
        if lists.ins.binary_search(&v).is_ok() {
            return true;
        }
        self.base_has(u, v) && lists.del.binary_search(&v).is_err()
    }
}

/// Sorted merge of a base adjacency slice (minus tombstones) with an inserted
/// overlay list. All three inputs are ascending and duplicate-free; the
/// invariants of [`DeltaGraph`] guarantee the base and overlay are disjoint,
/// but equal heads are deduplicated anyway for robustness.
struct MergedNeighbors<'a> {
    base: &'a [VertexId],
    ins: &'a [VertexId],
    del: &'a [VertexId],
    b: usize,
    i: usize,
    d: usize,
}

impl<'a> MergedNeighbors<'a> {
    fn new(base: &'a [VertexId], ins: &'a [VertexId], del: &'a [VertexId]) -> Self {
        MergedNeighbors {
            base,
            ins,
            del,
            b: 0,
            i: 0,
            d: 0,
        }
    }

    /// Advance `b` past tombstoned base entries; the tombstone cursor moves in
    /// lockstep because both lists are sorted.
    #[inline]
    fn skip_tombstones(&mut self) {
        while self.b < self.base.len() {
            let x = self.base[self.b];
            while self.d < self.del.len() && self.del[self.d] < x {
                self.d += 1;
            }
            if self.d < self.del.len() && self.del[self.d] == x {
                self.b += 1;
                self.d += 1;
            } else {
                break;
            }
        }
    }
}

impl Iterator for MergedNeighbors<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        self.skip_tombstones();
        let b_next = self.base.get(self.b).copied();
        let i_next = self.ins.get(self.i).copied();
        match (b_next, i_next) {
            (None, None) => None,
            (Some(x), None) => {
                self.b += 1;
                Some(x)
            }
            (None, Some(y)) => {
                self.i += 1;
                Some(y)
            }
            (Some(x), Some(y)) => {
                if x <= y {
                    self.b += 1;
                    if x == y {
                        self.i += 1;
                    }
                    Some(x)
                } else {
                    self.i += 1;
                    Some(y)
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let upper = (self.base.len() - self.b) + (self.ins.len() - self.i);
        (upper.saturating_sub(self.del.len() - self.d), Some(upper))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::gen::{erdos_renyi_gnm, Xoshiro256};

    fn collect_out(g: &DeltaGraph, v: VertexId) -> Vec<VertexId> {
        g.out_iter(v).collect()
    }

    #[test]
    fn insert_and_remove_round_trip() {
        let mut g = DeltaGraph::new(graph_from_edges(&[(0, 1), (1, 2), (2, 0)]));
        assert_eq!(g.edge_count(), 3);
        assert!(g.insert_edge(0, 2));
        assert!(!g.insert_edge(0, 2), "duplicate insert must be a no-op");
        assert!(!g.insert_edge(0, 1), "base edge re-insert must be a no-op");
        assert!(!g.insert_edge(1, 1), "self-loop rejected");
        assert_eq!(g.edge_count(), 4);
        assert!(g.remove_edge(0, 2), "inserted edge removable");
        assert!(!g.remove_edge(0, 2));
        assert!(g.remove_edge(0, 1), "base edge tombstoned");
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.edge_count(), 2);
        assert!(!g.contains_edge(0, 1));
        assert!(g.contains_edge(1, 2));
        // Resurrect the tombstoned base edge.
        assert!(g.insert_edge(0, 1));
        assert!(g.contains_edge(0, 1));
        assert_eq!(g.delta_len(), 0, "resurrection cancels the tombstone");
    }

    #[test]
    fn merged_iteration_is_sorted_and_consistent() {
        let mut g = DeltaGraph::new(graph_from_edges(&[(0, 2), (0, 5), (0, 7)]));
        g.insert_edge(0, 1);
        g.insert_edge(0, 6);
        g.insert_edge(0, 9);
        g.remove_edge(0, 5);
        assert_eq!(collect_out(&g, 0), vec![1, 2, 6, 7, 9]);
        assert_eq!(g.out_deg(0), 5);
        // In-adjacency mirrors.
        assert_eq!(g.in_iter(9).collect::<Vec<_>>(), vec![0]);
        assert_eq!(g.in_iter(5).count(), 0);
    }

    #[test]
    fn vertex_growth_beyond_base() {
        let mut g = DeltaGraph::new(graph_from_edges(&[(0, 1)]));
        assert_eq!(g.vertex_count(), 2);
        assert!(g.insert_edge(1, 5));
        assert_eq!(g.vertex_count(), 6);
        assert_eq!(collect_out(&g, 1), vec![5]);
        assert_eq!(collect_out(&g, 5), Vec::<VertexId>::new());
        assert!(g.insert_edge(5, 0));
        assert!(g.contains_edge(5, 0));
        let m = g.materialize();
        assert_eq!(m.num_vertices(), 6);
        assert_eq!(m.num_edges(), 3);
    }

    #[test]
    fn compact_preserves_the_edge_set() {
        let mut g = DeltaGraph::new(graph_from_edges(&[(0, 1), (1, 2), (2, 0), (2, 3)]));
        g.insert_edge(3, 0);
        g.insert_edge(1, 3);
        g.remove_edge(2, 3);
        let before = g.materialize();
        assert!(g.delta_len() > 0);
        g.compact();
        assert_eq!(g.delta_len(), 0);
        let after = g.materialize();
        assert_eq!(before.num_vertices(), after.num_vertices());
        assert_eq!(before.num_edges(), after.num_edges());
        assert!(before.edges().zip(after.edges()).all(|(a, b)| a == b));
        // Still mutable after compaction.
        assert!(g.insert_edge(2, 3));
        assert!(g.contains_edge(2, 3));
    }

    /// Assert that `g` holds exactly the edge set `reference` on `n` vertices:
    /// edge count, `contains_edge` on every pair, both degrees, and
    /// `materialize`.
    fn assert_matches(
        g: &DeltaGraph,
        reference: &std::collections::HashSet<(VertexId, VertexId)>,
        n: VertexId,
        label: &str,
    ) {
        assert_eq!(g.edge_count(), reference.len(), "{label}: edge count");
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    g.contains_edge(u, v),
                    reference.contains(&(u, v)),
                    "{label}: contains_edge({u}, {v})"
                );
            }
            let out = reference.iter().filter(|e| e.0 == u).count();
            let inc = reference.iter().filter(|e| e.1 == u).count();
            assert_eq!(g.out_deg(u), out, "{label}: out_deg({u})");
            assert_eq!(g.in_deg(u), inc, "{label}: in_deg({u})");
        }
        let m = g.materialize();
        assert_eq!(
            m.num_edges(),
            reference.len(),
            "{label}: materialized edges"
        );
        for e in m.edges() {
            assert!(
                reference.contains(&(e.source, e.target)),
                "{label}: phantom {e}"
            );
        }
    }

    #[test]
    fn random_update_sequence_matches_reference_set() {
        // Differential test against a straightforward HashSet of edges. Every
        // 100 steps a clone is kept beside a copy of the reference set; the
        // live graph keeps writing and compacting, and each clone must still
        // hold exactly its own edge set at the end.
        use std::collections::HashSet;
        let mut rng = Xoshiro256::seed_from_u64(77);
        let base = erdos_renyi_gnm(30, 90, 9);
        let mut reference: HashSet<(VertexId, VertexId)> =
            base.edges().map(|e| (e.source, e.target)).collect();
        let mut g = DeltaGraph::new(base);
        let mut clones = Vec::new();
        for step in 0..2_000 {
            let u = rng.next_index(30) as VertexId;
            let v = rng.next_index(30) as VertexId;
            if rng.next_index(3) == 0 {
                assert_eq!(
                    g.remove_edge(u, v),
                    reference.remove(&(u, v)),
                    "step {step}"
                );
            } else {
                let newly = u != v && reference.insert((u, v));
                assert_eq!(g.insert_edge(u, v), newly, "step {step}");
            }
            if step % 500 == 250 {
                g.compact();
            }
            if step % 100 == 0 {
                clones.push((step, g.clone(), reference.clone()));
            }
        }
        assert_matches(&g, &reference, 30, "live graph");
        for (step, clone, expected) in &clones {
            assert_matches(clone, expected, 30, &format!("clone at step {step}"));
        }
    }

    #[test]
    fn small_lists_match_a_vec_across_the_inline_limit() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        for _ in 0..200 {
            let mut list = SmallList::EMPTY;
            let mut reference: Vec<VertexId> = Vec::new();
            for _ in 0..12 {
                let v = rng.next_index(16) as VertexId;
                match reference.binary_search(&v) {
                    Ok(idx) => {
                        reference.remove(idx);
                        list.remove(idx);
                    }
                    Err(idx) => {
                        reference.insert(idx, v);
                        list.insert(idx, v);
                    }
                }
                assert_eq!(&*list, reference.as_slice());
            }
            list.clear();
            assert!(list.is_empty());
        }
    }

    #[test]
    fn a_write_after_a_clone_copies_only_the_touched_chunks() {
        let n = 10 * CHUNK as VertexId;
        let mut g = DeltaGraph::new(erdos_renyi_gnm(n as usize, 4 * n as usize, 3));
        // Give every chunk of both directions overlay entries.
        for u in 0..n {
            g.insert_edge(u, (u * 7 + 1) % n);
            g.remove_edge(u, (u * 7 + 1) % n);
            g.insert_edge(u, (u * 13 + 5) % n);
        }
        let snap = g.clone();
        let (u, v) = (3 * CHUNK as VertexId + 5, 8 * CHUNK as VertexId + 1);
        assert!(g.insert_edge(u, v));
        let shared = |a: &Overlay, b: &Overlay, touched: usize| {
            for (i, (x, y)) in a.slots.iter().zip(&b.slots).enumerate() {
                let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
                assert_eq!(Arc::ptr_eq(x, y), i != touched, "chunk {i}");
            }
        };
        shared(&g.out, &snap.out, u as usize / CHUNK);
        shared(&g.inc, &snap.inc, v as usize / CHUNK);
        assert!(g.contains_edge(u, v));
        assert!(!snap.contains_edge(u, v));
        // A second write to the same chunk copies nothing more.
        let copied = Arc::as_ptr(g.out.slots[u as usize / CHUNK].as_ref().unwrap());
        assert!(g.insert_edge(u + 1, v));
        let after = Arc::as_ptr(g.out.slots[u as usize / CHUNK].as_ref().unwrap());
        assert_eq!(copied, after, "the writer owns the copied chunk alone");
    }

    #[test]
    fn clones_share_the_base_until_compaction() {
        let mut g = DeltaGraph::new(graph_from_edges(&[(0, 1), (1, 2), (2, 0)]));
        g.insert_edge(0, 2);
        let snap = g.clone();
        assert!(
            Arc::ptr_eq(&g.base_arc(), &snap.base_arc()),
            "a clone must share the CSR base, not deep-copy it"
        );
        // The clone is a true snapshot: later mutations don't leak into it.
        g.remove_edge(0, 1);
        assert!(snap.contains_edge(0, 1));
        assert!(!g.contains_edge(0, 1));
        // Compaction installs a fresh base without disturbing the snapshot.
        g.compact();
        assert!(!Arc::ptr_eq(&g.base_arc(), &snap.base_arc()));
        assert!(snap.contains_edge(0, 1));
        assert_eq!(g.edge_count(), 3);
        // from_shared round-trips a shared base.
        let shared = snap.base_arc();
        let h = DeltaGraph::from_shared(Arc::clone(&shared));
        assert!(Arc::ptr_eq(&h.base_arc(), &shared));
        assert_eq!(h.edge_count(), shared.num_edges());
    }

    #[test]
    fn degrees_stay_consistent_under_churn() {
        let mut g = DeltaGraph::new(graph_from_edges(&[(0, 1), (0, 2), (3, 0)]));
        g.remove_edge(0, 1);
        g.insert_edge(0, 3);
        assert_eq!(g.out_deg(0), g.out_iter(0).count());
        assert_eq!(g.in_deg(0), g.in_iter(0).count());
        assert_eq!(g.in_deg(3), g.in_iter(3).count());
    }
}
