//! Edge update batches and per-batch metrics.

use std::time::Duration;

use tdb_graph::VertexId;

/// One streaming edge update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeOp {
    /// Insert the directed edge `(source, target)`.
    Insert(VertexId, VertexId),
    /// Remove the directed edge `(source, target)`.
    Remove(VertexId, VertexId),
}

impl EdgeOp {
    /// The edge endpoints `(source, target)` of the operation.
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        match *self {
            EdgeOp::Insert(u, v) | EdgeOp::Remove(u, v) => (u, v),
        }
    }

    /// Whether this is an insertion.
    pub fn is_insert(&self) -> bool {
        matches!(self, EdgeOp::Insert(..))
    }
}

/// An ordered batch of edge updates, applied atomically with respect to the
/// cover invariant: [`crate::DynamicCover::apply`] processes the operations in
/// order and the cover is valid after every single one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeBatch {
    ops: Vec<EdgeOp>,
}

impl EdgeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        EdgeBatch::default()
    }

    /// A batch holding the given operations in order.
    pub fn from_ops(ops: Vec<EdgeOp>) -> Self {
        EdgeBatch { ops }
    }

    /// Queue an already-constructed operation.
    pub fn push(&mut self, op: EdgeOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Queue an insertion.
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.ops.push(EdgeOp::Insert(u, v));
        self
    }

    /// Queue a removal.
    pub fn remove(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.ops.push(EdgeOp::Remove(u, v));
        self
    }

    /// The queued operations in application order.
    pub fn ops(&self) -> &[EdgeOp] {
        &self.ops
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drop all queued operations, keeping the allocation.
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// Collapse the batch to its net effect, returning the number of
    /// operations dropped.
    ///
    /// After the batch is applied, an edge's presence is decided by the *last*
    /// operation naming it — an insert leaves it present, a removal leaves it
    /// absent — regardless of what the graph held before the batch (earlier
    /// operations on the same edge are overwritten, and
    /// [`crate::DynamicCover::apply`] treats redundant operations as no-ops).
    /// Coalescing therefore keeps exactly one operation per edge, the last
    /// one, in the order of those last occurrences:
    ///
    /// * repeated operations dedupe (`insert e, insert e` → `insert e`),
    /// * an insert/delete pair cancels down to the delete (`insert e, remove
    ///   e` → `remove e`, a pure no-op when `e` was never present), and
    ///   symmetrically a delete/insert pair to the insert.
    ///
    /// The final graph is identical to applying the raw batch, while the
    /// engine skips the intermediate repair work — in a batch of the serving
    /// layer's writer, a flapping edge costs one operation instead of a
    /// cycle search per flap. The cover-validity guarantee is unaffected:
    /// the coalesced batch is itself applied one operation at a time.
    pub fn coalesce(&mut self) -> usize {
        use std::collections::HashMap;
        if self.ops.len() < 2 {
            return 0;
        }
        let before = self.ops.len();
        let mut last_at: HashMap<(VertexId, VertexId), usize> =
            HashMap::with_capacity(self.ops.len());
        for (idx, op) in self.ops.iter().enumerate() {
            last_at.insert(op.endpoints(), idx);
        }
        let mut idx = 0usize;
        self.ops.retain(|op| {
            let keep = last_at[&op.endpoints()] == idx;
            idx += 1;
            keep
        });
        before - self.ops.len()
    }
}

impl FromIterator<EdgeOp> for EdgeBatch {
    fn from_iter<T: IntoIterator<Item = EdgeOp>>(iter: T) -> Self {
        EdgeBatch {
            ops: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a EdgeBatch {
    type Item = EdgeOp;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, EdgeOp>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter().copied()
    }
}

/// Counters and timings for one [`crate::DynamicCover::apply`] call (also
/// accumulated across the engine's lifetime as
/// [`crate::DynamicCover::totals`]) — the streaming counterpart of
/// `tdb_core::RunMetrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateMetrics {
    /// Edge insertions that changed the graph.
    pub inserts: u64,
    /// Edge removals that changed the graph.
    pub removes: u64,
    /// Operations that were no-ops (duplicate insert, absent removal).
    pub noops: u64,
    /// Newly exposed constrained cycles found by the edge-anchored search.
    pub cycles_repaired: u64,
    /// Vertices added to the cover to break those cycles.
    pub breakers_added: u64,
    /// Total vertex cost of the added breakers under the engine's cost model
    /// (equals `breakers_added` when costs are uniform).
    pub breaker_cost: u64,
    /// Edge-anchored cycle queries issued (including the final miss per edge).
    pub edge_queries: u64,
    /// Vertices removed by lazy re-minimization during this window.
    pub pruned: u64,
    /// Cover vertices re-examined by re-minimization: the cover size at each
    /// minimize pass that ran (a pass on a clean cover is skipped).
    pub minimize_checked: u64,
    /// Delta compactions triggered.
    pub compactions: u64,
    /// Wall-clock time spent inside the engine.
    pub elapsed: Duration,
}

impl UpdateMetrics {
    /// Total graph-changing updates (`inserts + removes`).
    pub fn updates(&self) -> u64 {
        self.inserts + self.removes
    }

    /// Updates per second of engine time (`NaN` when no time was recorded).
    pub fn updates_per_sec(&self) -> f64 {
        self.updates() as f64 / self.elapsed.as_secs_f64()
    }

    /// Fold another window's counters into this accumulator.
    pub fn absorb(&mut self, other: &UpdateMetrics) {
        self.inserts += other.inserts;
        self.removes += other.removes;
        self.noops += other.noops;
        self.cycles_repaired += other.cycles_repaired;
        self.breakers_added += other.breakers_added;
        self.breaker_cost = self.breaker_cost.saturating_add(other.breaker_cost);
        self.edge_queries += other.edge_queries;
        self.pruned += other.pruned;
        self.minimize_checked += other.minimize_checked;
        self.compactions += other.compactions;
        self.elapsed += other.elapsed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builder_and_iteration() {
        let mut batch = EdgeBatch::new();
        batch.insert(0, 1).remove(2, 3).insert(1, 2);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        let ops: Vec<EdgeOp> = (&batch).into_iter().collect();
        assert_eq!(
            ops,
            vec![
                EdgeOp::Insert(0, 1),
                EdgeOp::Remove(2, 3),
                EdgeOp::Insert(1, 2)
            ]
        );
        assert_eq!(ops[0].endpoints(), (0, 1));
        assert!(ops[0].is_insert());
        assert!(!ops[1].is_insert());
        batch.clear();
        assert!(batch.is_empty());
        let collected: EdgeBatch = ops.into_iter().collect();
        assert_eq!(collected.len(), 3);
    }

    #[test]
    fn coalesce_keeps_the_last_op_per_edge_in_order() {
        let mut batch = EdgeBatch::new();
        batch
            .insert(0, 1) // overwritten by the later remove(0, 1)
            .insert(2, 3)
            .remove(0, 1)
            .insert(2, 3) // duplicate
            .insert(4, 5)
            .remove(4, 5)
            .insert(4, 5); // flap settles on insert
        let dropped = batch.coalesce();
        assert_eq!(dropped, 4);
        assert_eq!(
            batch.ops(),
            &[
                EdgeOp::Remove(0, 1),
                EdgeOp::Insert(2, 3),
                EdgeOp::Insert(4, 5)
            ]
        );
        // Idempotent.
        assert_eq!(batch.coalesce(), 0);
    }

    #[test]
    fn coalesce_on_tiny_batches_is_a_noop() {
        let mut empty = EdgeBatch::new();
        assert_eq!(empty.coalesce(), 0);
        let mut one = EdgeBatch::new();
        one.insert(1, 2);
        assert_eq!(one.coalesce(), 0);
        assert_eq!(one.ops(), &[EdgeOp::Insert(1, 2)]);
    }

    #[test]
    fn coalesce_distinguishes_edge_directions() {
        let mut batch = EdgeBatch::new();
        batch.insert(0, 1).insert(1, 0).remove(0, 1);
        batch.coalesce();
        assert_eq!(batch.ops(), &[EdgeOp::Insert(1, 0), EdgeOp::Remove(0, 1)]);
    }

    #[test]
    fn metrics_absorb_and_rates() {
        let mut a = UpdateMetrics {
            inserts: 6,
            removes: 4,
            elapsed: Duration::from_millis(500),
            ..Default::default()
        };
        let b = UpdateMetrics {
            inserts: 10,
            breakers_added: 2,
            elapsed: Duration::from_millis(500),
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.updates(), 20);
        assert_eq!(a.breakers_added, 2);
        assert!((a.updates_per_sec() - 20.0).abs() < 1e-9);
    }
}
