//! The free-node pool.
//!
//! # Layout
//!
//! Node `i` is bit `i % 64` of word `i / 64` in three word-bitmaps of one
//! length, each with the invariant its doc states: `free` ⊆ `managed`, and
//! `drained` is disjoint from `managed`. Two counts beside them make
//! [`NodePool::total`] and [`NodePool::available`] reads. Allocation takes
//! the lowest set bits of `free` with `trailing_zeros`, so a grant is the
//! same lowest-id-first list an ordered set would give;
//! [`NodePool::available_in`] is a popcount over the words of the range,
//! masked at its two ends. The id space is fixed when the pool is built:
//! [`NodePool::restore`] only returns a node [`NodePool::remove`] drained,
//! so no call can grow it.

use pmstack_simhw::NodeId;

const WORD: usize = u64::BITS as usize;

/// Tracks which cluster nodes are free versus leased to jobs, and which
/// have been drained out of management (fail-stop dead nodes).
#[derive(Debug, Clone)]
pub struct NodePool {
    /// Managed and not leased.
    free: Vec<u64>,
    /// Managed: free or leased. A node [`NodePool::remove`] drains leaves
    /// this set until [`NodePool::restore`] returns it.
    managed: Vec<u64>,
    /// Drained by [`NodePool::remove`] and not restored since.
    drained: Vec<u64>,
    free_count: usize,
    managed_count: usize,
}

/// Word index and bit mask of node `id`.
fn bit(id: NodeId) -> (usize, u64) {
    (id.0 / WORD, 1 << (id.0 % WORD))
}

impl NodePool {
    /// A pool over nodes `0..total`.
    pub fn new(total: usize) -> Self {
        Self::from_nodes((0..total).map(NodeId))
    }

    /// A pool over an explicit node set (e.g. only the medium-frequency
    /// cluster selected in §V-A2).
    pub fn from_nodes(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut managed: Vec<u64> = Vec::new();
        let mut count = 0;
        for id in nodes {
            let (w, m) = bit(id);
            if managed.len() <= w {
                managed.resize(w + 1, 0);
            }
            count += usize::from(managed[w] & m == 0);
            managed[w] |= m;
        }
        Self {
            free: managed.clone(),
            drained: vec![0; managed.len()],
            managed,
            free_count: count,
            managed_count: count,
        }
    }

    /// One past the highest node id the pool can ever hold.
    pub(crate) fn id_bound(&self) -> usize {
        self.managed.len() * WORD
    }

    fn test(words: &[u64], id: NodeId) -> bool {
        let (w, m) = bit(id);
        words.get(w).is_some_and(|word| word & m != 0)
    }

    /// Total nodes managed (excludes removed nodes).
    pub fn total(&self) -> usize {
        self.managed_count
    }

    /// Currently free nodes.
    pub fn available(&self) -> usize {
        self.free_count
    }

    /// True if the pool manages this node (free or leased).
    pub fn manages(&self, id: NodeId) -> bool {
        Self::test(&self.managed, id)
    }

    /// The words covering ids `[lo, hi)`, each with the mask of its bits
    /// inside the range.
    fn words_in(&self, lo: NodeId, hi: NodeId) -> impl Iterator<Item = (usize, u64)> {
        let (lo, hi) = (lo.0, hi.0.min(self.id_bound()));
        let words = if lo < hi {
            lo / WORD..hi.div_ceil(WORD)
        } else {
            0..0
        };
        words.map(move |w| {
            let base = w * WORD;
            let mut mask = !0u64;
            if lo > base {
                mask &= !0 << (lo - base);
            }
            if hi < base + WORD {
                mask &= (1 << (hi - base)) - 1;
            }
            (w, mask)
        })
    }

    /// Lease the `n` lowest free ids in `[lo, hi)`; the caller has checked
    /// that the range holds `n`.
    fn take_lowest(&mut self, n: usize, lo: NodeId, hi: NodeId) -> Vec<NodeId> {
        let mut grant = Vec::with_capacity(n);
        for (w, mask) in self.words_in(lo, hi) {
            if grant.len() == n {
                break;
            }
            let mut bits = self.free[w] & mask;
            while bits != 0 && grant.len() < n {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.free[w] &= !(1 << b);
                grant.push(NodeId(w * WORD + b));
            }
        }
        debug_assert_eq!(grant.len(), n, "the caller checked availability");
        self.free_count -= n;
        grant
    }

    /// Lease `n` nodes (lowest ids first, for determinism). Returns `None`
    /// without side effects if not enough are free.
    pub fn allocate(&mut self, n: usize) -> Option<Vec<NodeId>> {
        if self.free_count < n {
            return None;
        }
        Some(self.take_lowest(n, NodeId(0), NodeId(self.id_bound())))
    }

    /// Lease `n` nodes with ids in `[lo, hi)` (lowest ids first) — the
    /// class-constrained allocation path: a heterogeneous fleet lays its
    /// classes out as contiguous id segments, and a job pinned to one
    /// class draws only from that segment. Returns `None` without side
    /// effects if the segment does not hold `n` free nodes.
    pub fn allocate_in(&mut self, n: usize, lo: NodeId, hi: NodeId) -> Option<Vec<NodeId>> {
        if self.available_in(lo, hi) < n {
            return None;
        }
        Some(self.take_lowest(n, lo, hi))
    }

    /// Free nodes with ids in `[lo, hi)`.
    pub fn available_in(&self, lo: NodeId, hi: NodeId) -> usize {
        self.words_in(lo, hi)
            .map(|(w, mask)| (self.free[w] & mask).count_ones() as usize)
            .sum()
    }

    /// Return leased nodes. Idempotent: releasing a node twice is a no-op,
    /// and nodes no longer managed (drained after a failure) silently stay
    /// out of the free set instead of re-entering circulation.
    pub fn release(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        for id in nodes {
            if self.manages(id) && !Self::test(&self.free, id) {
                let (w, m) = bit(id);
                self.free[w] |= m;
                self.free_count += 1;
            }
        }
    }

    /// Drain a node out of management entirely (fail-stop death): it stops
    /// counting toward [`NodePool::total`], cannot be allocated, and future
    /// releases of it are ignored. Returns `false` if the pool never
    /// managed the node (or it was already removed).
    pub fn remove(&mut self, id: NodeId) -> bool {
        if !self.manages(id) {
            return false;
        }
        let (w, m) = bit(id);
        if self.free[w] & m != 0 {
            self.free[w] &= !m;
            self.free_count -= 1;
        }
        self.managed[w] &= !m;
        self.managed_count -= 1;
        self.drained[w] |= m;
        true
    }

    /// Return a node [`NodePool::remove`] drained to service, free. The
    /// repair path for lease-expiry false positives: a node declared dead
    /// during a telemetry blackout comes back once its heartbeats resume.
    /// Returns `false` (no-op) for any node that is not drained: one in
    /// service, or one the pool never managed.
    pub fn restore(&mut self, id: NodeId) -> bool {
        if !Self::test(&self.drained, id) {
            return false;
        }
        let (w, m) = bit(id);
        self.drained[w] &= !m;
        self.managed[w] |= m;
        self.free[w] |= m;
        self.managed_count += 1;
        self.free_count += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut pool = NodePool::new(10);
        let grant = pool.allocate(4).unwrap();
        assert_eq!(grant.len(), 4);
        assert_eq!(pool.available(), 6);
        pool.release(grant);
        assert_eq!(pool.available(), 10);
    }

    #[test]
    fn allocation_is_deterministic() {
        let mut a = NodePool::new(5);
        let mut b = NodePool::new(5);
        assert_eq!(a.allocate(3), b.allocate(3));
    }

    #[test]
    fn over_allocation_fails_without_side_effects() {
        let mut pool = NodePool::new(3);
        assert!(pool.allocate(4).is_none());
        assert_eq!(pool.available(), 3);
    }

    #[test]
    fn double_release_is_a_noop() {
        let mut pool = NodePool::new(3);
        let grant = pool.allocate(1).unwrap();
        pool.release(grant.clone());
        pool.release(grant);
        assert_eq!(pool.available(), 3);
        assert_eq!(pool.total(), 3);
    }

    #[test]
    fn foreign_release_is_ignored() {
        let mut pool = NodePool::from_nodes([NodeId(1), NodeId(2)]);
        pool.release([NodeId(7), NodeId(0), NodeId(640)]);
        assert_eq!(pool.available(), 2);
        assert_eq!(pool.total(), 2);
    }

    #[test]
    fn removed_node_never_returns() {
        let mut pool = NodePool::new(4);
        let grant = pool.allocate(2).unwrap();
        // Kill a leased node: it leaves management…
        assert!(pool.remove(grant[0]));
        assert_eq!(pool.total(), 3);
        // …and releasing the old grant only returns the survivor.
        pool.release(grant.clone());
        assert_eq!(pool.available(), 3);
        assert!(!pool.manages(grant[0]));
        // Removing twice reports false.
        assert!(!pool.remove(grant[0]));
    }

    #[test]
    fn removed_free_node_shrinks_availability() {
        let mut pool = NodePool::new(3);
        assert!(pool.remove(NodeId(0)));
        assert_eq!(pool.available(), 2);
        assert_eq!(pool.total(), 2);
        let grant = pool.allocate(2).unwrap();
        assert_eq!(grant, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn restore_returns_a_drained_node_to_service() {
        let mut pool = NodePool::new(3);
        assert!(pool.remove(NodeId(1)));
        assert_eq!(pool.total(), 2);
        assert!(pool.restore(NodeId(1)));
        assert_eq!(pool.total(), 3);
        assert_eq!(pool.available(), 3);
        // Restoring a managed node is a no-op.
        assert!(!pool.restore(NodeId(1)));
        assert_eq!(pool.available(), 3);
    }

    #[test]
    fn restore_never_invents_a_node() {
        let mut pool = NodePool::new(3);
        assert!(!pool.restore(NodeId(99)));
        assert!(!pool.restore(NodeId(3)));
        assert_eq!(pool.total(), 3);
        assert_eq!(pool.available(), 3);
        assert!(!pool.manages(NodeId(99)));
        // A gap in an explicit set was never managed either.
        let mut pool = NodePool::from_nodes([NodeId(7), NodeId(9)]);
        assert!(!pool.restore(NodeId(8)));
        assert_eq!(pool.total(), 2);
    }

    #[test]
    fn range_allocation_stays_inside_the_segment() {
        let mut pool = NodePool::new(8);
        // Fleet-wide allocation takes the low segment first…
        let low = pool.allocate(2).unwrap();
        assert_eq!(low, vec![NodeId(0), NodeId(1)]);
        // …but a class pinned to [4, 8) only sees its own nodes.
        assert_eq!(pool.available_in(NodeId(4), NodeId(8)), 4);
        let pinned = pool.allocate_in(3, NodeId(4), NodeId(8)).unwrap();
        assert_eq!(pinned, vec![NodeId(4), NodeId(5), NodeId(6)]);
        assert_eq!(pool.available_in(NodeId(4), NodeId(8)), 1);
        // Segment exhaustion fails without side effects even though the
        // fleet as a whole still has free nodes.
        assert!(pool.allocate_in(2, NodeId(4), NodeId(8)).is_none());
        assert_eq!(pool.available_in(NodeId(4), NodeId(8)), 1);
        assert_eq!(pool.available(), 3);
    }

    #[test]
    fn ranges_cross_word_boundaries() {
        let mut pool = NodePool::new(200);
        assert_eq!(pool.available_in(NodeId(60), NodeId(130)), 70);
        assert_eq!(pool.available_in(NodeId(64), NodeId(64)), 0);
        assert_eq!(pool.available_in(NodeId(190), NodeId(900)), 10);
        let grant = pool.allocate_in(6, NodeId(61), NodeId(130)).unwrap();
        let want: Vec<NodeId> = (61..67).map(NodeId).collect();
        assert_eq!(grant, want);
        // 0..61 and then the first ids past the taken run.
        assert_eq!(
            pool.allocate(63).unwrap()[60..],
            [NodeId(60), NodeId(67), NodeId(68)]
        );
        assert_eq!(pool.allocate(1).unwrap(), vec![NodeId(69)]);
    }

    #[test]
    fn explicit_node_set() {
        let pool = NodePool::from_nodes([NodeId(7), NodeId(9), NodeId(11), NodeId(9)]);
        assert_eq!(pool.total(), 3);
        assert_eq!(pool.available(), 3);
    }
}
