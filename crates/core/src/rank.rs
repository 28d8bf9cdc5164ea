//! Ranking utilities over server views and ground-truth values.
//!
//! The paper's `rank(S_i, t)` is the 1-based position of stream `i` when all
//! streams are ordered by rank key (§3.3, "the function rank depends on the
//! query"). Ties are broken by ascending stream id so the order is total —
//! see [`streamnet::StreamId`].
//!
//! Two implementations of the same order live here:
//!
//! * the **sort path** ([`rank_view`], [`rank_values`],
//!   [`midpoint_threshold`]) — the reference: every call pays a full
//!   O(n log n) re-sort of the snapshot it is given, so it is what the
//!   oracle ranks ground truth with and what the index is checked against;
//! * the **incremental path** ([`RankIndex`]) — an order-statistics treap
//!   over `(key, id)` pairs maintained by the engine as view updates land,
//!   so the per-report operations the protocols actually need are
//!   logarithmic. It is the only order rank protocols read
//!   ([`crate::protocol::ServerCtx::ranks`]).
//!
//! Both produce *byte-identical* results (the `(key, id)` tie-break order is
//! part of the contract); `tests/rank_differential.rs` checks the engine's
//! index against a sort of its view at every quiescent point, per
//! protocol, and `tests/rank_index_prop.rs` per operation.
//!
//! ## Per-operation cost, seed (sort) vs. indexed
//!
//! | Operation | Seed (full sort) | [`RankIndex`] |
//! |-----------|------------------|---------------|
//! | apply one view update        | —          | O(log n) |
//! | full ranking (`ordered_ids`) | O(n log n) | O(n) |
//! | best `m` ids (`top_ids`)     | O(n log n) | O(m + log n) |
//! | rank of one stream (`rank_of`) | O(n log n) | O(log n) |
//! | `select(m)` / `midpoint(m)`  | O(n log n) | O(log n) |
//! | streams inside a ball (`count_in_ball`) | O(n) scan | O(log n) |
//! | rebuild after `probe_all`    | O(n log n) | sort + O(n) link ([`RankIndex::bulk_build`]) |
//!
//! The treap is deterministic: node priorities are drawn once per stream id
//! from a fixed-seed [`simkit::SimRng`] stream, so the structure — and
//! therefore every traversal — is identical across runs, engines, and the
//! sharded `asf-server` runtime.
//!
//! ## Bulk construction
//!
//! Initialization and every `Reinit` refresh the whole view at once
//! (`probe_all`), then need the index over all `n` fresh keys. Building
//! that by `n` incremental inserts costs O(n log n) *random-position*
//! pointer chases — the dominant cost of RTP/FT-RP initialization at large
//! `n`. [`RankIndex::bulk_build`] instead sorts the `(key, id)` pairs once
//! (cache-friendly) and links the treap left-to-right with a right-spine
//! stack in O(n); with distinct priorities the treap is unique, so the
//! incremental and bulk paths produce the same structure.
//!
//! ## The sharded forest
//!
//! What the engines actually maintain is a [`RankForest`]: strided
//! per-partition [`RankIndex`] treaps (`asf-server` uses one per shard;
//! the serial engine one total). Queries merge the parts lazily and are
//! byte-identical for any part count — the global `(key, id)` order is
//! unique — while maintenance partitions by ownership: a reinit storm's
//! delta refresh ([`RankForest::refresh_from_changed`]) re-keys only the
//! drifted streams, partition-parallel, so index upkeep scales with the
//! shard count instead of serializing on the coordinator.

use simkit::SimRng;
use streamnet::{ServerView, StreamId};

use crate::query::RankSpace;

/// Compares two `(key, id)` pairs: ascending key, ties by ascending id.
///
/// # Panics
///
/// Panics (in debug builds) on NaN keys; stream values are validated finite
/// at the sources, so keys are never NaN.
#[inline]
pub fn cmp_key(a: (f64, StreamId), b: (f64, StreamId)) -> std::cmp::Ordering {
    a.0.partial_cmp(&b.0).expect("rank keys must not be NaN").then(a.1.cmp(&b.1))
}

/// Ranks every stream in the server's view: returns ids sorted best-first.
///
/// # Panics
///
/// Panics if the view has streams the server has never learned — protocols
/// must initialize (probe all) before ranking.
pub fn rank_view(space: RankSpace, view: &ServerView) -> Vec<StreamId> {
    assert!(view.all_known(), "cannot rank a partially-known view");
    rank_values(
        space,
        (0..view.len()).map(|i| {
            let id = StreamId(i as u32);
            (id, view.get(id))
        }),
    )
}

/// Ranks an arbitrary `(id, value)` collection; returns ids sorted
/// best-first under `space` with deterministic tie-breaking.
pub fn rank_values(
    space: RankSpace,
    values: impl IntoIterator<Item = (StreamId, f64)>,
) -> Vec<StreamId> {
    let mut keyed: Vec<(f64, StreamId)> =
        values.into_iter().map(|(id, v)| (space.key(v), id)).collect();
    keyed.sort_by(|&a, &b| cmp_key(a, b));
    keyed.into_iter().map(|(_, id)| id).collect()
}

/// The 1-based rank of `id` within `values` under `space`.
///
/// This is the paper's `rank(S_i, t)` evaluated over whatever value
/// snapshot the caller supplies (server view for protocols, ground truth
/// for the oracle).
pub fn rank_of(
    space: RankSpace,
    values: impl IntoIterator<Item = (StreamId, f64)>,
    id: StreamId,
) -> Option<usize> {
    rank_values(space, values).iter().position(|&s| s == id).map(|p| p + 1)
}

/// The midpoint between the keys of ranks `m` and `m + 1` (1-based) —
/// the paper's `Deploy_bound` radius `d = (|V_x − q| + |V_y − q|)/2`
/// generalised to key space.
///
/// # Panics
///
/// Panics if fewer than `m + 1` streams are supplied or `m == 0`.
pub fn midpoint_threshold(
    space: RankSpace,
    values: impl IntoIterator<Item = (StreamId, f64)>,
    m: usize,
) -> f64 {
    assert!(m >= 1, "midpoint rank must be >= 1");
    let mut keys: Vec<f64> = values.into_iter().map(|(_, v)| space.key(v)).collect();
    assert!(
        keys.len() > m,
        "midpoint between ranks {m} and {} needs more than {m} streams, got {}",
        m + 1,
        keys.len()
    );
    keys.sort_by(|a, b| a.partial_cmp(b).expect("rank keys must not be NaN"));
    (keys[m - 1] + keys[m]) / 2.0
}

/// Sentinel index for "no child".
const NIL: u32 = u32::MAX;

/// Fixed seed of the priority stream — a constant so that every engine
/// (serial, sharded, any shard count) builds the identical treap.
const PRIORITY_SEED: u64 = 0xA5F0_DE7A_u64;

#[derive(Clone, Copy, Debug)]
struct Node {
    /// Current rank key (`space.key(value)`); valid iff `present`.
    key: f64,
    /// Heap priority, fixed per stream id at construction.
    prio: u64,
    left: u32,
    right: u32,
    /// Subtree size (this node included); valid iff linked into the tree.
    size: u32,
    /// Whether this stream is currently in the index.
    present: bool,
}

/// An incremental order-statistics index over `(rank key, stream id)`.
///
/// A treap (randomized BST with subtree counts) whose in-order traversal is
/// exactly the [`cmp_key`] order the sort path uses, holding at most one
/// entry per stream id of a fixed population `0..n`. Node storage is a flat
/// arena indexed by stream id — no allocation per operation — and node
/// priorities come from a fixed-seed [`SimRng`] stream, so the tree shape
/// is a pure function of the (key, id) set: deterministic and identical
/// across the serial engine and the sharded server.
///
/// All mutating operations are expected O(log n); see the module-level
/// complexity table.
#[derive(Clone, Debug)]
pub struct RankIndex {
    space: RankSpace,
    root: u32,
    nodes: Vec<Node>,
    len: usize,
}

impl RankIndex {
    /// Creates an empty index over a population of `n` stream ids under
    /// `space`.
    ///
    /// # Panics
    ///
    /// Panics if `n` cannot be addressed by a `u32` id space.
    pub fn new(space: RankSpace, n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "population too large for u32 stream ids");
        let mut rng = SimRng::seed_from_u64(PRIORITY_SEED);
        let nodes = (0..n)
            .map(|_| Node {
                key: 0.0,
                prio: rng.next_u64(),
                left: NIL,
                right: NIL,
                size: 0,
                present: false,
            })
            .collect();
        Self { space, root: NIL, nodes, len: 0 }
    }

    /// The rank space the index orders by.
    pub fn space(&self) -> RankSpace {
        self.space
    }

    /// Number of streams currently indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no stream is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The population size `n` the index was created for.
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `id` is currently indexed.
    pub fn contains(&self, id: StreamId) -> bool {
        self.nodes[id.index()].present
    }

    /// The rank key stored for `id`, if indexed.
    pub fn key_of(&self, id: StreamId) -> Option<f64> {
        let node = &self.nodes[id.index()];
        node.present.then_some(node.key)
    }

    /// Indexes `id` with value `value` (key = `space.key(value)`).
    ///
    /// # Panics
    ///
    /// Panics if `id` is already indexed or the key is NaN.
    pub fn insert(&mut self, id: StreamId, value: f64) {
        let i = id.index();
        assert!(!self.nodes[i].present, "{id} is already indexed");
        let key = self.space.key(value);
        assert!(!key.is_nan(), "rank keys must not be NaN");
        let node = &mut self.nodes[i];
        node.key = key;
        node.left = NIL;
        node.right = NIL;
        node.size = 1;
        node.present = true;
        let (l, r) = self.split(self.root, (key, id));
        let lm = self.merge(l, i as u32);
        self.root = self.merge(lm, r);
        self.len += 1;
    }

    /// Removes `id` from the index.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not indexed.
    pub fn remove(&mut self, id: StreamId) {
        let i = id.index();
        assert!(self.nodes[i].present, "{id} is not indexed");
        let at = (self.nodes[i].key, id);
        self.root = self.remove_rec(self.root, at);
        self.nodes[i].present = false;
        self.len -= 1;
    }

    /// Re-keys `id` to `value`, inserting it if absent — the maintenance
    /// operation applied for every value that reaches the server.
    pub fn update(&mut self, id: StreamId, value: f64) {
        if self.nodes[id.index()].present {
            // A treap's shape is a pure function of its (key, priority)
            // set, so a bit-identical re-key is a structural no-op: skip
            // both tree passes (probes of unmoved streams and echoing
            // sync-reports hit this often).
            if self.nodes[id.index()].key.to_bits() == self.space.key(value).to_bits() {
                return;
            }
            self.remove(id);
        }
        self.insert(id, value);
    }

    /// Drops every entry (population and priorities are retained).
    pub fn clear(&mut self) {
        for node in &mut self.nodes {
            node.present = false;
        }
        self.root = NIL;
        self.len = 0;
    }

    /// Rebuilds the index from a fully-known server view — the
    /// Initialization / re-initialization step (`probe_all` refreshed every
    /// stream at once). Delegates to [`RankIndex::bulk_build`]: one sorted
    /// pass instead of `n` random-position inserts.
    ///
    /// # Panics
    ///
    /// Panics if the view population differs from the index population or
    /// the view is not fully known.
    pub fn rebuild_from_view(&mut self, view: &ServerView) {
        assert_eq!(view.len(), self.capacity(), "view/index population mismatch");
        assert!(view.all_known(), "cannot index a partially-known view");
        self.bulk_build((0..view.len()).map(|i| {
            let id = StreamId(i as u32);
            (id, view.get(id))
        }));
    }

    /// Replaces the whole index with `values` in one sorted pass: sort the
    /// `(key, id)` pairs, then link the treap left-to-right with a
    /// right-spine stack (the cartesian-tree construction) — O(n) tree
    /// building after the sort, instead of `n` random-position inserts
    /// costing O(n log n) pointer chases.
    ///
    /// The result is the same treap the incremental path produces: with
    /// distinct priorities the treap over a `(key, id, priority)` set is
    /// unique, so every traversal — and therefore every rank answer — is
    /// byte-identical to inserting one by one
    /// (`tests/rank_index_prop.rs` proves it per operation).
    ///
    /// # Panics
    ///
    /// Panics on NaN keys, out-of-population ids, or an id that appears
    /// twice.
    pub fn bulk_build(&mut self, values: impl IntoIterator<Item = (StreamId, f64)>) {
        self.clear();
        let mut pairs: Vec<(f64, StreamId)> = values
            .into_iter()
            .map(|(id, v)| {
                let key = self.space.key(v);
                assert!(!key.is_nan(), "rank keys must not be NaN");
                (key, id)
            })
            .collect();
        pairs.sort_unstable_by(|&a, &b| cmp_key(a, b));
        // Right spine of the tree built so far (root at the bottom). Each
        // new node enters as the deepest right descendant: nodes of lower
        // priority are popped below it (ties keep the earlier node on top,
        // exactly like `merge`).
        let mut spine: Vec<u32> = Vec::with_capacity(64);
        for &(key, id) in &pairs {
            let i = id.index();
            let node = &mut self.nodes[i];
            assert!(!node.present, "{id} appears twice in bulk_build");
            node.key = key;
            node.left = NIL;
            node.right = NIL;
            node.size = 1;
            node.present = true;
            let cur = i as u32;
            let mut popped = NIL;
            while let Some(&top) = spine.last() {
                if self.nodes[top as usize].prio >= self.nodes[cur as usize].prio {
                    break;
                }
                // `top`'s subtree is final once it leaves the spine: fix its
                // size now (its right chain was popped — and fixed — first).
                spine.pop();
                self.fix(top);
                popped = top;
            }
            self.nodes[cur as usize].left = popped;
            if let Some(&top) = spine.last() {
                self.nodes[top as usize].right = cur;
            }
            spine.push(cur);
        }
        // Finalize sizes bottom-up along the remaining spine; the last
        // element popped is the root.
        self.root = NIL;
        while let Some(top) = spine.pop() {
            self.fix(top);
            self.root = top;
        }
        self.len = pairs.len();
    }

    /// How many indexed `(key, id)` pairs order strictly before `at` —
    /// the descend-and-count half of a rank query, usable with an `at`
    /// that is not itself indexed (the forest's cross-part rank merge).
    pub fn count_before(&self, at: (f64, StreamId)) -> usize {
        let mut t = self.root;
        let mut count = 0usize;
        while t != NIL {
            let node = &self.nodes[t as usize];
            if cmp_key((node.key, StreamId(t)), at) == std::cmp::Ordering::Less {
                count += self.size(node.left) as usize + 1;
                t = node.right;
            } else {
                t = node.left;
            }
        }
        count
    }

    /// The 1-based rank of `id`, if indexed.
    pub fn rank_of(&self, id: StreamId) -> Option<usize> {
        let i = id.index();
        if !self.nodes[i].present {
            return None;
        }
        let at = (self.nodes[i].key, id);
        let mut t = self.root;
        let mut before = 0usize;
        loop {
            debug_assert_ne!(t, NIL, "present node must be reachable");
            let node = &self.nodes[t as usize];
            match cmp_key(at, (node.key, StreamId(t))) {
                std::cmp::Ordering::Less => t = node.left,
                std::cmp::Ordering::Equal => {
                    return Some(before + self.size(node.left) as usize + 1)
                }
                std::cmp::Ordering::Greater => {
                    before += self.size(node.left) as usize + 1;
                    t = node.right;
                }
            }
        }
    }

    /// The `(key, id)` pair of 1-based rank `m`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= m <= len`.
    pub fn select(&self, m: usize) -> (f64, StreamId) {
        assert!(m >= 1 && m <= self.len, "select rank {m} out of 1..={}", self.len);
        let mut t = self.root;
        let mut m = m;
        loop {
            let node = &self.nodes[t as usize];
            let left = self.size(node.left) as usize;
            match m.cmp(&(left + 1)) {
                std::cmp::Ordering::Equal => return (node.key, StreamId(t)),
                std::cmp::Ordering::Less => t = node.left,
                std::cmp::Ordering::Greater => {
                    m -= left + 1;
                    t = node.right;
                }
            }
        }
    }

    /// The midpoint between the keys of ranks `m` and `m + 1` — identical
    /// to [`midpoint_threshold`] over the same entries.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `m + 1` streams are indexed or `m == 0`.
    pub fn midpoint(&self, m: usize) -> f64 {
        assert!(m >= 1, "midpoint rank must be >= 1");
        assert!(
            self.len > m,
            "midpoint between ranks {m} and {} needs more than {m} streams, got {}",
            m + 1,
            self.len
        );
        (self.select(m).0 + self.select(m + 1).0) / 2.0
    }

    /// How many indexed streams lie inside the ball `{key <= d}` — the
    /// paper's "streams inside `R`" count against the server's view.
    ///
    /// # Panics
    ///
    /// Panics on NaN `d`.
    pub fn count_in_ball(&self, d: f64) -> usize {
        assert!(!d.is_nan(), "ball threshold must not be NaN");
        let mut t = self.root;
        let mut count = 0usize;
        while t != NIL {
            let node = &self.nodes[t as usize];
            if node.key <= d {
                count += self.size(node.left) as usize + 1;
                t = node.right;
            } else {
                t = node.left;
            }
        }
        count
    }

    /// The `m` best-ranked ids in order.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `m` streams are indexed.
    pub fn top_ids(&self, m: usize) -> Vec<StreamId> {
        assert!(m <= self.len, "asked for top {m} of {} indexed streams", self.len);
        let mut out = Vec::with_capacity(m);
        self.collect_ids(self.root, m, &mut out);
        out
    }

    /// Every indexed id, best-first — the indexed equivalent of
    /// [`rank_view`].
    pub fn ordered_ids(&self) -> Vec<StreamId> {
        self.top_ids(self.len)
    }

    /// Every indexed `(key, id)` pair, best-first.
    pub fn ordered_pairs(&self) -> Vec<(f64, StreamId)> {
        let mut out = Vec::with_capacity(self.len);
        self.collect_pairs(self.root, &mut out);
        out
    }

    /// A lazy in-order iterator over the indexed `(key, id)` pairs —
    /// O(log n) to open, O(1) amortized per step — so merging passes (the
    /// forest's cross-part walks) don't re-descend from the root per
    /// element or materialize per-part vectors.
    pub fn iter_inorder(&self) -> InorderIter<'_> {
        let mut iter = InorderIter { index: self, stack: Vec::with_capacity(48) };
        iter.descend_left(self.root);
        iter
    }

    #[inline]
    fn size(&self, t: u32) -> u32 {
        if t == NIL {
            0
        } else {
            self.nodes[t as usize].size
        }
    }

    #[inline]
    fn fix(&mut self, t: u32) {
        let (l, r) = {
            let node = &self.nodes[t as usize];
            (node.left, node.right)
        };
        self.nodes[t as usize].size = 1 + self.size(l) + self.size(r);
    }

    /// Splits subtree `t` into (`< at`, `>= at`) by `(key, id)` order.
    fn split(&mut self, t: u32, at: (f64, StreamId)) -> (u32, u32) {
        if t == NIL {
            return (NIL, NIL);
        }
        let pair = (self.nodes[t as usize].key, StreamId(t));
        if cmp_key(pair, at) == std::cmp::Ordering::Less {
            let (l, r) = self.split(self.nodes[t as usize].right, at);
            self.nodes[t as usize].right = l;
            self.fix(t);
            (t, r)
        } else {
            let (l, r) = self.split(self.nodes[t as usize].left, at);
            self.nodes[t as usize].left = r;
            self.fix(t);
            (l, t)
        }
    }

    /// Merges subtrees `l` and `r` where every pair in `l` precedes every
    /// pair in `r`.
    fn merge(&mut self, l: u32, r: u32) -> u32 {
        if l == NIL {
            return r;
        }
        if r == NIL {
            return l;
        }
        if self.nodes[l as usize].prio >= self.nodes[r as usize].prio {
            let m = self.merge(self.nodes[l as usize].right, r);
            self.nodes[l as usize].right = m;
            self.fix(l);
            l
        } else {
            let m = self.merge(l, self.nodes[r as usize].left);
            self.nodes[r as usize].left = m;
            self.fix(r);
            r
        }
    }

    fn remove_rec(&mut self, t: u32, at: (f64, StreamId)) -> u32 {
        debug_assert_ne!(t, NIL, "removed pair must be present");
        let pair = (self.nodes[t as usize].key, StreamId(t));
        match cmp_key(at, pair) {
            std::cmp::Ordering::Equal => {
                let (l, r) = (self.nodes[t as usize].left, self.nodes[t as usize].right);
                self.merge(l, r)
            }
            std::cmp::Ordering::Less => {
                let nl = self.remove_rec(self.nodes[t as usize].left, at);
                self.nodes[t as usize].left = nl;
                self.fix(t);
                t
            }
            std::cmp::Ordering::Greater => {
                let nr = self.remove_rec(self.nodes[t as usize].right, at);
                self.nodes[t as usize].right = nr;
                self.fix(t);
                t
            }
        }
    }

    fn collect_ids(&self, t: u32, limit: usize, out: &mut Vec<StreamId>) {
        if t == NIL || out.len() == limit {
            return;
        }
        let node = &self.nodes[t as usize];
        self.collect_ids(node.left, limit, out);
        if out.len() < limit {
            out.push(StreamId(t));
            self.collect_ids(node.right, limit, out);
        }
    }

    fn collect_pairs(&self, t: u32, out: &mut Vec<(f64, StreamId)>) {
        if t == NIL {
            return;
        }
        let node = &self.nodes[t as usize];
        self.collect_pairs(node.left, out);
        out.push((node.key, StreamId(t)));
        self.collect_pairs(node.right, out);
    }
}

/// Lazy in-order traversal of a [`RankIndex`] (see
/// [`RankIndex::iter_inorder`]).
pub struct InorderIter<'a> {
    index: &'a RankIndex,
    stack: Vec<u32>,
}

impl InorderIter<'_> {
    fn descend_left(&mut self, mut t: u32) {
        while t != NIL {
            self.stack.push(t);
            t = self.index.nodes[t as usize].left;
        }
    }
}

impl Iterator for InorderIter<'_> {
    type Item = (f64, StreamId);

    fn next(&mut self) -> Option<(f64, StreamId)> {
        let t = self.stack.pop()?;
        let node = &self.index.nodes[t as usize];
        self.descend_left(node.right);
        Some((node.key, StreamId(t)))
    }
}

/// A **sharded rank index**: `p` independent [`RankIndex`] treaps, part `p`
/// owning the global stream ids `≡ p (mod parts)` under local ids
/// `global / parts` — the same strided partitioning `asf-server` uses for
/// its worker shards.
///
/// The strided local↔global map is monotone within a part, so each part's
/// `(key, local id)` order is exactly the global `(key, id)` order
/// restricted to that part, and every query merges the parts without any
/// re-sorting: `select`/`top_ids`/ordered passes by a `parts`-way
/// **heap merge** over lazy per-part in-order cursors (O(log n) to open
/// each cursor, O(log parts) per emitted pair), ball counts and ranks by
/// summing per-part subtree counts. All outputs are **byte-identical** for any part count —
/// the global `(key, id)` order is unique — so the serial engine (one
/// part) and the sharded server (one part per shard) agree bit for bit.
///
/// The point of the split is *maintenance parallelism*: a reinit storm's
/// `probe_all` re-keys only the streams that drifted, and those re-keys
/// partition by ownership — [`RankForest::refresh_from_changed`] runs the
/// parts on scoped threads (when the batch is worth it), so index
/// maintenance scales with the shard count instead of serializing on the
/// coordinator. Smaller per-part arenas also
/// make every re-key cheaper (shallower treaps, cache-resident nodes).
#[derive(Debug)]
pub struct RankForest {
    space: RankSpace,
    parts: Vec<RankIndex>,
    stride: usize,
    n: usize,
    /// Pooled per-part `(local, value)` slices for refresh batches.
    refresh_scratch: Vec<Vec<(u32, f64)>>,
}

/// Below this many re-keys a partition-parallel refresh runs the parts on
/// the caller's thread — scoped-thread spawn overhead would exceed the
/// work. Purely a performance knob: results are identical either way.
const FOREST_SPAWN_THRESHOLD: usize = 1024;

impl RankForest {
    /// Creates an empty forest of `parts` strided partitions over a
    /// population of `n` ids under `space`.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero or exceeds `n`.
    pub fn new(space: RankSpace, n: usize, parts: usize) -> Self {
        assert!(parts >= 1, "need at least one rank partition");
        assert!(parts <= n.max(1), "more rank partitions ({parts}) than streams ({n})");
        let part_indexes = (0..parts)
            .map(|p| {
                let part_n = (n + parts - 1 - p) / parts; // ceil((n - p) / parts)
                RankIndex::new(space, part_n)
            })
            .collect();
        Self { space, parts: part_indexes, stride: parts, n, refresh_scratch: Vec::new() }
    }

    /// The rank space the forest orders by.
    pub fn space(&self) -> RankSpace {
        self.space
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.stride
    }

    /// Number of streams currently indexed.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// Whether no stream is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The population size `n` the forest was created for.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// Whether every stream of the population is indexed (the delta-refresh
    /// precondition).
    pub fn is_fully_populated(&self) -> bool {
        self.len() == self.n
    }

    #[inline]
    fn part_of(&self, id: StreamId) -> (usize, StreamId) {
        ((id.index() % self.stride), StreamId(id.0 / self.stride as u32))
    }

    #[inline]
    fn global_of(&self, part: usize, local: StreamId) -> StreamId {
        StreamId(local.0 * self.stride as u32 + part as u32)
    }

    /// Whether `id` is currently indexed.
    pub fn contains(&self, id: StreamId) -> bool {
        let (p, l) = self.part_of(id);
        self.parts[p].contains(l)
    }

    /// The rank key stored for `id`, if indexed.
    pub fn key_of(&self, id: StreamId) -> Option<f64> {
        let (p, l) = self.part_of(id);
        self.parts[p].key_of(l)
    }

    /// Re-keys `id` to `value`, inserting it if absent — the maintenance
    /// operation applied for every value that reaches the server.
    pub fn update(&mut self, id: StreamId, value: f64) {
        let (p, l) = self.part_of(id);
        self.parts[p].update(l, value);
    }

    /// Rebuilds the whole forest from a fully-known view, each part by one
    /// sorted [`RankIndex::bulk_build`] pass over its stride slice.
    /// Returns the busy time summed over the parts, ns.
    ///
    /// # Panics
    ///
    /// Panics if the view population differs from the forest population or
    /// the view is not fully known.
    pub fn rebuild_from_view(&mut self, view: &ServerView) -> u64 {
        assert_eq!(view.len(), self.n, "view/forest population mismatch");
        assert!(view.all_known(), "cannot index a partially-known view");
        let stride = self.stride;
        let mut busy_ns = 0;
        for (p, part) in self.parts.iter_mut().enumerate() {
            let t = std::time::Instant::now();
            part.bulk_build((0..part.capacity()).map(|l| {
                let g = StreamId((l * stride + p) as u32);
                (StreamId(l as u32), view.get(g))
            }));
            busy_ns += t.elapsed().as_nanos() as u64;
        }
        busy_ns
    }

    /// Re-keys exactly the `changed` ids to their current view values —
    /// the reinit-storm maintenance pass. The re-keys partition by
    /// ownership, so the parts run on scoped threads when the batch is
    /// large enough to amortize the spawns; the busy time summed over the
    /// parts is returned, ns. Results are byte-identical to
    /// calling [`RankForest::update`] per id in any order (the treap over
    /// a `(key, id, priority)` set is unique).
    ///
    /// # Panics
    ///
    /// Panics if the view population differs from the forest population or
    /// the forest is not fully populated (bulk-build first — a partially
    /// populated forest would silently answer wrong global ranks).
    pub fn refresh_from_changed(&mut self, view: &ServerView, changed: &[StreamId]) -> u64 {
        assert_eq!(view.len(), self.n, "view/forest population mismatch");
        assert!(
            self.is_fully_populated(),
            "delta refresh needs a fully-populated forest; rebuild first"
        );
        let stride = self.stride;
        while self.refresh_scratch.len() < stride {
            self.refresh_scratch.push(Vec::new());
        }
        let mut slices = std::mem::take(&mut self.refresh_scratch);
        for s in slices.iter_mut() {
            s.clear();
        }
        for &id in changed {
            let (p, l) = (id.index() % stride, id.0 / stride as u32);
            slices[p].push((l, view.get(id)));
        }
        let mut busy_ns = 0;
        // Spawn only when real cores exist: on a single-CPU host the
        // scoped threads would interleave and each part's wall-clock would
        // measure the whole pass, inflating the summed busy time
        // (results are identical either way — this is a metering/
        // performance gate only).
        let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        if stride > 1 && cores > 1 && changed.len() >= FOREST_SPAWN_THRESHOLD {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .parts
                    .iter_mut()
                    .zip(slices.iter())
                    .map(|(part, slice)| {
                        scope.spawn(move || {
                            let t = std::time::Instant::now();
                            for &(l, v) in slice {
                                part.update(StreamId(l), v);
                            }
                            t.elapsed().as_nanos() as u64
                        })
                    })
                    .collect();
                for handle in handles {
                    busy_ns += handle.join().expect("rank part refresh panicked");
                }
            });
        } else {
            for (part, slice) in self.parts.iter_mut().zip(slices.iter()) {
                let t = std::time::Instant::now();
                for &(l, v) in slice {
                    part.update(StreamId(l), v);
                }
                busy_ns += t.elapsed().as_nanos() as u64;
            }
        }
        self.refresh_scratch = slices;
        busy_ns
    }

    /// The `(key, id)` pair of 1-based rank `m` — a `parts`-way cursor
    /// walk of per-part selections.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= m <= len`.
    pub fn select(&self, m: usize) -> (f64, StreamId) {
        let len = self.len();
        assert!(m >= 1 && m <= len, "select rank {m} out of 1..={len}");
        let mut out = (f64::NAN, StreamId(u32::MAX));
        self.top_walk(m, |pair| out = pair);
        out
    }

    /// The midpoint between the keys of ranks `m` and `m + 1`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `m + 1` streams are indexed or `m == 0`.
    pub fn midpoint(&self, m: usize) -> f64 {
        assert!(m >= 1, "midpoint rank must be >= 1");
        assert!(
            self.len() > m,
            "midpoint between ranks {m} and {} needs more than {m} streams, got {}",
            m + 1,
            self.len()
        );
        let mut keys = (0.0f64, 0.0f64);
        self.top_walk(m + 1, |pair| {
            keys = (keys.1, pair.0);
        });
        (keys.0 + keys.1) / 2.0
    }

    /// The `m` best-ranked ids in order.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `m` streams are indexed.
    pub fn top_ids(&self, m: usize) -> Vec<StreamId> {
        assert!(m <= self.len(), "asked for top {m} of {} indexed streams", self.len());
        let mut out = Vec::with_capacity(m);
        self.top_walk(m, |(_, id)| out.push(id));
        out
    }

    /// The `m` best-ranked `(key, id)` pairs in order — one walk serving
    /// both a bound position and its tracked set (protocols that need
    /// `midpoint(ε)` *and* the top ε ids pay a single pass).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `m` streams are indexed.
    pub fn top_pairs(&self, m: usize) -> Vec<(f64, StreamId)> {
        assert!(m <= self.len(), "asked for top {m} of {} indexed streams", self.len());
        let mut out = Vec::with_capacity(m);
        self.top_walk(m, |pair| out.push(pair));
        out
    }

    /// Walks the best `m` global `(key, id)` pairs in order, calling
    /// `visit` for each: one lazy in-order iterator per part (O(log n) to
    /// open, O(1) amortized to advance), merged through a min-heap of the
    /// per-part heads — O(m·log parts) comparisons instead of the
    /// O(m·parts) linear head scan, so walks stay cheap at 64+ parts. No
    /// re-descent, no materialization; ties are total under the global
    /// `(key, id)` order, so the merge is deterministic.
    fn top_walk(&self, m: usize, mut visit: impl FnMut((f64, StreamId))) {
        let mut iters: Vec<InorderIter<'_>> =
            self.parts.iter().map(|part| part.iter_inorder()).collect();
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<MergeHead>> =
            std::collections::BinaryHeap::with_capacity(iters.len());
        for (p, it) in iters.iter_mut().enumerate() {
            if let Some((key, l)) = it.next() {
                heap.push(std::cmp::Reverse(MergeHead { key, id: self.global_of(p, l), part: p }));
            }
        }
        for _ in 0..m {
            let std::cmp::Reverse(head) = heap.pop().expect("walk within len");
            visit((head.key, head.id));
            if let Some((key, l)) = iters[head.part].next() {
                heap.push(std::cmp::Reverse(MergeHead {
                    key,
                    id: self.global_of(head.part, l),
                    part: head.part,
                }));
            }
        }
    }

    /// Every indexed id, best-first.
    pub fn ordered_ids(&self) -> Vec<StreamId> {
        self.ordered_pairs().into_iter().map(|(_, id)| id).collect()
    }

    /// Every indexed `(key, id)` pair, best-first — a lazy merge of the
    /// per-part in-order traversals (each already in global order).
    pub fn ordered_pairs(&self) -> Vec<(f64, StreamId)> {
        let mut out = Vec::with_capacity(self.len());
        self.top_walk(self.len(), |pair| out.push(pair));
        out
    }

    /// How many indexed streams lie inside the ball `{key <= d}` — the
    /// sum of the per-part subtree counts.
    ///
    /// # Panics
    ///
    /// Panics on NaN `d`.
    pub fn count_in_ball(&self, d: f64) -> usize {
        self.parts.iter().map(|p| p.count_in_ball(d)).sum()
    }

    /// The 1-based rank of `id`, if indexed: one `count_before` descent
    /// per part against the global `(key, id)` cutoff.
    pub fn rank_of(&self, id: StreamId) -> Option<usize> {
        let key = self.key_of(id)?;
        Some(self.count_before((key, id)) + 1)
    }

    /// How many indexed entries order strictly before the global `(key, id)`
    /// pair under [`cmp_key`] — one `count_before` descent per part. The
    /// pair need not be indexed (nor indexed *at* that key), which is what
    /// lets multi-query rank routing locate a stream's **pre-update** rank
    /// after the forest has already been re-keyed.
    pub fn count_before(&self, at: (f64, StreamId)) -> usize {
        let (key, id) = at;
        let mut before = 0usize;
        for (p, part) in self.parts.iter().enumerate() {
            // Entries of part p order before (key, id) iff their key is
            // smaller, or equal with global id `l·parts + p < id`; the
            // local cutoff for that is ceil((id - p) / parts).
            let cut =
                if id.0 > p as u32 { (id.0 - p as u32).div_ceil(self.stride as u32) } else { 0 };
            before += part.count_before((key, StreamId(cut)));
        }
        before
    }
}

/// One partition's current head in a forest merge walk, ordered by the
/// global `(key, id)` pair ([`cmp_key`] — total, since keys are never NaN
/// and global ids are unique).
#[derive(Clone, Copy, Debug)]
struct MergeHead {
    key: f64,
    id: StreamId,
    part: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for MergeHead {}

impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        cmp_key((self.key, self.id), (other.key, other.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(v: &[f64]) -> Vec<(StreamId, f64)> {
        v.iter().enumerate().map(|(i, &x)| (StreamId(i as u32), x)).collect()
    }

    #[test]
    fn knn_ranks_by_distance() {
        let space = RankSpace::Knn { q: 100.0 };
        // values: 90 (d=10), 150 (d=50), 105 (d=5), 300 (d=200)
        let order = rank_values(space, vals(&[90.0, 150.0, 105.0, 300.0]));
        assert_eq!(order, vec![StreamId(2), StreamId(0), StreamId(1), StreamId(3)]);
    }

    #[test]
    fn topk_ranks_descending() {
        let order = rank_values(RankSpace::TopK, vals(&[5.0, 9.0, 1.0]));
        assert_eq!(order, vec![StreamId(1), StreamId(0), StreamId(2)]);
    }

    #[test]
    fn ties_break_by_id() {
        let space = RankSpace::Knn { q: 0.0 };
        // ids 0 and 1 both at distance 10 (values -10 and 10).
        let order = rank_values(space, vals(&[-10.0, 10.0, 1.0]));
        assert_eq!(order, vec![StreamId(2), StreamId(0), StreamId(1)]);
    }

    #[test]
    fn rank_of_is_one_based() {
        let space = RankSpace::TopK;
        let v = vals(&[5.0, 9.0, 1.0]);
        assert_eq!(rank_of(space, v.clone(), StreamId(1)), Some(1));
        assert_eq!(rank_of(space, v.clone(), StreamId(2)), Some(3));
        assert_eq!(rank_of(space, v, StreamId(9)), None);
    }

    #[test]
    fn midpoint_threshold_between_ranks() {
        let space = RankSpace::Knn { q: 0.0 };
        // distances: 1, 2, 4, 8
        let v = vals(&[1.0, -2.0, 4.0, -8.0]);
        assert_eq!(midpoint_threshold(space, v.clone(), 1), 1.5);
        assert_eq!(midpoint_threshold(space, v.clone(), 2), 3.0);
        assert_eq!(midpoint_threshold(space, v, 3), 6.0);
    }

    #[test]
    fn midpoint_separates_the_ranks() {
        // The RTP invariant: exactly m streams lie inside ball(midpoint).
        let space = RankSpace::TopK;
        let values = vals(&[10.0, 50.0, 30.0, 20.0, 40.0]);
        for m in 1..5 {
            let d = midpoint_threshold(space, values.clone(), m);
            let inside = values.iter().filter(|&&(_, v)| space.in_ball(v, d)).count();
            assert_eq!(inside, m, "m={m}");
        }
    }

    #[test]
    #[should_panic(expected = "needs more than")]
    fn midpoint_requires_enough_streams() {
        midpoint_threshold(RankSpace::TopK, vals(&[1.0, 2.0]), 2);
    }

    #[test]
    fn rank_view_requires_full_knowledge() {
        let mut view = ServerView::new(2);
        view.set(StreamId(0), 1.0);
        let r = std::panic::catch_unwind(|| rank_view(RankSpace::TopK, &view));
        assert!(r.is_err());
        view.set(StreamId(1), 5.0);
        assert_eq!(rank_view(RankSpace::TopK, &view), vec![StreamId(1), StreamId(0)]);
    }

    fn filled_index(space: RankSpace, values: &[f64]) -> RankIndex {
        let mut index = RankIndex::new(space, values.len());
        for (i, &v) in values.iter().enumerate() {
            index.insert(StreamId(i as u32), v);
        }
        index
    }

    #[test]
    fn index_matches_sort_order() {
        let space = RankSpace::Knn { q: 100.0 };
        let values = [90.0, 150.0, 105.0, 300.0, 100.0];
        let index = filled_index(space, &values);
        assert_eq!(index.len(), 5);
        assert_eq!(index.ordered_ids(), rank_values(space, vals(&values)));
        assert_eq!(index.top_ids(2), rank_values(space, vals(&values))[..2].to_vec());
    }

    #[test]
    fn index_rank_of_and_select_agree() {
        let space = RankSpace::TopK;
        let values = [5.0, 9.0, 1.0, 9.0, 5.0]; // ties on purpose
        let index = filled_index(space, &values);
        let order = rank_values(space, vals(&values));
        for (pos, &id) in order.iter().enumerate() {
            assert_eq!(index.rank_of(id), Some(pos + 1));
            assert_eq!(index.select(pos + 1).1, id);
        }
        assert_eq!(
            index.rank_of(StreamId(4)),
            Some(order.iter().position(|&s| s.0 == 4).unwrap() + 1)
        );
    }

    #[test]
    fn index_update_rekeys() {
        let space = RankSpace::KMin;
        let mut index = filled_index(space, &[10.0, 20.0, 30.0]);
        index.update(StreamId(2), 5.0);
        assert_eq!(index.ordered_ids(), vec![StreamId(2), StreamId(0), StreamId(1)]);
        assert_eq!(index.key_of(StreamId(2)), Some(5.0));
        index.remove(StreamId(0));
        assert_eq!(index.len(), 2);
        assert_eq!(index.rank_of(StreamId(0)), None);
        assert!(!index.contains(StreamId(0)));
        // update inserts absent streams.
        index.update(StreamId(0), 1.0);
        assert_eq!(index.ordered_ids(), vec![StreamId(0), StreamId(2), StreamId(1)]);
    }

    #[test]
    fn index_midpoint_matches_sort_midpoint() {
        let space = RankSpace::Knn { q: 0.0 };
        let values = [1.0, -2.0, 4.0, -8.0];
        let index = filled_index(space, &values);
        for m in 1..4 {
            assert_eq!(index.midpoint(m), midpoint_threshold(space, vals(&values), m), "m={m}");
        }
    }

    #[test]
    fn index_count_in_ball() {
        let space = RankSpace::Knn { q: 0.0 };
        let index = filled_index(space, &[1.0, -2.0, 4.0, -8.0, 2.0]); // keys 1,2,4,8,2
        assert_eq!(index.count_in_ball(0.5), 0);
        assert_eq!(index.count_in_ball(1.0), 1);
        assert_eq!(index.count_in_ball(2.0), 3, "both key-2 entries count");
        assert_eq!(index.count_in_ball(100.0), 5);
    }

    #[test]
    fn index_rebuild_from_view() {
        let mut view = ServerView::new(3);
        for (i, v) in [30.0, 10.0, 20.0].iter().enumerate() {
            view.set(StreamId(i as u32), *v);
        }
        let mut index = RankIndex::new(RankSpace::TopK, 3);
        index.insert(StreamId(1), 999.0); // stale entry, wiped by rebuild
        index.rebuild_from_view(&view);
        assert_eq!(index.ordered_ids(), rank_view(RankSpace::TopK, &view));
    }

    #[test]
    fn bulk_build_matches_incremental_inserts() {
        let space = RankSpace::Knn { q: 50.0 };
        // Ties on purpose: 40 and 60 both at distance 10.
        let values = [40.0, 60.0, 50.0, 10.0, 90.0, 50.0];
        let incremental = filled_index(space, &values);
        let mut bulk = RankIndex::new(space, values.len());
        bulk.insert(StreamId(0), 777.0); // stale entry, wiped by the build
        bulk.bulk_build(values.iter().enumerate().map(|(i, &v)| (StreamId(i as u32), v)));
        assert_eq!(bulk.len(), incremental.len());
        assert_eq!(bulk.ordered_pairs(), incremental.ordered_pairs());
        for (i, &v) in values.iter().enumerate() {
            let id = StreamId(i as u32);
            assert_eq!(bulk.rank_of(id), incremental.rank_of(id));
            assert_eq!(bulk.key_of(id), Some(space.key(v)));
        }
        for m in 1..=values.len() {
            assert_eq!(bulk.select(m), incremental.select(m), "select {m}");
        }
    }

    #[test]
    fn bulk_build_of_nothing_is_empty() {
        let mut index = RankIndex::new(RankSpace::TopK, 4);
        index.insert(StreamId(1), 5.0);
        index.bulk_build(std::iter::empty());
        assert!(index.is_empty());
        assert_eq!(index.rank_of(StreamId(1)), None);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn bulk_build_rejects_duplicate_ids() {
        let mut index = RankIndex::new(RankSpace::TopK, 2);
        index.bulk_build([(StreamId(0), 1.0), (StreamId(0), 2.0)]);
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn index_double_insert_panics() {
        let mut index = RankIndex::new(RankSpace::TopK, 2);
        index.insert(StreamId(0), 1.0);
        index.insert(StreamId(0), 2.0);
    }

    #[test]
    #[should_panic(expected = "needs more than")]
    fn index_midpoint_requires_enough_streams() {
        let index = filled_index(RankSpace::TopK, &[1.0, 2.0]);
        index.midpoint(2);
    }

    fn filled_forest(space: RankSpace, values: &[f64], parts: usize) -> RankForest {
        let mut forest = RankForest::new(space, values.len(), parts);
        for (i, &v) in values.iter().enumerate() {
            forest.update(StreamId(i as u32), v);
        }
        forest
    }

    #[test]
    fn forest_agrees_with_sorted_reference() {
        let space = RankSpace::Knn { q: 50.0 };
        let values = [10.0, 90.0, 50.0, 49.0, 51.0, 90.0];
        let pairs = vals(&values);
        let order = rank_values(space, pairs.iter().copied());
        let keyed: Vec<(f64, StreamId)> =
            order.iter().map(|&id| (space.key(values[id.0 as usize]), id)).collect();
        for parts in [1usize, 3] {
            let forest = filled_forest(space, &values, parts);
            assert_eq!(forest.len(), values.len());
            assert_eq!(forest.ordered_ids(), order, "parts {parts}");
            assert_eq!(forest.top_pairs(values.len()), keyed, "parts {parts}");
            for m in 1..values.len() {
                assert_eq!(forest.select(m), keyed[m - 1], "select {m} parts {parts}");
                assert_eq!(
                    forest.midpoint(m).to_bits(),
                    midpoint_threshold(space, pairs.iter().copied(), m).to_bits(),
                    "midpoint {m} parts {parts}"
                );
                assert_eq!(forest.top_ids(m), order[..m], "top {m} parts {parts}");
            }
            for &(id, _) in &pairs {
                assert_eq!(
                    forest.rank_of(id),
                    rank_of(space, pairs.iter().copied(), id),
                    "rank_of {id} parts {parts}"
                );
            }
        }
    }

    #[test]
    fn forest_part_counts_are_byte_identical() {
        // Ties across parts on purpose: 40 and 60 both at distance 10 from
        // q = 50, landing in different strided partitions.
        let space = RankSpace::Knn { q: 50.0 };
        let values = [40.0, 60.0, 50.0, 10.0, 90.0, 50.0, 45.0, 55.0, 70.0];
        let single = filled_forest(space, &values, 1);
        for parts in [2usize, 3, 4, 9] {
            let forest = filled_forest(space, &values, parts);
            assert_eq!(forest.ordered_pairs(), single.ordered_pairs(), "parts {parts}");
            assert_eq!(forest.count_in_ball(10.0), single.count_in_ball(10.0), "parts {parts}");
            for (i, _) in values.iter().enumerate() {
                let id = StreamId(i as u32);
                assert_eq!(forest.rank_of(id), single.rank_of(id), "rank_of {id} parts {parts}");
                assert_eq!(forest.key_of(id), single.key_of(id));
            }
            for m in 1..=values.len() {
                assert_eq!(forest.select(m), single.select(m), "select {m} parts {parts}");
            }
        }
    }

    #[test]
    fn forest_refresh_from_changed_equals_rebuild() {
        let space = RankSpace::KMin;
        let n = 64;
        let mut view = ServerView::new(n);
        for i in 0..n {
            view.set(StreamId(i as u32), (i * 37 % 100) as f64);
        }
        let mut forest = RankForest::new(space, n, 4);
        forest.rebuild_from_view(&view);
        assert!(forest.is_fully_populated());
        // Drift a strided spread of streams, including ties.
        let changed: Vec<StreamId> = (0..n).step_by(5).map(|i| StreamId(i as u32)).collect();
        for &id in &changed {
            view.set(id, (id.0 * 13 % 50) as f64);
        }
        forest.refresh_from_changed(&view, &changed);
        let mut rebuilt = RankForest::new(space, n, 4);
        rebuilt.rebuild_from_view(&view);
        assert_eq!(forest.ordered_pairs(), rebuilt.ordered_pairs());
    }
}
