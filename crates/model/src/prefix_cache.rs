//! Radix-tree prefix KV cache: copy-on-write reuse of prompt KV state
//! across requests.
//!
//! Every Wisdom prompt is built from a shared scaffold — the
//! `- name: <NL>` completion format plus, for the context-carrying
//! generation types, a playbook/task context repeated verbatim across many
//! requests. Re-prefilling those shared prefixes is pure waste: a K/V row
//! at position `t` depends only on tokens `0..=t`, so two prompts that
//! share a prefix share the prefix's K/V rows *exactly*.
//!
//! [`PrefixKvCache`] exploits that with a radix tree (compressed trie)
//! keyed by token sequences. Each edge owns an immutable [`Segment`]: the
//! edge's token run plus the per-layer K/V rows those positions produced.
//! [`PrefixKvCache::lookup`] walks the tree and returns the longest cached
//! prefix of an incoming window; [`PrefixKvCache::prefill`] splices those
//! rows into a fresh [`KvCache`] and runs
//! [`TransformerLm::prefill_continue`] over the *suffix only*.
//!
//! Copy-on-write discipline: segments are shared as `Arc<Segment>` and
//! never mutated — splicing copies rows out into the request's private
//! cache, and decode appends only to that private cache, so concurrent
//! readers and later evictions can never corrupt an in-flight sequence.
//!
//! Eviction is byte-budget LRU, leaf-first (an inner node's rows are a
//! prefix of its children's, so leaves always go first), and pin-aware: a
//! segment also held outside the tree — by a [`CachedPrefix`] being
//! spliced or a [`PrefixPin`] owned by an in-flight sequence — is pinned
//! and skipped. When everything over budget is pinned, eviction stops
//! rather than stall admission; the budget is re-enforced on the next
//! insert.
//!
//! Bookkeeping costs what the request touches, never what the tree holds:
//! `bytes`, the segment count and the pinned bytes are counters kept at the
//! sites that change them, and the eviction order is an ordered set of the
//! unpinned leaves keyed by `(last_used, slot)`, updated whenever a node's
//! recency, children or pins change. No operation walks the slab.
//!
//! Position-exactness: cached rows bake in their absolute position (the
//! model adds `pos_emb` rows by index), and prefill always starts at
//! position 0 of the *left-truncated* generation window. Keying the tree
//! by that window means a prompt longer than the context window is
//! automatically re-keyed by its truncated tail — a truncated window never
//! matches the untruncated prefix of a shorter prompt byte-for-byte unless
//! the token runs (and therefore the positions) really are identical.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex, Weak};

use crate::telemetry::PrefixCacheTelemetry;
use crate::transformer::{KvCache, TransformerLm};

/// Sizing for a [`PrefixKvCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixCacheConfig {
    /// Byte budget for tree-owned K/V segments; eviction keeps the total at
    /// or under this (except for bytes pinned by in-flight sequences).
    pub max_bytes: usize,
}

impl Default for PrefixCacheConfig {
    fn default() -> Self {
        Self {
            max_bytes: 64 << 20,
        }
    }
}

/// Counters surfaced through `GET /v1/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Lookups that matched at least one cached token.
    pub hits: u64,
    /// Lookups that matched nothing.
    pub misses: u64,
    /// Total prompt tokens served from cache instead of recomputed.
    pub hit_tokens: u64,
    /// Segments discarded by LRU eviction.
    pub evicted_segments: u64,
    /// Bytes currently owned by the tree.
    pub bytes: usize,
    /// Segments currently in the tree.
    pub segments: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
}

/// One radix-tree edge's payload: an immutable token run and the per-layer
/// K/V rows those positions produced. Shared via `Arc`, never mutated.
#[derive(Debug)]
struct Segment {
    tokens: Vec<u32>,
    /// Row width (`d_model`).
    d: usize,
    /// Per-layer keys, `tokens.len() * d` floats each.
    k: Vec<Vec<f32>>,
    /// Per-layer values, same shape as `k`.
    v: Vec<Vec<f32>>,
}

impl Segment {
    fn rows(&self) -> usize {
        self.tokens.len()
    }

    /// Heap bytes owned by this segment (tokens + K/V floats).
    fn bytes(&self) -> usize {
        let floats: usize = self.k.iter().chain(self.v.iter()).map(Vec::len).sum();
        floats * std::mem::size_of::<f32>() + self.tokens.len() * std::mem::size_of::<u32>()
    }

    /// Rows `from..to` of `cache`, labeled with the matching `tokens` run.
    fn from_cache(cache: &KvCache, tokens: &[u32], from: usize, to: usize) -> Segment {
        let d = cache.d;
        let slice = |layers: &[Vec<f32>]| -> Vec<Vec<f32>> {
            layers
                .iter()
                .map(|layer| layer[from * d..to * d].to_vec())
                .collect()
        };
        Segment {
            tokens: tokens.to_vec(),
            d,
            k: slice(&cache.k),
            v: slice(&cache.v),
        }
    }

    /// Rows `from..to` of this segment as a new segment.
    fn slice(&self, from: usize, to: usize) -> Segment {
        let d = self.d;
        let slice = |layers: &[Vec<f32>]| -> Vec<Vec<f32>> {
            layers
                .iter()
                .map(|layer| layer[from * d..to * d].to_vec())
                .collect()
        };
        Segment {
            tokens: self.tokens[from..to].to_vec(),
            d,
            k: slice(&self.k),
            v: slice(&self.v),
        }
    }
}

/// References into the tree held outside it: each entry is the slot a
/// segment was taken from and the segment itself. A slot whose node still
/// carries that very segment is pinned by the entry; one whose node was
/// split or evicted since (the segment is then an orphaned copy) is not.
#[derive(Default)]
struct Pins {
    held: Vec<(NodeId, Arc<Segment>)>,
    /// The tree to account the release against; dangling for the empty
    /// pin of a cache-less admission.
    core: Weak<Core>,
}

impl Pins {
    /// Gives the references back, then evicts down to the budget when
    /// `evict` is set. Runs from `Drop`, so it never panics: a cache that
    /// is gone or poisoned has no accounting left to keep.
    fn release(&mut self, evict: bool) {
        if self.held.is_empty() {
            return;
        }
        let held = std::mem::take(&mut self.held);
        let Some(core) = self.core.upgrade() else {
            return;
        };
        let Ok(mut inner) = core.inner.lock() else {
            return;
        };
        for (id, seg) in &held {
            inner.unpin(*id, seg);
        }
        if evict {
            inner.evict_to_budget(core.max_bytes);
        }
        inner.publish_gauges();
    }
}

/// The longest cached prefix of a looked-up window: a run of segments (the
/// last possibly used only partially) totalling [`CachedPrefix::len`]
/// tokens. Holding this pins the segments against eviction.
pub struct CachedPrefix {
    /// The segments along the tree path.
    pins: Pins,
    /// Rows used of each segment in `pins`.
    rows: Vec<usize>,
    len: usize,
}

impl CachedPrefix {
    /// Number of prompt tokens this prefix covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the prefix covers no tokens (lookup never returns this).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the cached rows into `cache` (which must be empty): the
    /// copy-on-write read side. The tree's segments stay untouched; the
    /// request's decode appends only to its private `cache`.
    pub(crate) fn splice_into(&self, cache: &mut KvCache) {
        debug_assert!(cache.is_empty(), "splice target must be fresh");
        for ((_, seg), rows) in self.pins.held.iter().zip(&self.rows) {
            debug_assert_eq!(seg.k.len(), cache.k.len(), "layer count");
            let d = seg.d;
            for (dst, src) in cache.k.iter_mut().zip(seg.k.iter()) {
                dst.extend_from_slice(&src[..rows * d]);
            }
            for (dst, src) in cache.v.iter_mut().zip(seg.v.iter()) {
                dst.extend_from_slice(&src[..rows * d]);
            }
        }
    }
}

impl Drop for CachedPrefix {
    fn drop(&mut self) {
        // Unpins only: the budget is enforced by inserts and by the pins
        // of retiring sequences, never by a reader letting go.
        self.pins.release(false);
    }
}

impl fmt::Debug for CachedPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CachedPrefix")
            .field("len", &self.len)
            .field("segments", &self.pins.held.len())
            .finish()
    }
}

/// Pins the tree segments backing one in-flight sequence: while this is
/// alive, eviction skips them. Dropping the pin — when the sequence
/// retires — releases the segments and re-runs eviction, so bytes parked
/// over budget by pinned admissions are reclaimed as soon as the pins go
/// away.
#[derive(Default)]
pub struct PrefixPin {
    pins: Pins,
}

impl Drop for PrefixPin {
    fn drop(&mut self) {
        // Released *before* evicting, so the segments this pin protected
        // become candidates.
        self.pins.release(true);
    }
}

impl fmt::Debug for PrefixPin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrefixPin")
            .field("segments", &self.pins.held.len())
            .finish()
    }
}

/// Slab index of a live radix-tree node.
type NodeId = usize;

const ROOT: NodeId = 0;

struct Node {
    seg: Arc<Segment>,
    parent: NodeId,
    /// Child edges keyed by their first token (edges of one node never
    /// share a first token, so one lookup step is one map probe).
    children: BTreeMap<u32, NodeId>,
    /// Logical LRU clock value of the last lookup/insert touching this
    /// node's path.
    last_used: u64,
    /// Live [`CachedPrefix`] / [`PrefixPin`] references to `seg` itself
    /// (a split replaces `seg` and starts again from zero).
    pins: usize,
}

impl Node {
    /// Whether eviction may take this node, stored in slot `id`.
    fn evictable(&self, id: NodeId) -> bool {
        id != ROOT && self.children.is_empty() && self.pins == 0
    }
}

struct Inner {
    /// Slab of nodes; `None` entries are free slots. `nodes[ROOT]` is the
    /// empty-segment root and is never evicted.
    nodes: Vec<Option<Node>>,
    free: Vec<NodeId>,
    /// Bytes owned by tree segments (pinned copies held by readers after a
    /// split/evict are the readers' responsibility, not the tree's).
    bytes: usize,
    /// Live nodes other than the root.
    segments: usize,
    /// Bytes of the segments with at least one pin.
    pinned_bytes: usize,
    /// Eviction order: `(last_used, slot)` of exactly the evictable nodes.
    /// Every change to a node's recency, children or pins goes through
    /// [`Inner::update`], which keeps this in step.
    lru: BTreeSet<(u64, NodeId)>,
    /// Logical LRU clock, bumped per lookup/insert.
    tick: u64,
    hits: u64,
    misses: u64,
    hit_tokens: u64,
    evicted_segments: u64,
    /// Registry handles mirroring the counters above; updated at the same
    /// sites, under the same lock. `None` until the server attaches them.
    telemetry: Option<PrefixCacheTelemetry>,
    /// Slab slots read or written so far: what the work-bound test counts.
    #[cfg(test)]
    visits: std::cell::Cell<u64>,
}

impl Inner {
    fn visit(&self) {
        #[cfg(test)]
        self.visits.set(self.visits.get() + 1);
    }

    fn node(&self, id: NodeId) -> &Node {
        self.visit();
        self.nodes[id].as_ref().expect("live node")
    }

    /// Applies `change` to node `id`, moving it into, out of or within the
    /// eviction order as the change demands.
    fn update<R>(&mut self, id: NodeId, change: impl FnOnce(&mut Node) -> R) -> R {
        self.visit();
        let node = self.nodes[id].as_mut().expect("live node");
        if node.evictable(id) {
            self.lru.remove(&(node.last_used, id));
        }
        let out = change(node);
        if node.evictable(id) {
            self.lru.insert((node.last_used, id));
        }
        out
    }

    /// Stores `node`, which the caller has yet to link to its parent.
    fn alloc(&mut self, node: Node) -> NodeId {
        self.visit();
        self.segments += 1;
        if let Some(id) = self.free.pop() {
            self.nodes[id] = Some(node);
            id
        } else {
            self.nodes.push(Some(node));
            self.nodes.len() - 1
        }
    }

    /// Takes one more reference to `id`'s segment for a holder outside
    /// the tree, and marks the node used at `tick`.
    fn pin(&mut self, id: NodeId, tick: u64) -> Arc<Segment> {
        let (seg, pins) = self.update(id, |node| {
            node.last_used = tick;
            node.pins += 1;
            (Arc::clone(&node.seg), node.pins)
        });
        if pins == 1 {
            self.pinned_bytes += seg.bytes();
        }
        seg
    }

    /// Gives back a reference [`Inner::pin`] handed out. A node that was
    /// split or evicted since no longer carries `seg` (the slot may even
    /// hold another node by now); the holder's copy pinned nothing then.
    fn unpin(&mut self, id: NodeId, seg: &Arc<Segment>) {
        self.visit();
        let carried = self
            .nodes
            .get(id)
            .and_then(Option::as_ref)
            .is_some_and(|node| Arc::ptr_eq(&node.seg, seg));
        if !carried {
            return;
        }
        let pins = self.update(id, |node| {
            node.pins -= 1;
            node.pins
        });
        if pins == 0 {
            self.pinned_bytes -= seg.bytes();
        }
    }

    /// Splits `id`'s edge after `at` rows: `id` keeps the upper `at` rows
    /// and gains a single child holding the remainder (and `id`'s former
    /// children). Readers holding the old `Arc<Segment>` keep a valid
    /// (now untracked) copy — copy-on-write at the tree-structure level —
    /// so neither half starts out pinned. Both halves are used at `tick`:
    /// the walk that splits a node has just reached it.
    fn split(&mut self, id: NodeId, at: usize, tick: u64) {
        let node = self.node(id);
        debug_assert!(0 < at && at < node.seg.rows(), "split strictly inside");
        let upper = Arc::new(node.seg.slice(0, at));
        let lower = Arc::new(node.seg.slice(at, node.seg.rows()));
        let old_bytes = node.seg.bytes();
        self.bytes += upper.bytes() + lower.bytes();
        self.bytes -= old_bytes;
        let lower_first = lower.tokens[0];
        let lower_id = self.alloc(Node {
            seg: lower,
            parent: id,
            children: BTreeMap::new(),
            last_used: tick,
            pins: 0,
        });
        let (moved, was_pinned) = self.update(id, |node| {
            node.seg = upper;
            node.last_used = tick;
            let moved = std::mem::replace(
                &mut node.children,
                BTreeMap::from([(lower_first, lower_id)]),
            );
            (moved, std::mem::take(&mut node.pins) > 0)
        });
        if was_pinned {
            self.pinned_bytes -= old_bytes;
        }
        for &child in moved.values() {
            self.visit();
            self.nodes[child].as_mut().expect("live node").parent = lower_id;
        }
        self.update(lower_id, |lower| lower.children = moved);
    }

    /// Evicts least-recently-used unpinned leaves (ties to the lower slot)
    /// until `bytes <= budget` or nothing evictable remains (everything
    /// left is pinned).
    fn evict_to_budget(&mut self, budget: usize) {
        while self.bytes > budget {
            let Some((_, id)) = self.lru.pop_first() else {
                break;
            };
            self.visit();
            let node = self.nodes[id].take().expect("victim is live");
            self.free.push(id);
            self.bytes -= node.seg.bytes();
            self.segments -= 1;
            self.evicted_segments += 1;
            if let Some(t) = &self.telemetry {
                t.evicted_segments.inc();
            }
            let first = node.seg.tokens[0];
            self.update(node.parent, |parent| parent.children.remove(&first));
        }
    }

    /// Republishes the tree-shape gauges (bytes, segment count, pinned
    /// bytes) into the registry handles. Called under the cache lock after
    /// any mutation that can change them.
    fn publish_gauges(&self) {
        let Some(t) = &self.telemetry else { return };
        t.bytes.set(self.bytes as f64);
        t.segments.set(self.segments as f64);
        t.pinned_bytes.set(self.pinned_bytes as f64);
    }
}

/// The lock-guarded tree plus its budget, shared between the cache handle
/// and the weak back-references held by pins.
struct Core {
    inner: Mutex<Inner>,
    max_bytes: usize,
}

/// A shared, byte-bounded radix-tree cache of prompt-prefix KV state.
///
/// Thread-safe: one mutex guards the tree (admission is effectively
/// single-threaded through the scheduler worker; the lock exists so the
/// stats endpoint and tests can read concurrently).
pub struct PrefixKvCache {
    core: Arc<Core>,
}

impl fmt::Debug for PrefixKvCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PrefixKvCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for PrefixKvCache {
    fn default() -> Self {
        Self::new(PrefixCacheConfig::default())
    }
}

impl PrefixKvCache {
    /// An empty cache with the given sizing.
    pub fn new(cfg: PrefixCacheConfig) -> Self {
        let root = Node {
            seg: Arc::new(Segment {
                tokens: Vec::new(),
                d: 0,
                k: Vec::new(),
                v: Vec::new(),
            }),
            parent: ROOT,
            children: BTreeMap::new(),
            last_used: 0,
            pins: 0,
        };
        Self {
            core: Arc::new(Core {
                inner: Mutex::new(Inner {
                    nodes: vec![Some(root)],
                    free: Vec::new(),
                    bytes: 0,
                    segments: 0,
                    pinned_bytes: 0,
                    lru: BTreeSet::new(),
                    tick: 0,
                    hits: 0,
                    misses: 0,
                    hit_tokens: 0,
                    evicted_segments: 0,
                    telemetry: None,
                    #[cfg(test)]
                    visits: std::cell::Cell::new(0),
                }),
                max_bytes: cfg.max_bytes.max(1),
            }),
        }
    }

    /// An empty cache bounded to `max_bytes` of K/V segments.
    pub fn with_budget(max_bytes: usize) -> Self {
        Self::new(PrefixCacheConfig { max_bytes })
    }

    /// Attaches registry handles: every hit/miss/eviction from here on is
    /// mirrored into `telemetry` (under the cache lock, at the same sites
    /// as the internal counters), and the shape gauges are published after
    /// every insert and every release of a prefix or a pin.
    pub fn set_telemetry(&self, telemetry: PrefixCacheTelemetry) {
        let mut inner = self.core.inner.lock().expect("prefix cache lock");
        telemetry.budget_bytes.set(self.core.max_bytes as f64);
        inner.telemetry = Some(telemetry);
        inner.publish_gauges();
    }

    /// Current counters.
    pub fn stats(&self) -> PrefixCacheStats {
        let inner = self.core.inner.lock().expect("prefix cache lock");
        PrefixCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            hit_tokens: inner.hit_tokens,
            evicted_segments: inner.evicted_segments,
            bytes: inner.bytes,
            segments: inner.segments,
            budget_bytes: self.core.max_bytes,
        }
    }

    /// The longest cached prefix of `window`, at most `max_tokens` long
    /// (callers cap at `window.len() - 1` so the final position — whose
    /// logits are not cached — is always recomputed). Returns `None` on a
    /// zero-length match; counts a hit or miss either way.
    pub fn lookup(&self, window: &[u32], max_tokens: usize) -> Option<CachedPrefix> {
        let mut inner = self.core.inner.lock().expect("prefix cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let budget = max_tokens.min(window.len());
        let mut node_id = ROOT;
        let mut matched = 0usize;
        let mut held: Vec<(NodeId, Arc<Segment>)> = Vec::new();
        let mut rows: Vec<usize> = Vec::new();
        while matched < budget {
            let Some(&child) = inner.node(node_id).children.get(&window[matched]) else {
                break;
            };
            let seg = inner.pin(child, tick);
            let rest = &window[matched..];
            let take = seg
                .tokens
                .iter()
                .zip(rest.iter())
                .take_while(|(a, b)| a == b)
                .count()
                .min(budget - matched);
            debug_assert!(take >= 1, "child keyed by first token");
            matched += take;
            let whole = take == seg.rows();
            held.push((child, seg));
            rows.push(take);
            if !whole {
                break;
            }
            node_id = child;
        }
        if matched == 0 {
            inner.misses += 1;
            if let Some(t) = &inner.telemetry {
                t.misses.inc();
            }
            return None;
        }
        inner.hits += 1;
        inner.hit_tokens += matched as u64;
        if let Some(t) = &inner.telemetry {
            t.hits.inc();
            t.hit_tokens.add(matched as u64);
        }
        inner.publish_gauges();
        Some(CachedPrefix {
            pins: Pins {
                held,
                core: Arc::downgrade(&self.core),
            },
            rows,
            len: matched,
        })
    }

    /// The number of leading `window` tokens currently resident in the
    /// tree, without disturbing anything: no hit/miss counters, no LRU
    /// touch, no pinning. This is the cached-prefix summary a multi-replica
    /// router consults when scoring replicas for prefix affinity — a probe
    /// must not advertise itself as reuse (that would inflate the hit rate)
    /// nor refresh recency (that would let routing queries keep segments
    /// alive that no admission ever splices).
    pub fn probe(&self, window: &[u32]) -> usize {
        let inner = self.core.inner.lock().expect("prefix cache lock");
        let mut node_id = ROOT;
        let mut matched = 0usize;
        while matched < window.len() {
            let Some(&child) = inner.node(node_id).children.get(&window[matched]) else {
                break;
            };
            let node = inner.node(child);
            let rest = &window[matched..];
            let take = node
                .seg
                .tokens
                .iter()
                .zip(rest.iter())
                .take_while(|(a, b)| a == b)
                .count();
            matched += take;
            if take < node.seg.rows() {
                break;
            }
            node_id = child;
        }
        matched
    }

    /// Records `window`'s K/V rows (taken from `cache`, which must hold at
    /// least `window.len()` positions) in the tree, sharing existing
    /// segments and splitting edges where the window diverges mid-edge.
    /// Returns a [`PrefixPin`] holding every segment on the window's path —
    /// the caller keeps it alive for the sequence's lifetime so eviction
    /// cannot drop state backing an in-flight decode. Evicts down to the
    /// byte budget before returning.
    pub fn insert(&self, window: &[u32], cache: &KvCache) -> PrefixPin {
        debug_assert!(cache.len() >= window.len(), "cache covers the window");
        if window.is_empty() {
            return PrefixPin::default();
        }
        let mut held: Vec<(NodeId, Arc<Segment>)> = Vec::new();
        let mut inner = self.core.inner.lock().expect("prefix cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let mut node_id = ROOT;
        let mut matched = 0usize;
        while matched < window.len() {
            match inner.node(node_id).children.get(&window[matched]).copied() {
                None => {
                    // New leaf for the whole remainder.
                    let seg = Arc::new(Segment::from_cache(
                        cache,
                        &window[matched..],
                        matched,
                        window.len(),
                    ));
                    inner.bytes += seg.bytes();
                    inner.pinned_bytes += seg.bytes();
                    let first = window[matched];
                    // Born pinned by the pin being built.
                    let leaf = inner.alloc(Node {
                        seg: Arc::clone(&seg),
                        parent: node_id,
                        children: BTreeMap::new(),
                        last_used: tick,
                        pins: 1,
                    });
                    held.push((leaf, seg));
                    inner.update(node_id, |parent| parent.children.insert(first, leaf));
                    matched = window.len();
                }
                Some(child) => {
                    let node = inner.node(child);
                    let rest = &window[matched..];
                    let lcp = node
                        .seg
                        .tokens
                        .iter()
                        .zip(rest.iter())
                        .take_while(|(a, b)| a == b)
                        .count();
                    if lcp < node.seg.rows() && matched + lcp < window.len() {
                        // Diverges mid-edge with more window to attach:
                        // split so the shared part becomes its own node.
                        inner.split(child, lcp, tick);
                    }
                    let seg = inner.pin(child, tick);
                    matched += lcp.min(seg.rows());
                    held.push((child, seg));
                    if matched == window.len() || lcp == 0 {
                        // Fully consumed (possibly mid-edge: the edge's
                        // extra rows extend beyond the window, no split
                        // needed) — or an impossible zero match, guarded
                        // against looping.
                        debug_assert!(lcp > 0, "child keyed by first token");
                        break;
                    }
                    node_id = child;
                }
            }
        }
        inner.evict_to_budget(self.core.max_bytes);
        inner.publish_gauges();
        PrefixPin {
            pins: Pins {
                held,
                core: Arc::downgrade(&self.core),
            },
        }
    }

    /// Cache-accelerated prefill: splices the longest cached prefix of
    /// `window` into a fresh [`KvCache`], runs
    /// [`TransformerLm::prefill_continue`] over the remaining suffix only,
    /// and records the full window back into the tree.
    ///
    /// Returns `(cache, final-position logits, pin)`. The caller holds the
    /// pin for the sequence's lifetime. Output is bit-identical to
    /// `model.prefill(window)` for any cache state: cached rows are exact
    /// copies of what the full pass would have produced at those positions.
    ///
    /// # Panics
    ///
    /// Panics if `window` exceeds the model's context window or contains an
    /// out-of-vocabulary token (as [`TransformerLm::prefill`] would).
    pub fn prefill(&self, model: &TransformerLm, window: &[u32]) -> (KvCache, Vec<f32>, PrefixPin) {
        if window.is_empty() {
            let (cache, logits) = model.prefill(window);
            return (cache, logits, PrefixPin::default());
        }
        // The final position's logits are not cached, so always leave at
        // least one suffix token for the live pass to evaluate.
        let hit = self.lookup(window, window.len() - 1);
        let mut cache = KvCache::new(model);
        let matched = hit.as_ref().map_or(0, CachedPrefix::len);
        if let Some(prefix) = &hit {
            prefix.splice_into(&mut cache);
        }
        let logits = model.prefill_continue(&window[matched..], &mut cache);
        drop(hit);
        let pin = self.insert(window, &cache);
        (cache, logits, pin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use wisdom_prng::Prng;

    fn tiny_model() -> TransformerLm {
        let cfg = ModelConfig {
            vocab_size: 20,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            context_window: 16,
        };
        let mut rng = Prng::seed_from_u64(7);
        TransformerLm::new(cfg, &mut rng)
    }

    #[test]
    fn lookup_on_empty_cache_misses() {
        let cache = PrefixKvCache::default();
        assert!(cache.lookup(&[1, 2, 3], 2).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
        assert_eq!(s.bytes, 0);
        assert_eq!(s.segments, 0);
    }

    #[test]
    fn insert_then_lookup_shares_prefix() {
        let model = tiny_model();
        let cache = PrefixKvCache::default();
        let window = [1u32, 2, 3, 4, 5];
        let (kv, _) = model.prefill(&window);
        let _pin = cache.insert(&window, &kv);
        assert_eq!(cache.stats().segments, 1);

        // Full prefix of a longer window.
        let hit = cache.lookup(&[1, 2, 3, 4, 5, 6, 7], 6).expect("hit");
        assert_eq!(hit.len(), 5);
        // Partial (mid-edge) prefix.
        let hit = cache.lookup(&[1, 2, 3, 9], 3).expect("hit");
        assert_eq!(hit.len(), 3);
        // Diverging first token misses.
        assert!(cache.lookup(&[2, 2, 3], 2).is_none());
    }

    #[test]
    fn probe_reports_resident_prefix_without_touching_stats() {
        let model = tiny_model();
        let cache = PrefixKvCache::default();
        let window = [1u32, 2, 3, 4, 5];
        let (kv, _) = model.prefill(&window);
        let _pin = cache.insert(&window, &kv);
        let before = cache.stats();

        // Full residency, mid-edge partial match, and a clean miss.
        assert_eq!(cache.probe(&[1, 2, 3, 4, 5, 6, 7]), 5);
        assert_eq!(cache.probe(&[1, 2, 3, 9]), 3);
        assert_eq!(cache.probe(&[2, 2, 3]), 0);
        assert_eq!(cache.probe(&[]), 0);

        // Probing is invisible: no hit/miss movement, no byte churn.
        let after = cache.stats();
        assert_eq!(
            (before.hits, before.misses, before.hit_tokens, before.bytes),
            (after.hits, after.misses, after.hit_tokens, after.bytes)
        );
    }

    #[test]
    fn insert_splits_edges_and_preserves_rows() {
        let model = tiny_model();
        let cache = PrefixKvCache::default();
        let a = [1u32, 2, 3, 4, 5, 6];
        let b = [1u32, 2, 3, 9, 9];
        let (kv_a, _) = model.prefill(&a);
        let (kv_b, _) = model.prefill(&b);
        let _pa = cache.insert(&a, &kv_a);
        let _pb = cache.insert(&b, &kv_b);
        // Shared [1,2,3] node plus two divergent tails.
        assert_eq!(cache.stats().segments, 3);
        // Both windows still fully resolvable, and spliced rows match the
        // cold prefill bit-for-bit.
        for (w, kv) in [(&a[..], &kv_a), (&b[..], &kv_b)] {
            let hit = cache.lookup(w, w.len()).expect("hit");
            assert_eq!(hit.len(), w.len());
            let mut spliced = KvCache::new(&model);
            hit.splice_into(&mut spliced);
            assert_eq!(spliced.len(), w.len());
            for l in 0..spliced.k.len() {
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&spliced.k[l]), bits(&kv.k[l]), "layer {l} keys");
                assert_eq!(bits(&spliced.v[l]), bits(&kv.v[l]), "layer {l} values");
            }
        }
    }

    #[test]
    fn eviction_respects_budget_and_skips_pinned() {
        let model = tiny_model();
        let (kv, _) = model.prefill(&[1, 2, 3, 4]);
        let one_window = Segment::from_cache(&kv, &[1, 2, 3, 4], 0, 4).bytes();
        // Budget fits roughly two windows.
        let cache = PrefixKvCache::with_budget(2 * one_window + one_window / 2);

        // Hold a pin on the first window; it must survive any pressure.
        let (_kv1, _lg1, pin) = cache.prefill(&model, &[1, 2, 3, 4]);
        for start in 10u32..16 {
            let w = [start, start + 1, 2, 3];
            let (kv, _) = model.prefill(&w);
            drop(cache.insert(&w, &kv));
        }
        let s = cache.stats();
        assert!(s.evicted_segments > 0, "pressure must evict: {s:?}");
        assert!(
            s.bytes <= 2 * one_window + one_window / 2,
            "over budget: {s:?}"
        );
        let hit = cache.lookup(&[1, 2, 3, 4, 5], 4).expect("pinned survives");
        assert_eq!(hit.len(), 4);
        drop(pin);

        // Unpinned now: enough pressure evicts it too.
        for start in 10u32..16 {
            let w = [start, start + 1, 2, 3, 4, 5];
            let (kv, _) = model.prefill(&w);
            drop(cache.insert(&w, &kv));
        }
        assert!(cache.stats().bytes <= 2 * one_window + one_window / 2);
    }

    #[test]
    fn admission_work_is_independent_of_resident_segments() {
        let model = tiny_model();
        let (kv, _) = model.prefill(&[1, 2, 3, 4]);
        let one_window = Segment::from_cache(&kv, &[1, 2, 3, 4], 0, 4).bytes();
        // Slab slots touched by two admissions against a cache exactly
        // full with `resident` single-segment windows: a cold one (miss,
        // new leaf, one victim, pin released) and a warm one (hit on the
        // newest window's head, edge split, new leaf, victims, release).
        let visits = |resident: u32| {
            let cache = PrefixKvCache::with_budget(resident as usize * one_window);
            for tag in 0..resident {
                drop(cache.insert(&[100 + tag, 2, 3, 4], &kv));
            }
            let full = cache.stats();
            assert_eq!(
                (full.segments, full.evicted_segments),
                (resident as usize, 0)
            );
            let count = || cache.core.inner.lock().unwrap().visits.get();
            let before = count();
            assert!(cache.lookup(&[7, 2, 3, 4], 3).is_none());
            drop(cache.insert(&[7, 2, 3, 4], &kv));
            let warm = [100 + resident - 1, 2, 9, 9];
            assert_eq!(cache.lookup(&warm, 3).expect("head resident").len(), 2);
            drop(cache.insert(&warm, &kv));
            assert!(cache.stats().evicted_segments >= 2, "both admissions evict");
            count() - before
        };
        assert_eq!(visits(8), visits(8192));
    }

    #[test]
    fn telemetry_mirrors_internal_counters() {
        let registry = wisdom_telemetry::Registry::new();
        let telemetry = PrefixCacheTelemetry::register(&registry);
        let model = tiny_model();
        let (kv, _) = model.prefill(&[1, 2, 3, 4]);
        let one_window = Segment::from_cache(&kv, &[1, 2, 3, 4], 0, 4).bytes();
        let cache = PrefixKvCache::with_budget(2 * one_window + one_window / 2);
        cache.set_telemetry(telemetry.clone());
        assert!((telemetry.budget_bytes.get() - cache.stats().budget_bytes as f64).abs() < 0.5);

        // One miss, one insert, one hit — then eviction pressure.
        assert!(cache.lookup(&[1, 2, 3], 2).is_none());
        let (_kv, _lg, pin) = cache.prefill(&model, &[1, 2, 3, 4]);
        assert!(cache.lookup(&[1, 2, 3, 4, 5], 4).is_some());
        assert!(telemetry.pinned_bytes.get() > 0.0, "live pin shows up");
        drop(pin);
        for start in 10u32..16 {
            let w = [start, start + 1, 2, 3];
            let (kv, _) = model.prefill(&w);
            drop(cache.insert(&w, &kv));
        }

        let s = cache.stats();
        assert_eq!(telemetry.hits.get(), s.hits);
        assert_eq!(telemetry.misses.get(), s.misses);
        assert_eq!(telemetry.hit_tokens.get(), s.hit_tokens);
        assert_eq!(telemetry.evicted_segments.get(), s.evicted_segments);
        assert!(s.evicted_segments > 0, "pressure must evict: {s:?}");
        assert!((telemetry.bytes.get() - s.bytes as f64).abs() < 0.5);
        assert!((telemetry.segments.get() - s.segments as f64).abs() < 0.5);
        assert!(
            (telemetry.pinned_bytes.get() - 0.0).abs() < 0.5,
            "all pins released"
        );
    }

    #[test]
    fn prefill_via_cache_is_bit_identical() {
        let model = tiny_model();
        let cache = PrefixKvCache::default();
        let windows: Vec<Vec<u32>> = vec![
            vec![1, 2, 3, 4, 5, 6],
            vec![1, 2, 3, 4, 9, 9],
            vec![1, 2, 3],
            vec![1, 2, 3, 4, 5, 6, 7, 8],
            vec![],
            vec![4],
        ];
        for round in 0..2 {
            for w in &windows {
                let (kv_cold, lg_cold) = model.prefill(w);
                let (kv_warm, lg_warm, _pin) = cache.prefill(&model, w);
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&lg_cold), bits(&lg_warm), "round {round} window {w:?}");
                assert_eq!(kv_cold.len(), kv_warm.len());
                for l in 0..kv_cold.k.len() {
                    assert_eq!(bits(&kv_cold.k[l]), bits(&kv_warm.k[l]));
                    assert_eq!(bits(&kv_cold.v[l]), bits(&kv_warm.v[l]));
                }
            }
        }
        let s = cache.stats();
        assert!(s.hits > 0, "second round must hit: {s:?}");
    }
}
