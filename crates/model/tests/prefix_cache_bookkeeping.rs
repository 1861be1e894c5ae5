//! The prefix cache's incremental bookkeeping against a full recount.
//!
//! [`Oracle`] is the cache as it was before its counters and eviction
//! order became incremental: the same radix tree over token runs only
//! (no K/V rows), with `bytes`, the segment count and the pinned bytes
//! recounted by walking the slab, a reference count per segment standing
//! in for `Arc::strong_count`, and every eviction victim found by a full
//! scan for the smallest `(last_used, slot)` among the unpinned leaves.
//! Random insert / lookup / release traces over budgets small enough to
//! evict on most steps must leave the real cache and the oracle with the
//! same counters, the same gauges and the same resident prefix of every
//! window the trace used — the last is what pins the victim *sequence*:
//! a different victim leaves a different window short.

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use proptest::prelude::*;
use wisdom_model::{
    CachedPrefix, KvCache, ModelConfig, PrefixCacheTelemetry, PrefixKvCache, PrefixPin,
    TransformerLm,
};
use wisdom_prng::Prng;
use wisdom_telemetry::Registry;

const D_MODEL: usize = 16;
const N_LAYERS: usize = 2;
/// Longest window a trace uses.
const MAX_WINDOW: usize = 8;
/// Heap bytes one cached row owns: K and V floats per layer plus its token.
const ROW_BYTES: usize = 2 * N_LAYERS * D_MODEL * 4 + 4;

/// K/V rows to cut segments from. Their contents are irrelevant here: the
/// bookkeeping depends on token runs and row counts only.
fn rows() -> &'static KvCache {
    static ROWS: OnceLock<KvCache> = OnceLock::new();
    ROWS.get_or_init(|| {
        let cfg = ModelConfig {
            vocab_size: 20,
            d_model: D_MODEL,
            n_layers: N_LAYERS,
            n_heads: 2,
            context_window: MAX_WINDOW,
        };
        let model = TransformerLm::new(cfg, &mut Prng::seed_from_u64(3));
        model.prefill(&[1; MAX_WINDOW]).0
    })
}

const ROOT: usize = 0;

struct RefNode {
    tokens: Vec<u32>,
    /// Identity of the segment allocation; a split mints two new ones.
    arc: u64,
    parent: usize,
    children: BTreeMap<u32, usize>,
    last_used: u64,
}

#[derive(Default)]
struct Oracle {
    nodes: Vec<Option<RefNode>>,
    free: Vec<usize>,
    budget: usize,
    tick: u64,
    next_arc: u64,
    /// Holders outside the tree, per segment allocation.
    refs: HashMap<u64, usize>,
    hits: u64,
    misses: u64,
    hit_tokens: u64,
    evicted: u64,
}

fn lcp(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl Oracle {
    fn new(budget: usize) -> Oracle {
        let mut oracle = Oracle {
            budget: budget.max(1),
            ..Oracle::default()
        };
        oracle.nodes.push(Some(RefNode {
            tokens: Vec::new(),
            arc: 0,
            parent: ROOT,
            children: BTreeMap::new(),
            last_used: 0,
        }));
        oracle
    }

    fn node(&self, id: usize) -> &RefNode {
        self.nodes[id].as_ref().expect("live node")
    }

    fn node_mut(&mut self, id: usize) -> &mut RefNode {
        self.nodes[id].as_mut().expect("live node")
    }

    fn mint(&mut self) -> u64 {
        self.next_arc += 1;
        self.next_arc
    }

    fn alloc(&mut self, node: RefNode) -> usize {
        if let Some(id) = self.free.pop() {
            self.nodes[id] = Some(node);
            id
        } else {
            self.nodes.push(Some(node));
            self.nodes.len() - 1
        }
    }

    fn live(&self) -> impl Iterator<Item = (usize, &RefNode)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| Some((id, slot.as_ref()?)))
            .filter(|(id, _)| *id != ROOT)
    }

    fn pinned(&self, node: &RefNode) -> bool {
        self.refs.get(&node.arc).is_some_and(|&n| n > 0)
    }

    fn bytes(&self) -> usize {
        self.live().map(|(_, n)| n.tokens.len() * ROW_BYTES).sum()
    }

    fn segments(&self) -> usize {
        self.live().count()
    }

    fn pinned_bytes(&self) -> usize {
        self.live()
            .filter(|(_, n)| self.pinned(n))
            .map(|(_, n)| n.tokens.len() * ROW_BYTES)
            .sum()
    }

    fn split(&mut self, id: usize, at: usize) {
        let (upper_arc, lower_arc) = (self.mint(), self.mint());
        let node = self.node_mut(id);
        let lower_tokens = node.tokens.split_off(at);
        let lower_first = lower_tokens[0];
        let lower_children = std::mem::take(&mut node.children);
        let last_used = node.last_used;
        node.arc = upper_arc;
        let lower_id = self.alloc(RefNode {
            tokens: lower_tokens,
            arc: lower_arc,
            parent: id,
            children: lower_children,
            last_used,
        });
        let moved: Vec<usize> = self.node(lower_id).children.values().copied().collect();
        for child in moved {
            self.node_mut(child).parent = lower_id;
        }
        self.node_mut(id).children.insert(lower_first, lower_id);
    }

    fn evict_to_budget(&mut self) {
        while self.bytes() > self.budget {
            let victim = self
                .live()
                .filter(|(_, n)| n.children.is_empty() && !self.pinned(n))
                .map(|(id, n)| (n.last_used, id))
                .min();
            let Some((_, id)) = victim else { break };
            let node = self.nodes[id].take().expect("victim is live");
            self.free.push(id);
            self.evicted += 1;
            self.node_mut(node.parent).children.remove(&node.tokens[0]);
        }
    }

    fn hold(&mut self, arc: u64) {
        *self.refs.entry(arc).or_default() += 1;
    }

    /// The segment allocations a hit holds, or `None` on a miss.
    fn lookup(&mut self, window: &[u32], max_tokens: usize) -> Option<Vec<u64>> {
        self.tick += 1;
        let tick = self.tick;
        let budget = max_tokens.min(window.len());
        let (mut node_id, mut matched, mut held) = (ROOT, 0usize, Vec::new());
        while matched < budget {
            let Some(&child) = self.node(node_id).children.get(&window[matched]) else {
                break;
            };
            let node = self.node_mut(child);
            node.last_used = tick;
            let (arc, rows) = (node.arc, node.tokens.len());
            let take = lcp(&node.tokens, &window[matched..]).min(budget - matched);
            self.hold(arc);
            held.push(arc);
            matched += take;
            if take != rows {
                break;
            }
            node_id = child;
        }
        if matched == 0 {
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        self.hit_tokens += matched as u64;
        Some(held)
    }

    /// The segment allocations the returned pin holds.
    fn insert(&mut self, window: &[u32]) -> Vec<u64> {
        let mut held = Vec::new();
        if window.is_empty() {
            return held;
        }
        self.tick += 1;
        let tick = self.tick;
        let (mut node_id, mut matched) = (ROOT, 0usize);
        while matched < window.len() {
            match self.node(node_id).children.get(&window[matched]).copied() {
                None => {
                    let arc = self.mint();
                    self.hold(arc);
                    held.push(arc);
                    let leaf = self.alloc(RefNode {
                        tokens: window[matched..].to_vec(),
                        arc,
                        parent: node_id,
                        children: BTreeMap::new(),
                        last_used: tick,
                    });
                    self.node_mut(node_id)
                        .children
                        .insert(window[matched], leaf);
                    matched = window.len();
                }
                Some(child) => {
                    self.node_mut(child).last_used = tick;
                    let shared = lcp(&self.node(child).tokens, &window[matched..]);
                    if shared < self.node(child).tokens.len() && matched + shared < window.len() {
                        self.split(child, shared);
                    }
                    let (arc, rows) = (self.node(child).arc, self.node(child).tokens.len());
                    self.hold(arc);
                    held.push(arc);
                    matched += shared.min(rows);
                    if matched == window.len() {
                        break;
                    }
                    node_id = child;
                }
            }
        }
        self.evict_to_budget();
        held
    }

    fn release(&mut self, held: &[u64], evict: bool) {
        for arc in held {
            *self.refs.get_mut(arc).expect("held allocation") -= 1;
        }
        if evict && !held.is_empty() {
            self.evict_to_budget();
        }
    }

    fn probe(&self, window: &[u32]) -> usize {
        let (mut node_id, mut matched) = (ROOT, 0usize);
        while matched < window.len() {
            let Some(&child) = self.node(node_id).children.get(&window[matched]) else {
                break;
            };
            let node = self.node(child);
            let take = lcp(&node.tokens, &window[matched..]);
            matched += take;
            if take < node.tokens.len() {
                break;
            }
            node_id = child;
        }
        matched
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `kind` 0–2 inserts and keeps the pin, 3 inserts and drops it at
    /// once (an admission that retires immediately), 4–5 look up and keep
    /// the hit, 6 drops the `pick`-th live pin, 7 the `pick`-th live hit.
    /// Three-token alphabet and windows up to eight rows: prefixes are
    /// shared, edges split, and budgets of 1–40 rows evict on most steps,
    /// often with every candidate pinned.
    #[test]
    fn counters_and_victims_match_a_full_recount(
        ops in prop::collection::vec(
            (0u32..8, prop::collection::vec(0u32..3, 0..MAX_WINDOW + 1), 0usize..64),
            1..80,
        ),
        budget_rows in 1usize..40,
    ) {
        let budget = budget_rows * ROW_BYTES;
        let cache = PrefixKvCache::with_budget(budget);
        let registry = Registry::new();
        let gauges = PrefixCacheTelemetry::register(&registry);
        cache.set_telemetry(gauges.clone());
        let mut oracle = Oracle::new(budget);
        let mut pins: Vec<(PrefixPin, Vec<u64>)> = Vec::new();
        let mut hits: Vec<(CachedPrefix, Vec<u64>)> = Vec::new();
        let universe: Vec<&Vec<u32>> = ops.iter().map(|(_, w, _)| w).collect();

        for (step, (kind, window, pick)) in ops.iter().enumerate() {
            match kind {
                0..=3 => {
                    let pin = cache.insert(window, rows());
                    let held = oracle.insert(window);
                    pins.push((pin, held));
                    if *kind == 3 {
                        let (pin, held) = pins.pop().expect("just pushed");
                        drop(pin);
                        oracle.release(&held, true);
                    }
                }
                4 | 5 => {
                    let max_tokens = pick % (MAX_WINDOW + 1);
                    let hit = cache.lookup(window, max_tokens);
                    let held = oracle.lookup(window, max_tokens);
                    prop_assert_eq!(hit.is_some(), held.is_some(), "step {}", step);
                    if let (Some(hit), Some(held)) = (hit, held) {
                        prop_assert_eq!(hit.len(), oracle.probe(window).min(max_tokens));
                        hits.push((hit, held));
                    }
                }
                6 if !pins.is_empty() => {
                    let (pin, held) = pins.swap_remove(pick % pins.len());
                    drop(pin);
                    oracle.release(&held, true);
                }
                7 if !hits.is_empty() => {
                    let (hit, held) = hits.swap_remove(pick % hits.len());
                    drop(hit);
                    oracle.release(&held, false);
                }
                _ => {}
            }

            let stats = cache.stats();
            prop_assert_eq!(
                (stats.hits, stats.misses, stats.hit_tokens, stats.evicted_segments),
                (oracle.hits, oracle.misses, oracle.hit_tokens, oracle.evicted),
                "step {}", step
            );
            prop_assert_eq!(
                (stats.bytes, stats.segments),
                (oracle.bytes(), oracle.segments()),
                "step {}", step
            );
            prop_assert_eq!(
                (gauges.bytes.get(), gauges.segments.get(), gauges.pinned_bytes.get()),
                (
                    oracle.bytes() as f64,
                    oracle.segments() as f64,
                    oracle.pinned_bytes() as f64,
                ),
                "step {}", step
            );
            for window in &universe {
                prop_assert_eq!(
                    cache.probe(window),
                    oracle.probe(window),
                    "step {}: resident prefix of {:?}", step, window
                );
            }
        }

        // Every holder gone: nothing stays pinned.
        for (pin, held) in pins.drain(..) {
            drop(pin);
            oracle.release(&held, true);
        }
        for (hit, held) in hits.drain(..) {
            drop(hit);
            oracle.release(&held, false);
        }
        prop_assert_eq!(gauges.pinned_bytes.get(), 0.0);
        prop_assert_eq!(oracle.pinned_bytes(), 0);
        prop_assert_eq!(cache.stats().evicted_segments, oracle.evicted);
        for window in &universe {
            prop_assert_eq!(cache.probe(window), oracle.probe(window));
        }
    }
}
