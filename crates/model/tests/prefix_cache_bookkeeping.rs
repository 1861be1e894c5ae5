//! The prefix cache's incremental bookkeeping against a full recount.
//!
//! [`Oracle`] is the page index with nothing kept incrementally: pages are
//! found by scanning every indexed page for a `(parent id, tokens)` match,
//! `bytes`, the page count and the pinned bytes are recounted by walking
//! the index, every page's holders are recounted from the page-id lists of
//! the caches a trace keeps alive, and every eviction victim is found by a
//! full scan for the least-recently-used unheld page, deepest first among
//! equals. Random admission / lookup / clone / truncate / release traces
//! over budgets small enough to evict on most steps must leave the real
//! cache and the oracle with the same counters, the same gauges and the
//! same resident prefix of every window the trace used — the last is what
//! pins the victim *sequence*: a different victim leaves a different
//! window short.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;
use wisdom_model::{DecodeTelemetry, KvCache, ModelConfig, PrefixKvCache, TransformerLm};
use wisdom_prng::Prng;
use wisdom_telemetry::Registry;

const D_MODEL: usize = 16;
const N_LAYERS: usize = 2;
/// Positions per page: the engine's page size.
const PAGE_TOKENS: usize = 4;
/// Longest window a trace uses: the model's context window.
const MAX_WINDOW: usize = 12;
/// Bytes one indexed page accounts for: K and V floats per layer plus a
/// token, per position.
const PAGE_BYTES: usize = PAGE_TOKENS * (2 * N_LAYERS * D_MODEL * 4 + 4);

fn model() -> &'static TransformerLm {
    static MODEL: OnceLock<TransformerLm> = OnceLock::new();
    MODEL.get_or_init(|| {
        let cfg = ModelConfig {
            vocab_size: 20,
            d_model: D_MODEL,
            n_layers: N_LAYERS,
            n_heads: 2,
            context_window: MAX_WINDOW,
        };
        TransformerLm::new(cfg, &mut Prng::seed_from_u64(3))
    })
}

struct RefPage {
    parent: u64,
    tokens: Vec<u32>,
    depth: usize,
    last_used: u64,
}

#[derive(Default)]
struct Oracle {
    /// Indexed pages by id.
    pages: BTreeMap<u64, RefPage>,
    budget: usize,
    last_id: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    hit_tokens: u64,
    evicted: u64,
}

impl Oracle {
    fn new(budget: usize) -> Oracle {
        Oracle {
            budget: budget.max(1),
            ..Oracle::default()
        }
    }

    fn find(&self, parent: u64, tokens: &[u32]) -> Option<u64> {
        self.pages
            .iter()
            .find(|(_, p)| p.parent == parent && p.tokens == tokens)
            .map(|(&id, _)| id)
    }

    fn holders(id: u64, held: &[&[u64]]) -> usize {
        held.iter()
            .flat_map(|ids| ids.iter())
            .filter(|&&h| h == id)
            .count()
    }

    fn bytes(&self) -> usize {
        self.pages.len() * PAGE_BYTES
    }

    fn pinned_bytes(&self, held: &[&[u64]]) -> usize {
        let pinned = self.pages.keys().filter(|&&id| Self::holders(id, held) > 0);
        pinned.count() * PAGE_BYTES
    }

    fn evict_to_budget(&mut self, held: &[&[u64]]) {
        while self.bytes() > self.budget {
            let victim = self
                .pages
                .iter()
                .filter(|(&id, _)| Self::holders(id, held) == 0)
                .min_by_key(|(&id, p)| (p.last_used, Reverse(p.depth), id))
                .map(|(&id, _)| id);
            let Some(id) = victim else { break };
            self.pages.remove(&id);
            self.evicted += 1;
        }
    }

    /// The page ids a lookup hands its cache.
    fn lookup(&mut self, window: &[u32], max_tokens: usize) -> Vec<u64> {
        self.tick += 1;
        let mut ids = Vec::new();
        for tokens in window[..max_tokens.min(window.len())].chunks_exact(PAGE_TOKENS) {
            let Some(id) = self.find(ids.last().copied().unwrap_or(0), tokens) else {
                break;
            };
            self.pages.get_mut(&id).expect("found").last_used = self.tick;
            ids.push(id);
        }
        if ids.is_empty() {
            self.misses += 1;
        } else {
            self.hits += 1;
            self.hit_tokens += (ids.len() * PAGE_TOKENS) as u64;
        }
        ids
    }

    /// The page ids an admission's cache ends up holding: the lookup's,
    /// then the window's full pages, each the index's own.
    fn admit(&mut self, window: &[u32], held: &[&[u64]]) -> Vec<u64> {
        if window.is_empty() {
            return Vec::new();
        }
        self.lookup(window, window.len() - 1);
        self.tick += 1;
        let mut ids: Vec<u64> = Vec::new();
        for (depth, tokens) in window.chunks_exact(PAGE_TOKENS).enumerate() {
            let parent = ids.last().copied().unwrap_or(0);
            let id = self.find(parent, tokens).unwrap_or_else(|| {
                self.last_id += 1;
                self.pages.insert(
                    self.last_id,
                    RefPage {
                        parent,
                        tokens: tokens.to_vec(),
                        depth,
                        last_used: 0,
                    },
                );
                self.last_id
            });
            self.pages.get_mut(&id).expect("indexed").last_used = self.tick;
            ids.push(id);
        }
        let mut all = held.to_vec();
        all.push(&ids);
        self.evict_to_budget(&all);
        ids
    }

    /// Lets go of `ids`' pages past the first `keep`, deepest first,
    /// evicting after each.
    fn release(&mut self, ids: &mut Vec<u64>, keep: usize, others: &[&[u64]]) {
        while ids.len() > keep {
            ids.pop();
            let mut all = others.to_vec();
            all.push(ids);
            self.evict_to_budget(&all);
        }
    }

    fn probe(&self, window: &[u32]) -> usize {
        let mut parent = 0;
        let mut matched = 0;
        for tokens in window.chunks_exact(PAGE_TOKENS) {
            let Some(id) = self.find(parent, tokens) else {
                break;
            };
            parent = id;
            matched += PAGE_TOKENS;
        }
        matched
    }
}

/// Windows that share prefixes: the head of one of three stems (the first
/// two share a page) and a short tail.
fn window(stem: usize, cut: usize, tail: &[u32]) -> Vec<u32> {
    const STEMS: [[u32; MAX_WINDOW]; 3] = [
        [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
        [0, 1, 2, 0, 2, 2, 1, 0, 0, 1, 1, 2],
        [1, 1, 0, 2, 0, 1, 2, 2, 1, 0, 2, 0],
    ];
    let mut w = STEMS[stem][..cut].to_vec();
    w.extend(tail);
    w.truncate(MAX_WINDOW);
    w
}

#[test]
fn pages_are_four_tokens_and_weigh_what_the_oracle_says() {
    let cache = PrefixKvCache::default();
    for w in [&[1u32, 2, 3][..], &[1, 2, 3, 4, 5, 6, 7]] {
        drop(cache.prefill(model(), w));
    }
    let s = cache.stats();
    assert_eq!((s.segments, s.bytes), (1, PAGE_BYTES));
    assert_eq!(cache.probe(&[1, 2, 3, 4, 5]), PAGE_TOKENS);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `kind` 0–2 admits a window and keeps its cache, 3 admits one and
    /// drops it at once (a sequence that retires immediately), 4–5 look up
    /// and keep the cache, 6 drops the `pick`-th kept cache, 7 truncates
    /// it, 8 clones it. Budgets of 1 byte to ten pages evict on most steps,
    /// often with every candidate held.
    #[test]
    fn counters_and_victims_match_a_full_recount(
        ops in prop::collection::vec(
            (
                0u32..9,
                (0usize..3, 0..MAX_WINDOW + 1, prop::collection::vec(0u32..3, 0..5)),
                0usize..64,
            ),
            1..80,
        ),
        budget in 1usize..10 * PAGE_BYTES,
    ) {
        let registry = Registry::new();
        let gauges = DecodeTelemetry::register(&registry, &[]).prefix_cache;
        let cache = PrefixKvCache::new(budget, gauges.clone());
        let mut oracle = Oracle::new(budget);
        // Live caches and the page ids each holds, in position order.
        let mut kept: Vec<(KvCache, Vec<u64>)> = Vec::new();
        let universe: Vec<Vec<u32>> =
            ops.iter().map(|(_, (s, c, t), _)| window(*s, *c, t)).collect();

        for (step, ((kind, _, pick), window)) in ops.iter().zip(&universe).enumerate() {
            let held = |kept: &[(KvCache, Vec<u64>)]| -> Vec<Vec<u64>> {
                kept.iter().map(|(_, ids)| ids.clone()).collect()
            };
            match kind {
                0..=3 => {
                    let others = held(&kept);
                    let refs: Vec<&[u64]> = others.iter().map(Vec::as_slice).collect();
                    let (kv, _) = cache.prefill(model(), window);
                    let ids = oracle.admit(window, &refs);
                    kept.push((kv, ids));
                    if *kind == 3 {
                        let (kv, mut ids) = kept.pop().expect("just pushed");
                        drop(kv);
                        oracle.release(&mut ids, 0, &refs);
                    }
                }
                4 | 5 => {
                    let max_tokens = pick % (MAX_WINDOW + 1);
                    let mut kv = KvCache::new(model());
                    let matched = cache.lookup(window, max_tokens, &mut kv);
                    let ids = oracle.lookup(window, max_tokens);
                    prop_assert_eq!(matched, ids.len() * PAGE_TOKENS, "step {}", step);
                    prop_assert_eq!(kv.len(), matched);
                    kept.push((kv, ids));
                }
                6..=8 if !kept.is_empty() => {
                    let at = pick % kept.len();
                    let (mut kv, mut ids) = kept.swap_remove(at);
                    let others = held(&kept);
                    let refs: Vec<&[u64]> = others.iter().map(Vec::as_slice).collect();
                    match kind {
                        6 => {
                            drop(kv);
                            oracle.release(&mut ids, 0, &refs);
                        }
                        7 => {
                            let len = pick % (kv.len() + 1);
                            kv.truncate(len);
                            oracle.release(&mut ids, len.div_ceil(PAGE_TOKENS), &refs);
                            kept.push((kv, ids));
                        }
                        _ => {
                            kept.push((kv.clone(), ids.clone()));
                            kept.push((kv, ids));
                        }
                    }
                }
                _ => {}
            }

            let others = held(&kept);
            let refs: Vec<&[u64]> = others.iter().map(Vec::as_slice).collect();
            let stats = cache.stats();
            prop_assert_eq!(
                (stats.hits, stats.misses, stats.hit_tokens, stats.evicted_segments),
                (oracle.hits, oracle.misses, oracle.hit_tokens, oracle.evicted),
                "step {}", step
            );
            prop_assert_eq!(
                (stats.bytes, stats.segments),
                (oracle.bytes(), oracle.pages.len()),
                "step {}", step
            );
            prop_assert_eq!(
                (gauges.bytes.get(), gauges.segments.get(), gauges.pinned_bytes.get()),
                (
                    oracle.bytes() as f64,
                    oracle.pages.len() as f64,
                    oracle.pinned_bytes(&refs) as f64,
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

        // Every holder gone: nothing stays pinned, and the budget holds.
        while let Some((kv, mut ids)) = kept.pop() {
            let others = kept.iter().map(|(_, ids)| ids.clone()).collect::<Vec<_>>();
            let refs: Vec<&[u64]> = others.iter().map(Vec::as_slice).collect();
            drop(kv);
            oracle.release(&mut ids, 0, &refs);
        }
        prop_assert_eq!(gauges.pinned_bytes.get(), 0.0);
        prop_assert_eq!(oracle.pinned_bytes(&[]), 0);
        prop_assert!(cache.stats().bytes <= budget);
        prop_assert_eq!(cache.stats().evicted_segments, oracle.evicted);
        for window in &universe {
            prop_assert_eq!(cache.probe(window), oracle.probe(window));
        }
    }
}
