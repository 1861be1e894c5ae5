//! Prefix KV cache: an exact index over the K/V pages live sequences
//! already hold, so a prompt that repeats a cached prefix starts out holding
//! those very pages.
//!
//! Every Wisdom prompt is built from a shared scaffold — the
//! `- name: <NL>` completion format plus, for the context-carrying
//! generation types, a playbook/task context repeated verbatim across many
//! requests. Re-prefilling those shared prefixes is pure waste: a K/V row
//! at position `t` depends only on tokens `0..=t`, so two prompts that
//! share a prefix share the prefix's K/V rows *exactly*.
//!
//! A sequence's [`KvCache`] is a run of fixed-size pages. [`PrefixKvCache`]
//! maps `(parent page id, the page's tokens)` to a full page and stores the
//! same `Arc` the sequence holds. The parent id stands for the parent's key
//! in turn, so a key names the whole token run up to the page's end at its
//! positions; ids are minted per registered page and never reused, so no
//! key can name a page computed from other tokens.
//! [`PrefixKvCache::lookup`] clones the longest indexed run of a window's
//! pages into a fresh cache, no rows copied; [`PrefixKvCache::prefill`]
//! then runs [`TransformerLm::prefill_continue`] over the suffix only and
//! indexes the window's full pages (the partial last page stays private).
//!
//! Copy-on-write: a cache writes only into a page it holds alone and copies
//! a shared one first — an indexed page always counts as shared — so no
//! sequence ever sees another's rows change, whatever the index evicts.
//!
//! Holder counts: each indexed page counts the caches holding it, moved
//! when a cache takes, clones or drops the page (the one hook between the
//! two). A held page is pinned. Eviction keeps the bytes within budget by
//! taking the least-recently-used unheld page, deepest first when recency
//! is equal (a walk touches a page with all its ancestors, so a parent is
//! never older than its child). When everything left is held it stops; the
//! budget is re-enforced on the next insert and whenever a holder lets go.
//!
//! Bookkeeping costs what the request touches, never what the index holds:
//! `bytes` and the pinned bytes are counters kept at the sites that change
//! them, the page count is the map's length, and the eviction order is an
//! ordered set of exactly the unheld pages. No operation walks the index.
//!
//! Position-exactness: cached rows bake in their absolute position (the
//! model adds `pos_emb` rows by index), and prefill always starts at
//! position 0 of the *left-truncated* generation window. Keying the index
//! by that window means a prompt longer than the context window is
//! automatically re-keyed by its truncated tail — a truncated window never
//! matches the untruncated prefix of a shorter prompt byte-for-byte unless
//! the token runs (and therefore the positions) really are identical.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

use crate::telemetry::{DecodeTelemetry, PrefixCacheTelemetry};
use crate::transformer::{KvCache, Page, PageRef, TransformerLm, PAGE_TOKENS};

/// Counters surfaced through `GET /v1/stats`: a snapshot of the cache's
/// [`PrefixCacheTelemetry`] handles and its index shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Lookups that matched at least one page.
    pub hits: u64,
    /// Lookups that matched nothing.
    pub misses: u64,
    /// Total prompt tokens served from cache instead of recomputed.
    pub hit_tokens: u64,
    /// Pages discarded by LRU eviction.
    pub evicted_segments: u64,
    /// Bytes of the indexed pages (K/V rows plus their key tokens).
    pub bytes: usize,
    /// Pages currently indexed.
    pub segments: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
}

/// An indexed page's key: its parent's id (0 for a window's first page)
/// and its own tokens.
type Key = (u64, [u32; PAGE_TOKENS]);

fn key(parent: u64, tokens: &[u32]) -> Key {
    (parent, tokens.try_into().expect("one page of tokens"))
}

/// Bytes an indexed page accounts for: its K/V rows plus its key's tokens.
fn page_bytes(page: &Page) -> usize {
    page.bytes() + PAGE_TOKENS * std::mem::size_of::<u32>()
}

struct Entry {
    page: Arc<Page>,
    id: u64,
    /// Pages before it in a window.
    depth: usize,
    /// Logical LRU clock value of the last lookup/insert reaching it.
    last_used: u64,
    /// Caches holding the page.
    holders: usize,
}

/// Where a registered page sits: the index and the key it is filed under.
#[derive(Debug)]
pub(crate) struct Registration {
    core: Weak<Core>,
    key: Key,
}

impl Registration {
    /// One more cache holds the page.
    pub(crate) fn hold(&self) {
        self.with_index(|inner, _| {
            inner.update(&self.key, |e| e.holders += 1);
        });
    }

    /// A cache let go of the page, which may now be evictable: eviction
    /// re-runs.
    pub(crate) fn release(&self) {
        self.with_index(|inner, budget| {
            inner.update(&self.key, |e| e.holders = e.holders.saturating_sub(1));
            inner.evict_to_budget(budget);
        });
    }

    /// Runs `f` on the index, then republishes its gauges. Called from a
    /// page hold's `Clone` and `Drop`, so it never panics: an index that is
    /// gone has no accounting left to keep.
    fn with_index(&self, f: impl FnOnce(&mut Inner, usize)) {
        let Some(core) = self.core.upgrade() else {
            return;
        };
        let mut inner = core.lock();
        f(&mut inner, core.max_bytes);
        inner.publish_gauges();
    }
}

struct Inner {
    pages: HashMap<Key, Entry>,
    /// Eviction order: `(last_used, Reverse(depth), key)` of exactly the
    /// unheld pages. Every change to a page's recency or holders goes
    /// through [`Inner::update`], which keeps this in step.
    lru: BTreeSet<(u64, Reverse<usize>, Key)>,
    /// The last page id minted.
    last_id: u64,
    /// Bytes of the indexed pages.
    bytes: usize,
    /// Bytes of the indexed pages with at least one holder.
    pinned_bytes: usize,
    /// Logical LRU clock, bumped per lookup/insert.
    tick: u64,
    /// Where the hit, miss and eviction counts live; the gauges are
    /// republished under the lock.
    telemetry: PrefixCacheTelemetry,
    /// Pages read or written so far: what the work-bound test counts.
    #[cfg(test)]
    visits: std::cell::Cell<u64>,
}

impl Inner {
    fn visit(&self) {
        #[cfg(test)]
        self.visits.set(self.visits.get() + 1);
    }

    /// Applies `change` to `key`'s page, if indexed, moving it into, out of
    /// or within the eviction order and the pinned bytes as the change
    /// demands.
    fn update<R>(&mut self, key: &Key, change: impl FnOnce(&mut Entry) -> R) -> Option<R> {
        self.visit();
        let entry = self.pages.get_mut(key)?;
        let rank = |e: &Entry| (e.last_used, Reverse(e.depth), *key);
        let (was_held, before) = (entry.holders > 0, rank(entry));
        let out = change(entry);
        let (held, bytes) = (entry.holders > 0, page_bytes(&entry.page));
        if !was_held {
            self.lru.remove(&before);
        }
        if !held {
            self.lru.insert(rank(entry));
        }
        match (was_held, held) {
            (false, true) => self.pinned_bytes += bytes,
            (true, false) => self.pinned_bytes -= bytes,
            _ => {}
        }
        Some(out)
    }

    /// Files `page` under `key` with a fresh id, held by every cache that
    /// holds it now, and returns the id.
    fn register(&mut self, key: Key, depth: usize, tick: u64, page: Arc<Page>) -> u64 {
        self.last_id += 1;
        let holders = Arc::strong_count(&page) - 1;
        self.bytes += page_bytes(&page);
        self.lru.insert((tick, Reverse(depth), key));
        self.pages.insert(
            key,
            Entry {
                page,
                id: self.last_id,
                depth,
                last_used: tick,
                holders: 0,
            },
        );
        self.update(&key, |e| e.holders = holders);
        self.last_id
    }

    /// Evicts least-recently-used unheld pages (deepest first among equals)
    /// until `bytes <= budget` or nothing evictable remains (everything
    /// left is held).
    fn evict_to_budget(&mut self, budget: usize) {
        while self.bytes > budget {
            let Some((_, _, key)) = self.lru.pop_first() else {
                break;
            };
            self.visit();
            let entry = self.pages.remove(&key).expect("ranked pages are indexed");
            self.bytes -= page_bytes(&entry.page);
            self.telemetry.evicted_segments.inc();
        }
    }

    /// Republishes the index-shape gauges (bytes, page count, pinned bytes)
    /// into the registry handles. Called under the cache lock after any
    /// mutation that can change them.
    fn publish_gauges(&self) {
        let t = &self.telemetry;
        t.bytes.set(self.bytes as f64);
        t.segments.set(self.pages.len() as f64);
        t.pinned_bytes.set(self.pinned_bytes as f64);
    }
}

/// The lock-guarded index plus its budget, shared between the cache handle
/// and the weak back-references of registered pages.
struct Core {
    inner: Mutex<Inner>,
    max_bytes: usize,
}

impl Core {
    /// The index, also when a thread panicked holding it. Nothing under
    /// this lock calls the model or reads caller input: the only panics
    /// there are checks on the index's own bookkeeping (an `expect`, a
    /// debug-build underflow), which fire only on a bug. One leaves at
    /// worst byte counts or an eviction order that are off — every key
    /// still maps to the page computed for it — so readers on handler
    /// threads (`stats`, `probe`), admissions and page holds dropped
    /// during an unwind keep working instead of panicking in turn.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A shared, byte-bounded index of prompt-prefix K/V pages.
///
/// Thread-safe: one mutex guards the index (admission is effectively
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
        Self::with_budget(64 << 20)
    }
}

impl PrefixKvCache {
    /// An empty cache bounded to `max_bytes` of indexed pages, counting
    /// into a private [`DecodeTelemetry::default`] bundle.
    pub fn with_budget(max_bytes: usize) -> Self {
        Self::new(max_bytes, DecodeTelemetry::default().prefix_cache)
    }

    /// An empty cache bounded to `max_bytes` of indexed pages that counts
    /// its hits, misses and evictions in `telemetry` and publishes its
    /// shape gauges there after every lookup, insert and change of a
    /// page's holders.
    pub fn new(max_bytes: usize, telemetry: PrefixCacheTelemetry) -> Self {
        let max_bytes = max_bytes.max(1);
        telemetry.budget_bytes.set(max_bytes as f64);
        let inner = Inner {
            pages: HashMap::new(),
            lru: BTreeSet::new(),
            last_id: 0,
            bytes: 0,
            pinned_bytes: 0,
            tick: 0,
            telemetry,
            #[cfg(test)]
            visits: std::cell::Cell::new(0),
        };
        inner.publish_gauges();
        Self {
            core: Arc::new(Core {
                inner: Mutex::new(inner),
                max_bytes,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.core.lock()
    }

    /// Current counters.
    pub fn stats(&self) -> PrefixCacheStats {
        let inner = self.lock();
        let t = &inner.telemetry;
        PrefixCacheStats {
            hits: t.hits.get(),
            misses: t.misses.get(),
            hit_tokens: t.hit_tokens.get(),
            evicted_segments: t.evicted_segments.get(),
            bytes: inner.bytes,
            segments: inner.pages.len(),
            budget_bytes: self.core.max_bytes,
        }
    }

    /// Puts the longest indexed run of `window`'s pages, at most
    /// `max_tokens` long, into `cache` (which must be empty) and returns
    /// the tokens it covers — a whole number of pages. Callers cap at
    /// `window.len() - 1` so the final position, whose logits are not
    /// cached, is always recomputed. Counts a hit, or a miss when no page
    /// matched.
    pub fn lookup(&self, window: &[u32], max_tokens: usize, cache: &mut KvCache) -> usize {
        debug_assert!(cache.is_empty(), "lookup fills a fresh cache");
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let mut parent = 0;
        for tokens in window[..max_tokens.min(window.len())].chunks_exact(PAGE_TOKENS) {
            let taken = inner.update(&key(parent, tokens), |e| {
                e.last_used = tick;
                e.holders += 1;
                (e.id, Arc::clone(&e.page))
            });
            let Some((id, page)) = taken else {
                break;
            };
            cache.push_page(page);
            parent = id;
        }
        let matched = cache.len();
        let t = &inner.telemetry;
        if matched == 0 {
            t.misses.inc();
        } else {
            t.hits.inc();
            t.hit_tokens.add(matched as u64);
        }
        inner.publish_gauges();
        matched
    }

    /// The number of leading `window` tokens currently indexed, without
    /// disturbing anything: no hit/miss counters, no LRU touch, no holder.
    /// This is the cached-prefix summary a multi-replica router consults
    /// when scoring replicas for prefix affinity — a probe must not
    /// advertise itself as reuse (that would inflate the hit rate) nor
    /// refresh recency (that would let routing queries keep pages alive
    /// that no admission ever takes).
    pub fn probe(&self, window: &[u32]) -> usize {
        let inner = self.lock();
        let mut parent = 0;
        let mut matched = 0;
        for tokens in window.chunks_exact(PAGE_TOKENS) {
            inner.visit();
            let Some(entry) = inner.pages.get(&key(parent, tokens)) else {
                break;
            };
            parent = entry.id;
            matched += PAGE_TOKENS;
        }
        matched
    }

    /// Indexes `window`'s full pages, taken from `cache`: a cache that
    /// [`Self::lookup`] started from this index and a prefill completed, so
    /// it holds `window`'s positions and every page past the looked-up run
    /// is its own. Where the index already holds a page under the same key,
    /// the cache takes the index's page in place of its own copy, so the
    /// cache ends up holding exactly the indexed run; the other pages are
    /// registered as they are. The partial last page stays private. Evicts
    /// down to the byte budget before returning.
    pub(crate) fn insert(&self, window: &[u32], cache: &mut KvCache) {
        debug_assert!(cache.len() >= window.len(), "cache covers the window");
        // Holds the cache gives up, dropped once the lock is released (a
        // hold on a registered page reports back to its index).
        let mut displaced = Vec::new();
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let mut parent = 0;
        let pages = window.chunks_exact(PAGE_TOKENS).zip(cache.pages.iter_mut());
        for (depth, (tokens, slot)) in pages.enumerate() {
            let key = key(parent, tokens);
            let indexed = inner.update(&key, |e| {
                e.last_used = tick;
                let other = !Arc::ptr_eq(&e.page, &slot.0);
                e.holders += usize::from(other);
                (e.id, other.then(|| Arc::clone(&e.page)))
            });
            parent = match indexed {
                Some((id, theirs)) => {
                    if let Some(page) = theirs {
                        displaced.push(std::mem::replace(slot, PageRef(page)));
                    }
                    id
                }
                None => {
                    let filed = Registration {
                        core: Arc::downgrade(&self.core),
                        key,
                    };
                    // A page this index does not hold under its key was
                    // computed by the admission itself.
                    slot.0.entry.set(filed).expect("a fresh page");
                    inner.register(key, depth, tick, Arc::clone(&slot.0))
                }
            };
        }
        inner.evict_to_budget(self.core.max_bytes);
        inner.publish_gauges();
        drop(inner);
        drop(displaced);
    }

    /// Cache-accelerated prefill: takes the longest cached prefix of
    /// `window` into a fresh [`KvCache`], runs
    /// [`TransformerLm::prefill_continue`] over the remaining suffix only,
    /// and indexes the window's full pages.
    ///
    /// Returns `(cache, final-position logits)`. Output is bit-identical to
    /// `model.prefill(window)` for any cache state: the cached pages hold
    /// exactly the rows the full pass would have produced at those
    /// positions.
    ///
    /// # Panics
    ///
    /// Panics if `window` exceeds the model's context window or contains an
    /// out-of-vocabulary token (as [`TransformerLm::prefill`] would).
    pub fn prefill(&self, model: &TransformerLm, window: &[u32]) -> (KvCache, Vec<f32>) {
        if window.is_empty() {
            return model.prefill(window);
        }
        let mut cache = KvCache::new(model);
        let matched = self.lookup(window, window.len() - 1, &mut cache);
        let logits = model.prefill_continue(&window[matched..], &mut cache);
        self.insert(window, &mut cache);
        (cache, logits)
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

    /// What one indexed page weighs: measured, not derived.
    fn one_page(model: &TransformerLm) -> usize {
        let probe = PrefixKvCache::default();
        let (mut kv, _) = model.prefill(&[1, 2, 3, 4]);
        probe.insert(&[1, 2, 3, 4], &mut kv);
        probe.stats().bytes
    }

    #[test]
    fn lookup_on_empty_cache_misses() {
        let model = tiny_model();
        let cache = PrefixKvCache::default();
        assert_eq!(
            cache.lookup(&[1, 2, 3, 4, 5], 4, &mut KvCache::new(&model)),
            0
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
        assert_eq!((s.bytes, s.segments), (0, 0));
    }

    #[test]
    fn insert_then_lookup_shares_whole_pages() {
        let model = tiny_model();
        let cache = PrefixKvCache::default();
        let window = [1u32, 2, 3, 4, 5, 6, 7, 8, 9];
        let (mut kv, _) = model.prefill(&window);
        cache.insert(&window, &mut kv);
        // Two full pages indexed; the ninth token's page stays private.
        assert_eq!(cache.stats().segments, 2);
        let hit = |w: &[u32], max: usize| cache.lookup(w, max, &mut KvCache::new(&model));
        assert_eq!(hit(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 9), 8);
        // Capped inside the second page: the first page only.
        assert_eq!(hit(&[1, 2, 3, 4, 5, 6, 7, 8], 7), 4);
        // Diverging inside the second page: the first page only.
        assert_eq!(hit(&[1, 2, 3, 4, 5, 6, 0, 8, 9], 8), 4);
        // Less than a page matched, or a diverging first token: misses.
        assert_eq!(hit(&[1, 2, 3, 0, 5], 4), 0);
        assert_eq!(hit(&[1, 2, 3, 4], 3), 0);
        assert_eq!(hit(&[2, 2, 3, 4, 5], 4), 0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.hit_tokens), (3, 3, 16));
    }

    #[test]
    fn a_poisoned_index_keeps_serving() {
        let model = tiny_model();
        let cache = std::sync::Arc::new(PrefixKvCache::default());
        let window = [1u32, 2, 3, 4, 5, 6, 7, 8, 9];
        let (held, _) = cache.prefill(&model, &window);
        let holder = std::sync::Arc::clone(&cache);
        let died = std::thread::spawn(move || {
            let _inner = holder.lock();
            panic!("a thread panics holding the index");
        });
        assert!(died.join().is_err());
        assert!(cache.core.inner.is_poisoned());
        // Readers, admissions and a dropped hold all still work.
        assert_eq!(cache.stats().segments, 2);
        assert_eq!(cache.probe(&window), 8);
        let (warm, logits) = cache.prefill(&model, &window);
        assert_eq!(logits, model.prefill(&window).1);
        drop((held, warm));
        assert_eq!(cache.lock().pinned_bytes, 0);
    }

    #[test]
    fn probe_reports_resident_prefix_without_touching_stats() {
        let model = tiny_model();
        let cache = PrefixKvCache::default();
        let window = [1u32, 2, 3, 4, 5, 6, 7, 8];
        let (mut kv, _) = model.prefill(&window);
        cache.insert(&window, &mut kv);
        let before = cache.stats();

        // Full residency, a page-granular partial match, and clean misses.
        assert_eq!(cache.probe(&[1, 2, 3, 4, 5, 6, 7, 8, 9]), 8);
        assert_eq!(cache.probe(&[1, 2, 3, 4, 5, 9]), 4);
        assert_eq!(cache.probe(&[1, 2, 3]), 0);
        assert_eq!(cache.probe(&[2, 2, 3, 4]), 0);
        assert_eq!(cache.probe(&[]), 0);

        // Probing is invisible: no hit/miss movement, no byte churn.
        assert_eq!(cache.stats(), before);
    }

    #[test]
    fn a_warm_admission_holds_the_index_pages() {
        let model = tiny_model();
        let cache = PrefixKvCache::default();
        let window = [1u32, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        let (first, _) = cache.prefill(&model, &window);
        let (warm, logits) = cache.prefill(&model, &window);
        let (cold, cold_logits) = model.prefill(&window);
        let inner = cache.lock();
        let mut parent = 0;
        for (i, tokens) in window.chunks_exact(PAGE_TOKENS).enumerate() {
            let entry = &inner.pages[&key(parent, tokens)];
            // Both admissions hold the index's own page: nothing copied.
            assert!(Arc::ptr_eq(&entry.page, &warm.pages[i].0), "page {i}");
            assert!(Arc::ptr_eq(&entry.page, &first.pages[i].0), "page {i}");
            assert_eq!(entry.holders, 2);
            parent = entry.id;
        }
        // The partial last page is each sequence's own.
        assert!(!Arc::ptr_eq(&warm.pages[2].0, &first.pages[2].0));
        assert_eq!(inner.pinned_bytes, inner.bytes);
        drop(inner);
        assert_eq!(warm.bits(), cold.bits());
        let to_bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(to_bits(&logits), to_bits(&cold_logits));
        drop((first, warm));
        assert_eq!(cache.lock().pinned_bytes, 0, "no holder left");
    }

    #[test]
    fn eviction_respects_budget_and_skips_held_pages() {
        let model = tiny_model();
        let page = one_page(&model);
        // Budget fits two pages and a half.
        let budget = 2 * page + page / 2;
        let cache = PrefixKvCache::with_budget(budget);

        // A live sequence holds the first window's page; it must survive
        // any pressure.
        let (held, _) = cache.prefill(&model, &[1, 2, 3, 4, 5]);
        for start in 10u32..16 {
            let w = [start, start + 1, 2, 3, 4];
            drop(cache.prefill(&model, &w));
        }
        let s = cache.stats();
        assert!(s.evicted_segments > 0, "pressure must evict: {s:?}");
        assert!(s.bytes <= budget, "over budget: {s:?}");
        assert_eq!(cache.probe(&[1, 2, 3, 4, 5]), 4, "held page survives");
        drop(held);

        // Unheld now: enough pressure evicts it too.
        for start in 10u32..16 {
            let w = [start, start + 1, 2, 3, 4, 5];
            drop(cache.prefill(&model, &w));
        }
        assert!(cache.stats().bytes <= budget);
        assert_eq!(cache.probe(&[1, 2, 3, 4, 5]), 0);
    }

    #[test]
    fn admission_work_is_independent_of_resident_pages() {
        let model = tiny_model();
        let page = one_page(&model);
        // Index entries touched by two admissions against a cache exactly
        // full with `resident` one-page windows: a cold one (miss, new
        // page, one victim, release) and a warm one (hit on the newest
        // window's page, new page, victims, release).
        let visits = |resident: u32| {
            let cache = PrefixKvCache::with_budget(resident as usize * page);
            // A distinct first page per tag (the vocabulary is 20 tokens).
            let head = |tag: u32| [tag % 20, tag / 20 % 20, tag / 400 % 20, tag / 8000 + 1];
            for tag in 0..resident {
                let [a, b, c, d] = head(tag);
                drop(cache.prefill(&model, &[a, b, c, d, 0]));
            }
            let full = cache.stats();
            assert_eq!(
                (full.segments, full.evicted_segments),
                (resident as usize, 0)
            );
            let count = || cache.lock().visits.get();
            let before = count();
            drop(cache.prefill(&model, &[7, 7, 7, 7, 7]));
            let [a, b, c, d] = head(resident - 1);
            drop(cache.prefill(&model, &[a, b, c, d, 9, 9, 9, 9, 9]));
            assert!(cache.stats().evicted_segments >= 2, "both admissions evict");
            assert_eq!(cache.stats().hit_tokens, 4, "the warm one hit");
            count() - before
        };
        assert_eq!(visits(8), visits(8192));
    }

    #[test]
    fn telemetry_mirrors_internal_counters() {
        let registry = wisdom_telemetry::Registry::new();
        let telemetry = DecodeTelemetry::register(&registry, &[]).prefix_cache;
        let model = tiny_model();
        let page = one_page(&model);
        let cache = PrefixKvCache::new(2 * page + page / 2, telemetry.clone());
        assert!((telemetry.budget_bytes.get() - cache.stats().budget_bytes as f64).abs() < 0.5);

        // One miss, one insert, one hit — then eviction pressure.
        let (held, _) = cache.prefill(&model, &[1, 2, 3, 4, 5]);
        assert_eq!(
            cache.lookup(&[1, 2, 3, 4, 5], 4, &mut KvCache::new(&model)),
            4
        );
        assert!(telemetry.pinned_bytes.get() > 0.0, "a live holder shows up");
        drop(held);
        for start in 10u32..16 {
            drop(cache.prefill(&model, &[start, start + 1, 2, 3, 4]));
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
            "every holder let go"
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
            vec![1, 2, 3, 4, 5, 6, 7, 8, 1, 2],
            vec![],
            vec![4],
        ];
        for round in 0..2 {
            for w in &windows {
                let (kv_cold, lg_cold) = model.prefill(w);
                let (kv_warm, lg_warm) = cache.prefill(&model, w);
                let to_bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    to_bits(&lg_cold),
                    to_bits(&lg_warm),
                    "round {round} window {w:?}"
                );
                assert_eq!(kv_cold.len(), kv_warm.len());
                assert_eq!(kv_cold.bits(), kv_warm.bits(), "round {round} window {w:?}");
            }
        }
        let s = cache.stats();
        assert!(s.hits > 0, "second round must hit: {s:?}");
    }
}
