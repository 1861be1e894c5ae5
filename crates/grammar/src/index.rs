//! Token-level projection of the byte automaton onto a live BPE vocabulary:
//! per-state allowed-token masks with caching, a forced-token fast path,
//! and the per-sequence [`GrammarCursor`] decode paths drive.
//!
//! One invariant: an automaton state is walked over the vocabulary once per
//! mask key ([`GrammarIndex::compute_mask`], [`GrammarIndex::mask_key`]: the
//! state with what no mask can see forgotten). What the walk learns — which
//! tokens are legal and how long the canonical close is after each — is kept
//! in the key's [`CacheEntry`]; budget-filtered masks and
//! [`GrammarCursor::advance`] read it from there instead of walking again.
//! Within the walk, and across cursor starts, each distinct key's canonical
//! close is simulated once.
//!
//! A constrained greedy pick ([`GrammarCursor::pick_greedy`]) reads only the
//! legal logits; the whole row is written to `-inf` outside the legal set
//! ([`GrammarCursor::apply`]) only for top-k sampling and beam expansion,
//! which read the row itself.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use wisdom_prng::FoldHash;
use wisdom_tokenizer::BpeTokenizer;

use crate::constraint::Constraint;
use crate::scope::TaskScope;
use crate::state::{ConstraintState, Line, Machine, Mode, Scalar, PLAIN_CAP};
use crate::tables::Tables;

/// Entries one generation of the mask cache holds (the cache holds two), one
/// per mask key. A build walks the whole vocabulary through the automaton,
/// ~200 µs against the ~20 µs of a decode round, so the bound must never
/// throw away keys that are still in use: `offline_eval`'s pool had 4244
/// states when the cache was keyed by state, and when the map was cleared
/// wholesale at this size, rebuilding them was half of a pass (EXPERIMENTS.md,
/// "Every state builds its mask once").
const CACHE_CAP: usize = 4096;

/// A map bounded at two generations that forgets only what went unused: the
/// entries asked for since the last retirement are the young generation, the
/// rest the old one. A build that finds the map full retires a generation —
/// old is dropped, young becomes old.
///
/// Only builds bring a retirement closer; a hit marks its entry and adds
/// nothing. A recycled working set between one and two generations large
/// has to survive the few new states every pass brings: were hits to fill a
/// generation, such a set would fill one every pass, and the next build
/// would drop the part of it the pass had not reached yet.
struct MaskCache<K, V> {
    /// The value, and whether it was asked for since the last retirement.
    /// Keys are looked up once per decoded position, so they hash with
    /// [`FoldHash`] rather than SipHash.
    entries: HashMap<K, (V, bool), FoldHash>,
    generation: usize,
    /// Generations dropped so far.
    dropped: u64,
}

impl<K: Hash + Eq, V: Clone> MaskCache<K, V> {
    fn new(generation: usize) -> MaskCache<K, V> {
        MaskCache {
            entries: HashMap::default(),
            generation,
            dropped: 0,
        }
    }

    /// The entry for `key`, which now counts as young.
    fn get(&mut self, key: &K) -> Option<V> {
        let (value, young) = self.entries.get_mut(key)?;
        *young = true;
        Some(value.clone())
    }

    /// Adds an entry (old until someone asks for it), first retiring a
    /// generation if the map is full. Returns whether one was dropped.
    fn insert(&mut self, key: K, value: V) -> bool {
        let bound = 2 * self.generation;
        let full = self.entries.len() >= bound && !self.entries.contains_key(&key);
        if full {
            self.entries.retain(|_, (_, young)| std::mem::take(young));
            if self.entries.len() >= bound {
                // Every entry was young: the working set is past the bound,
                // and goes whole as it would from any map this size.
                self.entries.clear();
            }
            self.dropped += 1;
        }
        self.entries.insert(key, (value, false));
        full
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Canonical-close lengths of an entry's allowed tokens, as the excess over
/// the entry's shortest, one per allowed token in ascending id (bitset)
/// order, packed at the narrowest power-of-two width that holds the largest.
/// Within one state the closes mostly differ by two or three bytes — two
/// bits a token; a `(token, length)` list cost the serving workloads a sixth
/// more resident memory.
struct CloseDeltas {
    /// Bits per delta: 0 (all closes equal), 1, 2, 4, 8 or 16.
    width: usize,
    words: Box<[u64]>,
}

impl CloseDeltas {
    fn pack(deltas: impl ExactSizeIterator<Item = u32>, largest: u32) -> CloseDeltas {
        let width = match u32::BITS - largest.leading_zeros() {
            0 => 0,
            bits => bits.next_power_of_two() as usize,
        };
        let mut words = vec![0u64; (deltas.len() * width).div_ceil(64)];
        if width > 0 {
            for (rank, delta) in deltas.enumerate() {
                debug_assert!(delta <= largest);
                words[rank * width / 64] |= u64::from(delta) << (rank * width % 64);
            }
        }
        CloseDeltas {
            width,
            words: words.into(),
        }
    }

    fn get(&self, rank: usize) -> u32 {
        if self.width == 0 {
            return 0;
        }
        let at = rank * self.width;
        ((self.words[at / 64] >> (at % 64)) & ((1 << self.width) - 1)) as u32
    }
}

/// The token ids set in a vocabulary bitmask, ascending.
fn set_bits(mask: &[u64]) -> impl Iterator<Item = u32> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                w as u32 * 64 + bit
            })
        })
    })
}

/// What one walk of the vocabulary from one automaton state found.
struct CacheEntry {
    /// Bitmask over the vocabulary (bit set = token allowed).
    allowed: Vec<u64>,
    allowed_count: u32,
    /// The unique allowed token when `allowed_count == 1`.
    forced: Option<u32>,
    /// Min / max canonical-close length after any allowed token; the mask is
    /// budget-safe as it stands whenever `remaining >= worst_close + 2`.
    min_close: u32,
    worst_close: u32,
    /// Close length after each allowed token (end-of-sequence, which needs
    /// no close, holds a slot of 0).
    deltas: CloseDeltas,
}

impl CacheEntry {
    /// Length of the canonical close after `token`; `None` when the token is
    /// not allowed here (illegal bytes, or a post-state that cannot close).
    fn close_after(&self, token: u32) -> Option<u32> {
        let (word, bit) = (token as usize / 64, token % 64);
        let bits = *self.allowed.get(word)?;
        if bits & (1 << bit) == 0 {
            return None;
        }
        let before: u32 = self.allowed[..word].iter().map(|w| w.count_ones()).sum();
        let rank = before + (bits & ((1 << bit) - 1)).count_ones();
        Some(self.min_close + self.deltas.get(rank as usize))
    }

    /// The allowed tokens whose post-state still closes with one byte-token
    /// per remaining slot plus the end-of-sequence slot. End-of-sequence
    /// itself needs no room.
    fn within_budget(&self, remaining: u32, eot: u32) -> TightMask {
        let mut allowed = vec![0u64; self.allowed.len()];
        let mut count = 0u32;
        let mut first = None;
        for (rank, id) in set_bits(&self.allowed).enumerate() {
            if id == eot || self.min_close + self.deltas.get(rank) + 2 <= remaining {
                allowed[id as usize / 64] |= 1 << (id % 64);
                count += 1;
                first = first.or(Some(id));
            }
        }
        TightMask {
            allowed,
            count,
            forced: first.filter(|_| count == 1),
        }
    }
}

/// An entry's mask filtered down to what a tight budget still admits.
#[derive(Clone)]
struct TightMask {
    allowed: Vec<u64>,
    count: u32,
    forced: Option<u32>,
}

/// The mask of one `(state, remaining)`: the state's cached entry, plus its
/// budget-filtered subset when the close must be forced soon.
#[derive(Clone)]
struct Mask {
    entry: Arc<CacheEntry>,
    tight: Option<TightMask>,
}

impl Mask {
    fn allowed(&self) -> &[u64] {
        self.tight
            .as_ref()
            .map_or(&self.entry.allowed, |t| &t.allowed)
    }

    fn count(&self) -> u32 {
        self.tight
            .as_ref()
            .map_or(self.entry.allowed_count, |t| t.count)
    }

    fn forced(&self) -> Option<u32> {
        self.tight.as_ref().map_or(self.entry.forced, |t| t.forced)
    }
}

/// One cache miss: the walk it cost and what inserting its entry displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskBuild {
    /// Time spent walking the vocabulary through the automaton.
    pub elapsed: Duration,
    /// Whether the insert found the cache full and retired a generation
    /// (dropping the entries unasked for since the last retirement).
    pub dropped_generation: bool,
}

/// Counter snapshot for `/v1/stats` and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrammarStats {
    /// Fresh masks computed (one walk of the vocabulary each).
    pub mask_builds: u64,
    /// Mask requests served from the mask cache.
    pub cache_hits: u64,
    /// Budget-filtered masks derived from a cached entry.
    pub derived_masks: u64,
    /// Mask keys currently cached (both generations): states that differ
    /// only in what no mask can see share one entry.
    pub states_cached: u64,
    /// Cache generations dropped to stay within the bound.
    pub generations_dropped: u64,
}

/// Field-wise totals: a process holds one index per constraint and scope it
/// has served, and reports them as one.
impl std::iter::Sum for GrammarStats {
    fn sum<I: Iterator<Item = GrammarStats>>(stats: I) -> GrammarStats {
        stats.fold(GrammarStats::default(), |a, b| GrammarStats {
            mask_builds: a.mask_builds + b.mask_builds,
            cache_hits: a.cache_hits + b.cache_hits,
            derived_masks: a.derived_masks + b.derived_masks,
            states_cached: a.states_cached + b.states_cached,
            generations_dropped: a.generations_dropped + b.generations_dropped,
        })
    }
}

/// The compiled grammar bound to a tokenizer vocabulary.
///
/// Owns the byte table of every token, the schema tables, and the
/// mask key → mask cache. Shared (`Arc`) across all sequences of a model.
pub struct GrammarIndex {
    constraint: Constraint,
    /// Whether cursors stop at the end of the item the prompt opened
    /// ([`GrammarIndex::build_scoped`]).
    scoped: bool,
    mode: Mode,
    tables: Tables,
    /// Byte content per token id (empty for the specials).
    token_bytes: Vec<Box<[u8]>>,
    vocab_size: usize,
    eot: u32,
    /// Token ids grouped by first byte; tokens containing bytes the grammar
    /// can never emit are excluded up front.
    by_first: Vec<Vec<u32>>,
    /// The longest inline value whose length no mask can see: from here on
    /// no token's bytes reach [`PLAIN_CAP`] ([`Self::mask_key`]).
    plain_key_max: u8,
    cache: Mutex<MaskCache<ConstraintState, Arc<CacheEntry>>>,
    /// Canonical-close length of each cursor start state met so far
    /// (`None`: it cannot close). `start_state` returns at most 19 distinct
    /// states per index — a fresh document, a forced newline, and an open
    /// `- name:` item at each indent from 0 to 16 — so this needs no bound.
    start_closes: Mutex<HashMap<ConstraintState, Option<u32>, FoldHash>>,
    mask_builds: AtomicU64,
    cache_hits: AtomicU64,
    derived_masks: AtomicU64,
}

impl std::fmt::Debug for GrammarIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrammarIndex")
            .field("constraint", &self.constraint)
            .field("scoped", &self.scoped)
            .field("vocab_size", &self.vocab_size)
            .finish()
    }
}

/// Bytes the grammar can ever emit: printable ASCII plus newline.
fn plausible(b: u8) -> bool {
    b == b'\n' || (0x20..=0x7e).contains(&b)
}

impl GrammarIndex {
    /// Builds the index for `constraint`, classifying the whole vocabulary.
    /// Returns `None` for [`Constraint::None`].
    ///
    /// Cursors of this index describe the rest of the *document*: decoding
    /// runs until a stop token, end-of-sequence or the budget. That is what
    /// the evaluation harness wants (NL→PB output is scored whole) and the
    /// oracle [`Self::build_scoped`] is tested against.
    pub fn build(tokenizer: &BpeTokenizer, constraint: Constraint) -> Option<Arc<GrammarIndex>> {
        Self::compile(tokenizer, constraint, false)
    }

    /// [`Self::build`] for serving completions: *completion-scoped*. The
    /// masks are the same, but each [`GrammarCursor`] also remembers the
    /// column of the `- name:` item its prompt left open and reports the
    /// pick that would start a line at or left of that column
    /// ([`GrammarCursor::closes`]) — the line where first-task truncation
    /// stops keeping text — so decode loops end the sequence there instead
    /// of generating what will be discarded.
    pub fn build_scoped(
        tokenizer: &BpeTokenizer,
        constraint: Constraint,
    ) -> Option<Arc<GrammarIndex>> {
        Self::compile(tokenizer, constraint, true)
    }

    fn compile(
        tokenizer: &BpeTokenizer,
        constraint: Constraint,
        scoped: bool,
    ) -> Option<Arc<GrammarIndex>> {
        let mode = match constraint {
            Constraint::None => return None,
            Constraint::Yaml => Mode::Yaml,
            Constraint::Ansible => Mode::Ansible,
        };
        let vocab_size = tokenizer.vocab_size();
        let mut token_bytes = Vec::with_capacity(vocab_size);
        let mut by_first: Vec<Vec<u32>> = (0..256).map(|_| Vec::new()).collect();
        let mut longest = 0;
        for id in 0..vocab_size as u32 {
            let bytes = tokenizer.token_bytes(id).unwrap_or(&[]);
            if !bytes.is_empty() && bytes.iter().all(|&b| plausible(b)) {
                by_first[bytes[0] as usize].push(id);
                longest = longest.max(bytes.len());
            }
            token_bytes.push(bytes.to_vec().into_boxed_slice());
        }
        Some(Arc::new(GrammarIndex {
            constraint,
            scoped,
            mode,
            tables: Tables::build(),
            token_bytes,
            vocab_size,
            eot: tokenizer.eot(),
            by_first,
            plain_key_max: (PLAIN_CAP as usize).saturating_sub(longest + 8) as u8,
            cache: Mutex::new(MaskCache::new(CACHE_CAP)),
            start_closes: Mutex::default(),
            mask_builds: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            derived_masks: AtomicU64::new(0),
        }))
    }

    pub fn constraint(&self) -> Constraint {
        self.constraint
    }

    /// Whether this index was built completion-scoped.
    pub fn is_scoped(&self) -> bool {
        self.scoped
    }

    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    pub fn stats(&self) -> GrammarStats {
        let (states_cached, generations_dropped) = {
            let cache = self.cache.lock().expect("grammar cache lock");
            (cache.len() as u64, cache.dropped)
        };
        GrammarStats {
            mask_builds: self.mask_builds.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            derived_masks: self.derived_masks.load(Ordering::Relaxed),
            states_cached,
            generations_dropped,
        }
    }

    /// Drops all cached masks (benchmarks use this to measure cold builds).
    pub fn clear_cache(&self) {
        self.cache.lock().expect("grammar cache lock").clear();
    }

    fn machine(&self) -> Machine<'_> {
        Machine::new(&self.tables)
    }

    /// Byte content of `token` (empty for specials and out-of-range ids).
    fn bytes_of(&self, token: u32) -> &[u8] {
        self.token_bytes.get(token as usize).map_or(&[], |b| &b[..])
    }

    /// The bytes of a prompt that anchor a cursor: everything after the
    /// last special token.
    fn prompt_tail(&self, prompt_ids: &[u32]) -> Vec<u8> {
        let mut tail: Vec<u8> = Vec::new();
        for &id in prompt_ids {
            if id < 3 {
                tail.clear(); // special token: restart the document
            } else {
                tail.extend_from_slice(self.bytes_of(id));
            }
        }
        tail
    }

    /// `state` with what no mask can see forgotten: the key the mask cache,
    /// a build's post-state closes and the start closes are looked up by.
    /// The entry and the close are still computed from the exact state.
    ///
    /// An inline value's length is seen only near [`PLAIN_CAP`]: whether a
    /// byte may extend the value, and its close (a few bytes: a newline, a
    /// word's rest, a quote, a template's `}}`), depend on the scanner's
    /// state, not on how long the text is. Once `len + longest token + 8 <=
    /// PLAIN_CAP`, no token's bytes nor the close after them reach the cap,
    /// so every such length keys as 1.
    fn mask_key(&self, state: &ConstraintState) -> ConstraintState {
        let mut key = *state;
        if let Line::Value {
            s: Scalar { len, .. },
            ..
        } = &mut key.line
        {
            if *len <= self.plain_key_max {
                *len = 1;
            }
        }
        key
    }

    /// The canonical-close length of a cursor's start state: simulated the
    /// first time the index meets the state's key, read back after that.
    fn start_close(&self, state: &ConstraintState) -> Option<u32> {
        let mut closes = self.start_closes.lock().expect("start close lock");
        *closes
            .entry(self.mask_key(state))
            .or_insert_with(|| self.machine().close_len(state, None))
    }

    /// Walks every plausible token from `state` through the automaton: the
    /// allowed set, and the canonical-close length each allowed token leaves.
    fn compute_mask(&self, state: &ConstraintState) -> CacheEntry {
        let m = self.machine();
        // (token, close length after it), collected in walk order.
        let mut found: Vec<(u32, u32)> = Vec::new();
        if m.accepting(state) {
            found.push((self.eot, 0));
        }
        // Post-state key → its close (`None`: it cannot close). A walk's few
        // hundred legal tokens land in a few dozen post-state keys (in a
        // plain scalar, tokens of every length land in one), and a close is
        // a simulation of some twenty bytes: each is run once. Sized for the
        // few dozen a walk usually meets.
        let mut closes: HashMap<ConstraintState, Option<u32>, FoldHash> =
            HashMap::with_capacity_and_hasher(64, FoldHash::default());
        let (mut min, mut worst) = (u32::MAX, 0u32);
        for b in 0..=255u8 {
            if self.by_first[b as usize].is_empty() {
                continue;
            }
            let Some(after_first) = m.advance(state, b) else {
                continue;
            };
            for &id in &self.by_first[b as usize] {
                let rest = &self.token_bytes[id as usize][1..];
                let Some(next) = rest
                    .iter()
                    .try_fold(after_first, |st, &b| m.advance(&st, b))
                else {
                    continue;
                };
                let close = *closes
                    .entry(self.mask_key(&next))
                    .or_insert_with(|| m.close_len(&next, None));
                if let Some(est) = close {
                    found.push((id, est));
                    min = min.min(est);
                    worst = worst.max(est);
                }
            }
        }
        let min = min.min(worst); // no byte token allowed: both 0
        found.sort_unstable_by_key(|&(id, _)| id);
        let mut allowed = vec![0u64; self.vocab_size.div_ceil(64)];
        for &(id, _) in &found {
            allowed[id as usize / 64] |= 1 << (id % 64);
        }
        // End-of-sequence was noted with a close of 0: its slot holds 0.
        let deltas = CloseDeltas::pack(
            found.iter().map(|&(_, est)| est.saturating_sub(min)),
            worst - min,
        );
        CacheEntry {
            allowed,
            allowed_count: found.len() as u32,
            forced: match found[..] {
                [(only, _)] => Some(only),
                _ => None,
            },
            min_close: min,
            worst_close: worst,
            deltas,
        }
    }

    /// The entry of `state`: from the cache under the state's mask key (one
    /// lock), or built now from the state and cached — the only place a mask
    /// is ever computed.
    fn entry_for(&self, state: &ConstraintState) -> (Arc<CacheEntry>, Option<MaskBuild>) {
        let key = self.mask_key(state);
        if let Some(entry) = self.cache.lock().expect("grammar cache lock").get(&key) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return (entry, None);
        }
        // Built outside the lock: other sequences keep hitting meanwhile.
        let started = Instant::now();
        let entry = Arc::new(self.compute_mask(state));
        let elapsed = started.elapsed();
        self.mask_builds.fetch_add(1, Ordering::Relaxed);
        let dropped_generation = self
            .cache
            .lock()
            .expect("grammar cache lock")
            .insert(key, Arc::clone(&entry));
        let build = MaskBuild {
            elapsed,
            dropped_generation,
        };
        (entry, Some(build))
    }

    /// Allowed mask for `(state, remaining)`: the state's entry as it stands
    /// when the budget is comfortable, filtered by the close lengths the
    /// entry keeps when the close must be forced soon.
    fn mask_for(&self, state: &ConstraintState, remaining: u32) -> (Mask, Option<MaskBuild>) {
        let (entry, build) = self.entry_for(state);
        let tight = (remaining < entry.worst_close + 2).then(|| {
            self.derived_masks.fetch_add(1, Ordering::Relaxed);
            entry.within_budget(remaining, self.eot)
        });
        (Mask { entry, tight }, build)
    }
}

/// Result of applying the mask to one logit row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskOutcome {
    /// The single legal token, when only one continuation exists.
    pub forced: Option<u32>,
    /// Vocabulary entries masked to `-inf`.
    pub masked: u32,
    /// The walk this lookup cost, when the state's mask had to be built;
    /// `None` when it was already there — in the mask cache, or looked up
    /// earlier at this position.
    pub built: Option<MaskBuild>,
    /// Whether the cursor actually constrained this row (false in bypass).
    pub active: bool,
}

impl MaskOutcome {
    fn inactive() -> MaskOutcome {
        MaskOutcome {
            forced: None,
            masked: 0,
            built: None,
            active: false,
        }
    }
}

/// Per-sequence grammar position: advances token-by-token alongside the
/// decode loop and masks each logit row before the argmax/sample pick.
///
/// Robustness contract: a cursor never breaks a decode. If the prompt tail
/// is unparseable, the token budget cannot fit a legal close, or an
/// externally chosen token is illegal, the cursor flips to *bypass* and all
/// further calls are no-ops.
///
/// A cursor of a completion-scoped index ([`GrammarIndex::build_scoped`])
/// additionally tracks where the task the prompt opened ends: see
/// [`Self::closes`]. That tracking reads bytes only, so it keeps running in
/// bypass — first-task truncation applies to unconstrained text too.
#[derive(Clone)]
pub struct GrammarCursor {
    index: Arc<GrammarIndex>,
    state: ConstraintState,
    remaining: u32,
    bypass: bool,
    done: bool,
    /// First-task boundary scanner; `None` for unscoped indices and for
    /// prompts that do not end on a `- name:` line.
    scope: Option<TaskScope>,
    /// The scope closed inside a token that was advanced past (one that
    /// straddles a newline): the sequence ends at the next pick.
    closed: bool,
    /// The mask of the current `(state, remaining)`, looked up at most once
    /// per position: `peek`, `apply` and `advance` all read this one.
    mask: OnceLock<Mask>,
}

impl std::fmt::Debug for GrammarCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrammarCursor")
            .field("remaining", &self.remaining)
            .field("bypass", &self.bypass)
            .field("done", &self.done)
            .field("scope", &self.scope)
            .field("closed", &self.closed)
            .finish()
    }
}

impl GrammarCursor {
    /// Anchors a cursor at the end of `prompt_ids` with `max_new` tokens of
    /// budget. When even the canonical close cannot fit, the cursor starts
    /// in bypass mode rather than producing an empty mask later.
    pub fn new(index: Arc<GrammarIndex>, prompt_ids: &[u32], max_new: usize) -> GrammarCursor {
        let tail = index.prompt_tail(prompt_ids);
        let state = index.machine().start_state(index.mode, &tail);
        let bypass = match index.start_close(&state) {
            Some(est) => (est as usize) + 1 > max_new,
            None => true,
        };
        let scope = index.scoped.then(|| TaskScope::of_prompt(&tail)).flatten();
        GrammarCursor {
            index,
            state,
            remaining: max_new.min(u32::MAX as usize) as u32,
            bypass,
            done: false,
            scope,
            closed: false,
            mask: OnceLock::new(),
        }
    }

    /// Whether picking `token` next would close the completion: its first
    /// non-space byte lands at or left of the column of the `- name:` item
    /// the prompt opened, on a line nothing else has been written to. Decode
    /// loops treat such a pick like a stop token — chosen, never emitted, no
    /// forward pass spent on it. The rule is the one first-task truncation
    /// applies to the finished text, so the suggestion built from the
    /// shorter output is the same. Always `false` for unscoped cursors.
    ///
    /// A token that reaches the closing byte only *after* a newline of its
    /// own still carries text of a kept line: it does not close here, is
    /// emitted, and every pick after it closes.
    pub fn closes(&self, token: u32) -> bool {
        let Some(mut scan) = self.scope else {
            return false;
        };
        if self.closed {
            return true;
        }
        let bytes = self.index.bytes_of(token);
        scan.feed(bytes)
            .is_some_and(|at| !bytes[..at].contains(&b'\n'))
    }

    /// Whether the cursor is still constraining picks.
    pub fn is_active(&self) -> bool {
        !self.bypass && !self.done
    }

    /// Whether end-of-sequence is legal right now.
    pub fn accepting(&self) -> bool {
        !self.bypass && self.index.machine().accepting(&self.state)
    }

    pub fn index(&self) -> &Arc<GrammarIndex> {
        &self.index
    }

    /// The mask at the current position, and the build it cost if this call
    /// is the one that had to compute it.
    fn mask(&self) -> (&Mask, Option<MaskBuild>) {
        let mut built = None;
        let mask = self.mask.get_or_init(|| {
            let (mask, build) = self.index.mask_for(&self.state, self.remaining);
            built = build;
            mask
        });
        (mask, built)
    }

    /// What [`Self::apply`] would report at this position, before any logits
    /// exist (`masked` is 0): the forced token if exactly one continuation
    /// is legal, and what finding that out cost.
    pub fn peek(&self) -> MaskOutcome {
        if !self.is_active() {
            return MaskOutcome::inactive();
        }
        let (mask, built) = self.mask();
        MaskOutcome {
            forced: mask.forced(),
            masked: 0,
            built,
            active: true,
        }
    }

    /// The single legal next token, if exactly one exists (fast path: the
    /// caller may skip the logit mask and sampling entirely, which also
    /// keeps greedy/sampled runs byte-identical on forced stretches).
    pub fn next_forced(&self) -> Option<u32> {
        self.peek().forced
    }

    /// The greedy pick over the legal entries of `logits`, and what
    /// [`Self::apply`] would report for the row: exactly the token `apply`
    /// followed by an argmax would return — the forced token when there is
    /// one, else the first largest legal logit in ascending id (ties go to
    /// the smaller id, NaN never wins), and id 0 when no legal logit is
    /// above `-inf` — with the same `masked` count. Only the legal set is
    /// read and the row is left as it is. `None` when the cursor is not
    /// constraining (where `apply` leaves the row alone).
    pub fn pick_greedy(&self, logits: &[f32]) -> Option<(u32, MaskOutcome)> {
        if !self.is_active() {
            return None;
        }
        let (mask, built) = self.mask();
        let n = logits.len().min(self.index.vocab_size);
        let (mut best, mut best_logit, mut legal) = (0u32, f32::NEG_INFINITY, 0u32);
        for id in set_bits(mask.allowed()).take_while(|&id| (id as usize) < n) {
            legal += 1;
            let logit = logits[id as usize];
            if logit > best_logit {
                (best, best_logit) = (id, logit);
            }
        }
        let outcome = MaskOutcome {
            forced: mask.forced(),
            masked: logits.len() as u32 - legal,
            built,
            active: true,
        };
        Some((outcome.forced.unwrap_or(best), outcome))
    }

    /// Masks illegal entries of `logits` to `-inf`, for the picks that read
    /// the whole row: top-k sampling never picks them (`exp(-inf) == 0`),
    /// and beam expansion never extends by them. Greedy picks take
    /// [`Self::pick_greedy`] instead, which reads only the legal entries.
    pub fn apply(&self, logits: &mut [f32]) -> MaskOutcome {
        if !self.is_active() {
            return MaskOutcome::inactive();
        }
        let (mask, built) = self.mask();
        debug_assert!(
            mask.count() > 0,
            "grammar mask must never be empty while active"
        );
        let allowed = mask.allowed();
        let n = logits.len().min(self.index.vocab_size);
        let mut masked = 0u32;
        for (i, l) in logits.iter_mut().enumerate().take(n) {
            if allowed[i / 64] & (1 << (i % 64)) == 0 {
                *l = f32::NEG_INFINITY;
                masked += 1;
            }
        }
        for l in logits.iter_mut().skip(n) {
            *l = f32::NEG_INFINITY;
            masked += 1;
        }
        MaskOutcome {
            forced: mask.forced(),
            masked,
            built,
            active: true,
        }
    }

    /// Advances past a chosen token. Returns `false` (and flips to bypass)
    /// when the token is illegal — callers treat that as "constraint off",
    /// never as an error.
    pub fn advance(&mut self, token: u32) -> bool {
        if let Some(scan) = &mut self.scope {
            self.closed |= scan.feed(self.index.bytes_of(token)).is_some();
        }
        if self.bypass || self.done {
            return true;
        }
        if token == self.index.eot {
            if self.index.machine().accepting(&self.state) {
                self.done = true;
                return true;
            }
            self.bypass = true;
            return false;
        }
        // The state's entry says whether the token is legal here and how
        // long the close after it is. Mirror the mask's budget filter: a
        // token that is grammar-legal but leaves no room to close (possible
        // for externally proposed tokens, e.g. n-gram speculative drafts) is
        // rejected the same way the mask would have rejected it.
        let m = self.index.machine();
        let next = self
            .mask()
            .0
            .entry
            .close_after(token)
            .filter(|est| est + 2 <= self.remaining)
            .and_then(|_| {
                let bytes = self.index.bytes_of(token);
                bytes
                    .iter()
                    .try_fold(self.state, |st, &b| m.advance(&st, b))
            });
        match next {
            Some(next) => {
                self.state = next;
                self.remaining -= 1;
                self.mask = OnceLock::new();
                true
            }
            None => {
                self.bypass = true;
                false
            }
        }
    }

    /// How many leading tokens of `tokens` this cursor could legally accept
    /// in sequence from its current state (grammar- *and* budget-legal),
    /// stopping short of a token that [`Self::closes`] the completion.
    ///
    /// Speculative drafters call this to pre-truncate a proposal before the
    /// verify pass, so a constrained verifier never spends forward-pass rows
    /// on tokens the mask would reject anyway, nor on tokens past the end
    /// of the task. The cursor itself is not moved. Cursors that neither
    /// constrain nor scope accept everything.
    pub fn legal_prefix_len(&self, tokens: &[u32]) -> usize {
        if !self.is_active() && self.scope.is_none() {
            return tokens.len();
        }
        let mut probe = self.clone();
        let mut n = 0;
        for &t in tokens {
            if probe.closes(t) || !probe.advance(t) {
                break;
            }
            n += 1;
            if probe.done {
                break; // reached a legal end-of-sequence
            }
        }
        n
    }
}

#[cfg(test)]
mod tests;
