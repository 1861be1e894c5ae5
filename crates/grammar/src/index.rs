//! Token-level projection of the byte automaton onto a live BPE vocabulary:
//! per-state allowed-token masks with caching, a forced-token fast path,
//! and the per-sequence [`GrammarCursor`] decode paths drive.
//!
//! One invariant: an automaton state is walked over the vocabulary once
//! ([`GrammarIndex::compute_mask`]). What the walk learns — which tokens are
//! legal and how long the canonical close is after each — is kept in the
//! state's [`CacheEntry`]; budget-filtered masks and [`GrammarCursor::advance`]
//! read it from there instead of walking again.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use wisdom_tokenizer::BpeTokenizer;

use crate::constraint::Constraint;
use crate::scope::TaskScope;
use crate::state::{ConstraintState, Machine, Mode};
use crate::tables::Tables;

/// Entries one generation of the mask cache holds (the cache holds two). A
/// build walks the whole vocabulary through the automaton, ~200 µs against
/// the ~20 µs of a decode round, so the bound must never throw away states
/// that are still in use: `offline_eval`'s pool has 4244 states, and when
/// the map was cleared wholesale at this size, rebuilding them was half of
/// a pass (EXPERIMENTS.md, "Every state builds its mask once").
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
    entries: HashMap<K, (V, bool)>,
    generation: usize,
    /// Generations dropped so far.
    dropped: u64,
}

impl<K: Hash + Eq, V: Clone> MaskCache<K, V> {
    fn new(generation: usize) -> MaskCache<K, V> {
        MaskCache {
            entries: HashMap::new(),
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
    /// Mask requests served from the state cache.
    pub cache_hits: u64,
    /// Budget-filtered masks derived from a cached entry.
    pub derived_masks: u64,
    /// States currently cached (both generations).
    pub states_cached: u64,
    /// Cache generations dropped to stay within the bound.
    pub generations_dropped: u64,
    /// Single-legal-token fast-path hits.
    pub forced_hits: u64,
    /// Total vocabulary entries masked out across all applies.
    pub masked_total: u64,
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
            forced_hits: a.forced_hits + b.forced_hits,
            masked_total: a.masked_total + b.masked_total,
        })
    }
}

/// The compiled grammar bound to a tokenizer vocabulary.
///
/// Owns the byte table of every token, the schema tables, and the
/// state → mask cache. Shared (`Arc`) across all sequences of a model.
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
    cache: Mutex<MaskCache<ConstraintState, Arc<CacheEntry>>>,
    mask_builds: AtomicU64,
    cache_hits: AtomicU64,
    derived_masks: AtomicU64,
    forced_hits: AtomicU64,
    masked_total: AtomicU64,
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
        for id in 0..vocab_size as u32 {
            let bytes = tokenizer.token_bytes(id).unwrap_or(&[]);
            if !bytes.is_empty() && bytes.iter().all(|&b| plausible(b)) {
                by_first[bytes[0] as usize].push(id);
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
            cache: Mutex::new(MaskCache::new(CACHE_CAP)),
            mask_builds: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            derived_masks: AtomicU64::new(0),
            forced_hits: AtomicU64::new(0),
            masked_total: AtomicU64::new(0),
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
            forced_hits: self.forced_hits.load(Ordering::Relaxed),
            masked_total: self.masked_total.load(Ordering::Relaxed),
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

    /// Simulates one token's bytes from `state`; `None` if any byte is
    /// illegal or the resulting state cannot close canonically.
    fn advance_token(
        &self,
        m: &Machine<'_>,
        state: &ConstraintState,
        bytes: &[u8],
    ) -> Option<(ConstraintState, u32)> {
        let mut cur = *state;
        for &b in bytes {
            cur = m.advance(&cur, b)?;
        }
        let est = m.close_len(&cur, None)?;
        Some((cur, est))
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
        let (mut min, mut worst) = (u32::MAX, 0u32);
        for b in 0..=255u8 {
            if self.by_first[b as usize].is_empty() || m.advance(state, b).is_none() {
                continue;
            }
            for &id in &self.by_first[b as usize] {
                let bytes = &self.token_bytes[id as usize];
                if let Some((_, est)) = self.advance_token(&m, state, bytes) {
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

    /// The entry of `state`: from the cache (one lock), or built now and
    /// cached — the only place a mask is ever computed.
    fn entry_for(&self, state: &ConstraintState) -> (Arc<CacheEntry>, Option<MaskBuild>) {
        if let Some(entry) = self.cache.lock().expect("grammar cache lock").get(state) {
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
            .insert(*state, Arc::clone(&entry));
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
    /// `None` when it was already there — in the state cache, or looked up
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
        let est = index.machine().close_len(&state, None);
        let bypass = match est {
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
        let forced = mask.forced();
        if forced.is_some() {
            self.index.forced_hits.fetch_add(1, Ordering::Relaxed);
        }
        MaskOutcome {
            forced,
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

    /// Masks illegal entries of `logits` to `-inf`. The existing argmax and
    /// top-k samplers then never pick them (`exp(-inf) == 0`), and whenever
    /// the unconstrained argmax is legal the pick is bit-identical to the
    /// unconstrained decode.
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
        self.index
            .masked_total
            .fetch_add(masked as u64, Ordering::Relaxed);
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

    /// Test/bench hook: the canonical close bytes from the current state.
    pub fn canonical_close(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.index
            .machine()
            .close_len(&self.state, Some(&mut out))
            .map(|_| out)
    }
}

#[cfg(test)]
mod tests;
