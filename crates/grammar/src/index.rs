//! Token-level projection of the byte automaton onto a live BPE vocabulary:
//! per-state allowed-token masks with caching, a forced-token fast path,
//! and the per-sequence [`GrammarCursor`] decode paths drive.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wisdom_tokenizer::BpeTokenizer;

use crate::constraint::Constraint;
use crate::scope::TaskScope;
use crate::state::{ConstraintState, Machine, Mode};
use crate::tables::Tables;

/// Mask-cache capacity: cleared wholesale when full (states are tiny and
/// rebuilds are cheap relative to an unbounded map).
const CACHE_CAP: usize = 4096;

/// One cached allowed-token mask.
struct CacheEntry {
    /// Bitmask over the vocabulary (bit set = token allowed).
    allowed: Arc<Vec<u64>>,
    allowed_count: u32,
    /// The unique allowed token when `allowed_count == 1`.
    forced: Option<u32>,
    /// Max canonical-close length after any allowed token; the cached mask
    /// is budget-safe whenever `remaining >= worst_close + 2`.
    worst_close: u32,
}

/// Counter snapshot for `/v1/stats` and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrammarStats {
    /// Fresh masks computed.
    pub mask_builds: u64,
    /// Mask requests served from the state cache.
    pub cache_hits: u64,
    /// States currently cached.
    pub states_cached: u64,
    /// Single-legal-token fast-path hits.
    pub forced_hits: u64,
    /// Total vocabulary entries masked out across all applies.
    pub masked_total: u64,
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
    cache: Mutex<HashMap<ConstraintState, CacheEntry>>,
    mask_builds: AtomicU64,
    cache_hits: AtomicU64,
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
            cache: Mutex::new(HashMap::new()),
            mask_builds: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
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
        GrammarStats {
            mask_builds: self.mask_builds.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            states_cached: self.cache.lock().expect("grammar cache lock").len() as u64,
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

    /// Computes the allowed mask for `state`, keeping only tokens whose
    /// post-state can still close within `budget` further tokens... bytes.
    /// `budget == u32::MAX` means unfiltered.
    fn compute_mask(&self, state: &ConstraintState, budget: u32) -> CacheEntry {
        let m = self.machine();
        let words = self.vocab_size.div_ceil(64);
        let mut allowed = vec![0u64; words];
        let mut count = 0u32;
        let mut forced = None;
        let mut worst = 0u32;
        let mut note = |id: u32, allowed: &mut Vec<u64>| {
            allowed[id as usize / 64] |= 1 << (id % 64);
            count += 1;
            forced = if count == 1 { Some(id) } else { None };
        };
        if m.accepting(state) {
            note(self.eot, &mut allowed);
        }
        for b in 0..=255u8 {
            if self.by_first[b as usize].is_empty() || m.advance(state, b).is_none() {
                continue;
            }
            for &id in &self.by_first[b as usize] {
                let bytes = &self.token_bytes[id as usize];
                if let Some((_, est)) = self.advance_token(&m, state, bytes) {
                    // The post-state must close with one byte-token per
                    // remaining slot plus the EOS slot.
                    if budget == u32::MAX || est + 2 <= budget {
                        note(id, &mut allowed);
                        worst = worst.max(est);
                    }
                }
            }
        }
        self.mask_builds.fetch_add(1, Ordering::Relaxed);
        CacheEntry {
            allowed: Arc::new(allowed),
            allowed_count: count,
            forced,
            worst_close: worst,
        }
    }

    /// Allowed mask for `(state, remaining)`: cached when the budget is
    /// comfortable, recomputed filtered when the close must be forced soon.
    fn mask_for(
        &self,
        state: &ConstraintState,
        remaining: u32,
    ) -> (Arc<Vec<u64>>, u32, Option<u32>, bool) {
        {
            let cache = self.cache.lock().expect("grammar cache lock");
            if let Some(e) = cache.get(state) {
                if remaining >= e.worst_close + 2 {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return (Arc::clone(&e.allowed), e.allowed_count, e.forced, true);
                }
            }
        }
        let tight = {
            // Peek the cached worst_close (if any) to decide whether a
            // budget-filtered, uncacheable mask is needed.
            let cache = self.cache.lock().expect("grammar cache lock");
            cache.get(state).map(|e| e.worst_close + 2 > remaining)
        };
        if tight != Some(true) {
            let entry = self.compute_mask(state, u32::MAX);
            if remaining >= entry.worst_close + 2 {
                let out = (
                    Arc::clone(&entry.allowed),
                    entry.allowed_count,
                    entry.forced,
                    false,
                );
                let mut cache = self.cache.lock().expect("grammar cache lock");
                if cache.len() >= CACHE_CAP {
                    cache.clear();
                }
                cache.insert(*state, entry);
                return out;
            }
            // Cache the unfiltered mask for future generous budgets, then
            // fall through to the filtered computation.
            let mut cache = self.cache.lock().expect("grammar cache lock");
            if cache.len() >= CACHE_CAP {
                cache.clear();
            }
            cache.insert(*state, entry);
        }
        let entry = self.compute_mask(state, remaining);
        (entry.allowed, entry.allowed_count, entry.forced, false)
    }
}

/// Result of applying the mask to one logit row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskOutcome {
    /// The single legal token, when only one continuation exists.
    pub forced: Option<u32>,
    /// Vocabulary entries masked to `-inf`.
    pub masked: u32,
    /// Whether the mask came from the state cache.
    pub cache_hit: bool,
    /// Whether the cursor actually constrained this row (false in bypass).
    pub active: bool,
}

impl MaskOutcome {
    fn inactive() -> MaskOutcome {
        MaskOutcome {
            forced: None,
            masked: 0,
            cache_hit: false,
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

    /// The single legal next token, if exactly one exists (fast path: the
    /// caller may skip the logit mask and sampling entirely, which also
    /// keeps greedy/sampled runs byte-identical on forced stretches).
    pub fn next_forced(&self) -> Option<u32> {
        if !self.is_active() {
            return None;
        }
        let (_, _, forced, _) = self.index.mask_for(&self.state, self.remaining);
        if forced.is_some() {
            self.index.forced_hits.fetch_add(1, Ordering::Relaxed);
        }
        forced
    }

    /// Masks illegal entries of `logits` to `-inf`. The existing argmax and
    /// top-k samplers then never pick them (`exp(-inf) == 0`), and whenever
    /// the unconstrained argmax is legal the pick is bit-identical to the
    /// unconstrained decode.
    pub fn apply(&self, logits: &mut [f32]) -> MaskOutcome {
        if !self.is_active() {
            return MaskOutcome::inactive();
        }
        let (allowed, count, forced, cache_hit) = self.index.mask_for(&self.state, self.remaining);
        debug_assert!(count > 0, "grammar mask must never be empty while active");
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
            forced,
            masked,
            cache_hit,
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
        let m = self.index.machine();
        let bytes = self.index.bytes_of(token);
        if bytes.is_empty() {
            self.bypass = true;
            return false;
        }
        // Mirror the mask's budget filter: a token that is grammar-legal but
        // leaves no room to close (possible for externally proposed tokens,
        // e.g. n-gram speculative drafts) is rejected the same way the mask
        // would have rejected it.
        match self.index.advance_token(&m, &self.state, bytes) {
            Some((next, est)) if est + 2 <= self.remaining => {
                self.state = next;
                self.remaining -= 1;
                true
            }
            _ => {
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
