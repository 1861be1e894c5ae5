//! The mask cache's generations; the two things the served path now reads
//! from a cached entry — budget-filtered masks and `advance` — and the
//! entry itself, built with one close simulation per post-state key,
//! checked against the walks they replaced; start closes read from the
//! index's map; the legal-only greedy pick against the masked row's argmax;
//! and the mask key, whose entry must be the exact state's.

use std::collections::HashSet;

use proptest::prelude::*;

use super::*;
use crate::walk_tests::{fixture, Lcg};

// ---- MaskCache at a generation of 4 ----------------------------------------

fn filled(keys: std::ops::Range<u32>) -> MaskCache<u32, u32> {
    let mut cache = MaskCache::new(4);
    for k in keys {
        cache.insert(k, k * 10);
    }
    cache
}

#[test]
fn a_hit_on_old_promotes() {
    let mut cache = filled(0..8); // two generations: the map is full
    assert_eq!((cache.len(), cache.dropped), (8, 0));
    assert_eq!(cache.get(&2), Some(20));
    // The next build retires a generation: what nobody asked for goes.
    assert!(cache.insert(8, 80));
    assert_eq!((cache.len(), cache.dropped), (2, 1));
    assert_eq!(cache.get(&2), Some(20));
    assert_eq!(cache.get(&0), None);
    assert_eq!(cache.get(&8), Some(80));
}

#[test]
fn an_entry_untouched_for_a_whole_generation_is_dropped() {
    let mut cache = filled(0..8);
    assert_eq!(cache.get(&1), Some(10));
    cache.insert(8, 0); // retires: 1 (young) becomes old, the rest is dropped
    assert_eq!(cache.get(&3), None);
    for k in 9..15 {
        cache.insert(k, 0);
    }
    assert_eq!(cache.len(), 8);
    // 1 was asked for before the first retirement and never since.
    assert_eq!(cache.get(&9), Some(0));
    cache.insert(15, 0);
    assert_eq!(cache.dropped, 2);
    assert_eq!(cache.entries.get(&1), None, "went a generation unasked for");
    assert_eq!(cache.get(&9), Some(0), "asked for, so kept");
}

#[test]
fn len_stays_within_two_generations_and_clear_empties_both() {
    let mut cache = MaskCache::new(4);
    let mut rng = Lcg(7);
    for i in 0..400u32 {
        if rng.pick(3) == 0 {
            cache.get(&(rng.pick(40) as u32));
        } else {
            cache.insert(i % 40, i);
        }
        assert!(cache.len() <= 8);
    }
    assert!(cache.dropped > 0);
    // Every entry in use when a build finds the map full: nothing to tell
    // apart, so all of it goes and the bound holds.
    let mut cache = filled(0..8);
    for k in 0..8 {
        cache.get(&k);
    }
    assert!(cache.insert(8, 0));
    assert_eq!(cache.len(), 1);

    let mut cache = filled(0..6);
    cache.get(&1);
    cache.clear();
    assert_eq!(cache.len(), 0);
    assert_eq!(cache.get(&1), None);
}

#[test]
fn a_recycled_set_over_one_generation_survives_a_trickle_of_new_keys() {
    // Six keys against a generation of four, asked for round after round
    // while each round also builds one key nobody asks for again. Hits must
    // not bring a retirement closer (six hits a round would fill a
    // generation every round), and a retirement must keep what the round
    // has asked for.
    let mut cache = filled(0..6);
    for round in 0..40 {
        for k in 0..6 {
            assert_eq!(cache.get(&k), Some(k * 10), "round {round}");
        }
        cache.insert(100 + round, 0);
    }
    // Two one-off keys fit beside the six: one retirement per two rounds,
    // once the map has filled.
    assert_eq!(cache.dropped, 19);
    // Re-inserting a key the map already holds is no reason to retire.
    let mut cache = filled(0..8);
    assert!(!cache.insert(0, 0));
    assert_eq!(cache.len(), 8);
}

#[test]
fn clear_cache_forces_a_build() {
    let (tok, _, _) = fixture();
    let index = GrammarIndex::build(tok, Constraint::Ansible).expect("index");
    let prompt = tok.encode("- name: Cold and warm\n");
    let cold = GrammarCursor::new(Arc::clone(&index), &prompt, 64).peek();
    assert!(cold.built.is_some());
    let warm = GrammarCursor::new(Arc::clone(&index), &prompt, 64).peek();
    assert!(warm.built.is_none());
    index.clear_cache();
    assert_eq!(index.stats().states_cached, 0);
    let again = GrammarCursor::new(Arc::clone(&index), &prompt, 64).peek();
    assert!(again.built.is_some());
    assert_eq!(index.stats().mask_builds, 2);
}

#[test]
fn close_deltas_round_trip_at_every_width() {
    for (largest, width) in [
        (0u32, 0),
        (1, 1),
        (3, 2),
        (4, 4),
        (15, 4),
        (16, 8),
        (255, 8),
        (256, 16),
        (4096, 16),
    ] {
        let values: Vec<u32> = (0..203u32)
            .map(|i| (i * 7919) % (largest + 1))
            .chain([largest])
            .collect();
        let packed = CloseDeltas::pack(values.iter().copied(), largest);
        assert_eq!(packed.width, width, "largest {largest}");
        assert_eq!(packed.words.len(), (values.len() * width).div_ceil(64));
        for (rank, &value) in values.iter().enumerate() {
            assert_eq!(packed.get(rank), value, "largest {largest}, rank {rank}");
        }
    }
}

// ---- the oracles: the walks the entry replaced -----------------------------

/// One token's bytes simulated from `state`, and the canonical close of
/// where they land simulated from scratch; `None` if any byte is illegal
/// or the post-state cannot close. What every walk used to run per token.
fn walked_token(
    index: &GrammarIndex,
    state: &ConstraintState,
    bytes: &[u8],
) -> Option<(ConstraintState, u32)> {
    let m = index.machine();
    let next = bytes.iter().try_fold(*state, |st, &b| m.advance(&st, b))?;
    Some((next, m.close_len(&next, None)?))
}

/// `compute_mask` as it was: every plausible token walked and its close
/// simulated on its own. Returns each allowed token with its close length,
/// ascending.
fn per_token_entry(index: &GrammarIndex, state: &ConstraintState) -> Vec<(u32, u32)> {
    let mut found = Vec::new();
    if index.machine().accepting(state) {
        found.push((index.eot, 0));
    }
    for ids in &index.by_first {
        for &id in ids {
            if let Some((_, est)) = walked_token(index, state, &index.token_bytes[id as usize]) {
                found.push((id, est));
            }
        }
    }
    found.sort_unstable();
    found
}

/// An entry as the `(token, close length)` pairs it answers for (0 for
/// end-of-sequence, which `advance` never asks the entry about), checked
/// against its summary fields.
fn entry_closes(index: &GrammarIndex, entry: &CacheEntry) -> Vec<(u32, u32)> {
    let closes: Vec<(u32, u32)> = set_bits(&entry.allowed)
        .map(|id| match id == index.eot {
            true => (id, 0),
            false => (id, entry.close_after(id).expect("allowed")),
        })
        .collect();
    assert_eq!(entry.allowed_count as usize, closes.len());
    let only = match closes[..] {
        [(id, _)] => Some(id),
        _ => None,
    };
    assert_eq!(entry.forced, only);
    let byte_closes = closes.iter().filter(|&&(id, _)| id != index.eot);
    assert_eq!(
        entry.worst_close,
        byte_closes.clone().map(|&(_, c)| c).max().unwrap_or(0)
    );
    assert_eq!(
        entry.min_close,
        byte_closes.map(|&(_, c)| c).min().unwrap_or(0)
    );
    closes
}

/// The budget-filtered walk `mask_for` used to run for every tight
/// `(state, remaining)`: every token walked again, kept when its post-state
/// can still close within `budget`. Returns (bitset, count, forced).
fn filtered_walk(
    index: &GrammarIndex,
    state: &ConstraintState,
    budget: u32,
) -> (Vec<u64>, u32, Option<u32>) {
    let m = index.machine();
    let mut allowed = vec![0u64; index.vocab_size.div_ceil(64)];
    let mut count = 0u32;
    let mut forced = None;
    let mut note = |id: u32| {
        allowed[id as usize / 64] |= 1 << (id % 64);
        count += 1;
        forced = if count == 1 { Some(id) } else { None };
    };
    if m.accepting(state) {
        note(index.eot);
    }
    for (b, ids) in index.by_first.iter().enumerate() {
        if m.advance(state, b as u8).is_none() {
            continue;
        }
        for &id in ids {
            let bytes = &index.token_bytes[id as usize];
            if let Some((_, est)) = walked_token(index, state, bytes) {
                if est + 2 <= budget {
                    note(id);
                }
            }
        }
    }
    (allowed, count, forced)
}

/// What the cursor is left with after `advance(token)`.
type Position = (ConstraintState, u32, bool, bool);

fn position(c: &GrammarCursor) -> Position {
    (c.state, c.remaining, c.bypass, c.done)
}

/// `GrammarCursor::advance` as it was: the token's bytes walked, then the
/// canonical close of the post-state walked for its length.
fn walked_advance(index: &GrammarIndex, from: Position, token: u32) -> Position {
    let (state, remaining, ..) = from;
    let m = index.machine();
    if token == index.eot {
        let accepting = m.accepting(&state);
        return (state, remaining, !accepting, accepting);
    }
    let bytes = index.bytes_of(token);
    match walked_token(index, &state, bytes) {
        Some((next, est)) if !bytes.is_empty() && est + 2 <= remaining => {
            (next, remaining - 1, false, false)
        }
        _ => (state, remaining, true, false),
    }
}

/// `cursor` moved to another budget, its looked-up mask forgotten.
fn with_remaining(cursor: &GrammarCursor, remaining: u32) -> GrammarCursor {
    let mut probe = cursor.clone();
    probe.remaining = remaining;
    probe.mask = OnceLock::new();
    probe
}

fn assert_advance_agrees(
    index: &GrammarIndex,
    cursor: &GrammarCursor,
    token: u32,
) -> Result<(), TestCaseError> {
    let mut probe = cursor.clone();
    let legal = probe.advance(token);
    let want = walked_advance(index, position(cursor), token);
    prop_assert_eq!(position(&probe), want, "token {}", token);
    prop_assert_eq!(legal, !want.2);
    Ok(())
}

/// At every state of a random legal walk: the entry built with one close
/// simulation per post-state answers what the per-token walk does, every
/// budget from 0 to past the point where the filter stops mattering derives
/// the mask the filtered walk computes, and `advance` lands where the walked
/// one did — for every token of the vocabulary at the walk's own budget,
/// and for a sample (allowed or not) at each of the others.
fn derived_agrees_with_walked(
    index: &Arc<GrammarIndex>,
    seed: u64,
    max_new: usize,
) -> Result<(), TestCaseError> {
    let (tok, _, _) = fixture();
    let vocab = tok.vocab_size() as u32;
    let prompt = tok.encode("- name: Derived masks\n");
    let mut cursor = GrammarCursor::new(Arc::clone(index), &prompt, max_new);
    prop_assert!(cursor.is_active());
    let mut rng = Lcg(seed);
    for _ in 0..max_new {
        let state = cursor.state;
        let entry = index.compute_mask(&state);
        prop_assert_eq!(entry_closes(index, &entry), per_token_entry(index, &state));
        let worst = cursor.mask().0.entry.worst_close;
        for remaining in 0..=worst + 3 {
            let (mask, _) = index.mask_for(&state, remaining);
            let (allowed, count, forced) = filtered_walk(index, &state, remaining);
            prop_assert_eq!(mask.allowed(), &allowed[..], "remaining {}", remaining);
            prop_assert_eq!(mask.count(), count, "remaining {}", remaining);
            prop_assert_eq!(mask.forced(), forced, "remaining {}", remaining);
            let probe = with_remaining(&cursor, remaining);
            for _ in 0..6 {
                assert_advance_agrees(index, &probe, rng.pick(vocab as usize) as u32)?;
            }
        }
        for token in 0..vocab + 2 {
            assert_advance_agrees(index, &cursor, token)?;
        }
        let legal: Vec<u32> = set_bits(cursor.mask().0.allowed()).collect();
        prop_assert!(!legal.is_empty(), "mask must never be empty while active");
        let pick = legal[rng.pick(legal.len())];
        prop_assert!(cursor.advance(pick));
        if !cursor.is_active() {
            break; // end-of-sequence
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ansible_derived_masks_and_advance_equal_the_walks(seed in any::<u64>(), max_new in 24usize..64) {
        let (_, ansible, _) = fixture();
        derived_agrees_with_walked(ansible, seed, max_new)?;
    }

    #[test]
    fn yaml_derived_masks_and_advance_equal_the_walks(seed in any::<u64>(), max_new in 8usize..48) {
        let (_, _, yaml) = fixture();
        derived_agrees_with_walked(yaml, seed, max_new)?;
    }
}

// ---- start closes -----------------------------------------------------------

/// Prompt tails reaching every state `start_state` returns: a fresh
/// document, a forced newline, a line with no open item, and an open
/// `- name:` item at every indent it anchors on (and one past the last).
fn start_tails() -> Vec<String> {
    let mut tails: Vec<String> = ["", "hosts: all", "hosts: all\n"]
        .map(String::from)
        .to_vec();
    tails.extend((0..=17).map(|indent| format!("{}- name: Start\n", " ".repeat(indent))));
    tails
}

#[test]
fn a_cursor_start_close_equals_the_simulated_close_cold_and_warm() {
    let (tok, _, _) = fixture();
    for constraint in [Constraint::Ansible, Constraint::Yaml] {
        let index = GrammarIndex::build(tok, constraint).expect("index");
        let m = index.machine();
        let mut states = HashSet::new();
        for pass in ["cold", "warm"] {
            for tail in start_tails() {
                let prompt = tok.encode(&tail);
                let state = m.start_state(index.mode, &index.prompt_tail(&prompt));
                states.insert(state);
                let close = m.close_len(&state, None).expect("a start state closes");
                assert_eq!(index.start_close(&state), Some(close), "{pass} {tail:?}");
                // The close decides the cursor: one slot short of it, bypass.
                let fits = close as usize + 1;
                let active = |max_new| GrammarCursor::new(Arc::clone(&index), &prompt, max_new);
                assert!(active(fits).is_active(), "{pass} {tail:?}");
                assert!(!active(fits - 1).is_active(), "{pass} {tail:?}");
            }
        }
        let cached = index.start_closes.lock().expect("start close lock").len();
        assert_eq!(cached, states.len());
        assert_eq!(cached, 19, "{constraint:?}: every start state, each once");
    }
}

// ---- the legal-only greedy pick -------------------------------------------------

/// The argmax the greedy pick replaced: ascending, strict `>`, from id 0 at
/// `-inf`.
fn argmax(row: &[f32]) -> u32 {
    let mut best = (0, f32::NEG_INFINITY);
    for (i, &v) in row.iter().enumerate() {
        if v > best.1 {
            best = (i as u32, v);
        }
    }
    best.0
}

/// Rows that make a pick's tie-breaking and its special values show: few
/// distinct values (ties everywhere), NaN and both infinities sprinkled in,
/// every entry `-inf`, every entry NaN, and all equal.
fn hostile_rows(rng: &mut Lcg, len: usize) -> Vec<Vec<f32>> {
    let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    let ties: Vec<f32> = (0..len).map(|_| rng.pick(4) as f32 - 1.0).collect();
    let mixed: Vec<f32> = (0..len)
        .map(|_| match rng.pick(10) {
            0..=2 => special[rng.pick(3)],
            _ => rng.pick(1000) as f32 / 7.0 - 70.0,
        })
        .collect();
    vec![
        ties,
        mixed,
        vec![f32::NEG_INFINITY; len],
        vec![f32::NAN; len],
        vec![0.5; len],
    ]
}

/// Along a random legal walk: on every hostile row, of the vocabulary's
/// width and of widths around it, `pick_greedy` returns the token, the
/// forced token and the `masked` count that `apply` and then [`argmax`]
/// return.
fn pick_agrees_with_masked_argmax(
    index: &Arc<GrammarIndex>,
    seed: u64,
    max_new: usize,
) -> Result<(), TestCaseError> {
    let (tok, _, _) = fixture();
    let vocab = tok.vocab_size();
    let prompt = tok.encode("- name: Greedy picks\n");
    let mut cursor = GrammarCursor::new(Arc::clone(index), &prompt, max_new);
    prop_assert!(cursor.is_active());
    let mut rng = Lcg(seed);
    while cursor.is_active() {
        for len in [vocab, vocab + 3, vocab - 5] {
            for row in hostile_rows(&mut rng, len) {
                let (token, outcome) = cursor.pick_greedy(&row).expect("active");
                let mut masked = row.clone();
                let want = cursor.apply(&mut masked);
                let want_token = want.forced.unwrap_or_else(|| argmax(&masked));
                prop_assert_eq!(token, want_token, "row width {}", len);
                prop_assert_eq!(
                    (outcome.forced, outcome.masked, outcome.active),
                    (want.forced, want.masked, want.active),
                    "row width {}",
                    len
                );
            }
        }
        let legal: Vec<u32> = set_bits(cursor.mask().0.allowed()).collect();
        let pick = legal[rng.pick(legal.len())];
        prop_assert!(cursor.advance(pick));
    }
    prop_assert!(cursor.pick_greedy(&vec![0.0; vocab]).is_none());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tight budgets (the close must be forced within a few tokens, so the
    /// masks are budget-filtered) and loose ones.
    #[test]
    fn ansible_greedy_picks_equal_the_masked_argmax(
        seed in any::<u64>(),
        max_new in prop_oneof![20usize..28, 64usize..96],
    ) {
        let (_, ansible, _) = fixture();
        pick_agrees_with_masked_argmax(ansible, seed, max_new)?;
    }

    #[test]
    fn yaml_greedy_picks_equal_the_masked_argmax(
        seed in any::<u64>(),
        max_new in prop_oneof![4usize..12, 48usize..80],
    ) {
        let (_, _, yaml) = fixture();
        pick_agrees_with_masked_argmax(yaml, seed, max_new)?;
    }
}

// ---- the mask key -----------------------------------------------------------

/// The entry built from `state` and the one built from its mask key agree
/// field by field, and on the close after every allowed token.
fn assert_key_sound(index: &GrammarIndex, state: &ConstraintState) -> Result<(), TestCaseError> {
    let key = index.mask_key(state);
    let (exact, keyed) = (index.compute_mask(state), index.compute_mask(&key));
    prop_assert_eq!(&exact.allowed, &keyed.allowed, "{:?}", state.line);
    prop_assert_eq!(exact.allowed_count, keyed.allowed_count, "{:?}", state.line);
    prop_assert_eq!(exact.forced, keyed.forced, "{:?}", state.line);
    prop_assert_eq!(exact.min_close, keyed.min_close, "{:?}", state.line);
    prop_assert_eq!(exact.worst_close, keyed.worst_close, "{:?}", state.line);
    for id in set_bits(&exact.allowed) {
        prop_assert_eq!(
            exact.close_after(id),
            keyed.close_after(id),
            "token {} at {:?}",
            id,
            state.line
        );
    }
    Ok(())
}

/// Text a walk starts from, after a `- name:` line: nothing, a plain scalar
/// already under way, and bad-word prefixes whose length the key must keep.
fn key_lead_ins(constraint: Constraint) -> &'static [&'static str] {
    match constraint {
        Constraint::Yaml => &["", "  key: ", "  list:\n    - "],
        _ => &[
            "",
            "  command: echo ",
            "  copy:\n    dest: /etc/app",
            "  command: tr",
            "  command: nu",
            "  command: of",
        ],
    }
}

/// A random legal walk from `lead_in` (as far as the budget has room for
/// it) at a budget of `max_new`, checking
/// [`assert_key_sound`] at every state it meets. A walk that `stays` picks
/// a token with no newline whenever one is legal, `stays` times in eight,
/// so its scalars run up against [`PLAIN_CAP`]. Returns the longest plain
/// scalar it typed.
fn key_walk(
    index: &Arc<GrammarIndex>,
    lead_in: &str,
    seed: u64,
    max_new: usize,
    stays: usize,
) -> Result<u8, TestCaseError> {
    let (tok, _, _) = fixture();
    let prompt = tok.encode("- name: Mask keys\n");
    let mut cursor = GrammarCursor::new(Arc::clone(index), &prompt, max_new);
    prop_assert!(cursor.is_active());
    let mut rng = Lcg(seed);
    let mut lead_in = tok.encode(lead_in).into_iter();
    let mut longest = 0;
    while cursor.is_active() {
        assert_key_sound(index, &cursor.state)?;
        if let Line::Value {
            s: Scalar { len, .. },
            ..
        } = cursor.state.line
        {
            longest = longest.max(len);
        }
        let legal: Vec<u32> = set_bits(cursor.mask().0.allowed()).collect();
        // A lead-in the budget has no room for is left off where it fails.
        let pick = match lead_in.next().filter(|t| legal.contains(t)) {
            Some(token) => token,
            None => {
                lead_in = Vec::new().into_iter();
                let inline: Vec<u32> = legal
                    .iter()
                    .copied()
                    .filter(|&id| id != index.eot && !index.bytes_of(id).contains(&b'\n'))
                    .collect();
                let from = match rng.pick(8) < stays && !inline.is_empty() {
                    true => &inline,
                    false => &legal,
                };
                from[rng.pick(from.len())]
            }
        };
        prop_assert!(cursor.advance(pick), "token {} of the walk is legal", pick);
    }
    Ok(longest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tight budgets (the walk is forced toward its close) and loose ones.
    #[test]
    fn ansible_a_state_and_its_mask_key_build_the_same_entry(
        seed in any::<u64>(),
        max_new in prop_oneof![24usize..32, 96usize..160],
        stays in 0usize..8,
    ) {
        let (_, ansible, _) = fixture();
        let lead_ins = key_lead_ins(Constraint::Ansible);
        key_walk(ansible, lead_ins[seed as usize % lead_ins.len()], seed, max_new, stays)?;
    }

    #[test]
    fn yaml_a_state_and_its_mask_key_build_the_same_entry(
        seed in any::<u64>(),
        max_new in prop_oneof![8usize..16, 96usize..160],
        stays in 0usize..8,
    ) {
        let (_, _, yaml) = fixture();
        let lead_ins = key_lead_ins(Constraint::Yaml);
        key_walk(yaml, lead_ins[seed as usize % lead_ins.len()], seed, max_new, stays)?;
    }
}

/// Every lead-in of both grammars walked with a scalar kept going while it
/// can: each plain scalar it opens runs into the cap, so the walk meets the
/// lengths the key keeps — within one longest token of [`PLAIN_CAP`] — and
/// the last one it forgets.
#[test]
fn scalars_driven_to_the_cap_key_soundly() {
    let (_, ansible, yaml) = fixture();
    for (index, constraint) in [(ansible, Constraint::Ansible), (yaml, Constraint::Yaml)] {
        assert!(
            index.plain_key_max > 1,
            "the fixture's tokens leave lengths to forget"
        );
        for lead_in in key_lead_ins(constraint) {
            let longest = key_walk(index, lead_in, 0x5EED, 160, 8)
                .unwrap_or_else(|e| panic!("{constraint:?} {lead_in:?}: {e}"));
            assert!(
                longest > index.plain_key_max,
                "{constraint:?} {lead_in:?}: longest scalar {longest}, keys forget up to {}",
                index.plain_key_max
            );
        }
    }
}

// ---- long sequences ---------------------------------------------------------

/// A 256- and a 300-item sequence of each kind — a task file's tasks, a
/// play's `tasks:`, a block list under a keyword and a YAML block list — fed
/// token by token under a budget of 4000 end accepting. Past item 255 an
/// item count kept in a byte overflowed: a panic in a debug build, and in a
/// release build a count wrapped to 0 that left a 256-item sequence
/// unclosable.
#[test]
fn sequences_of_256_and_300_items_stay_closable() {
    let (tok, ansible, yaml) = fixture();
    let documents = [
        (ansible, String::new(), "- name: a\n  ping:\n"),
        (
            ansible,
            "- name: Play\n  hosts: all\n  tasks:\n".to_string(),
            "    - name: a\n      ping:\n",
        ),
        (
            ansible,
            "- name: Notify\n  command: ls\n  notify:\n".to_string(),
            "    - a\n",
        ),
        (yaml, "items:\n".to_string(), "  - a\n"),
    ];
    for (index, head, item) in documents {
        for items in [256, 300] {
            let mut cursor = GrammarCursor::new(Arc::clone(index), &[], 4000);
            assert!(cursor.is_active(), "{item:?}");
            for token in tok.encode(&(head.clone() + &item.repeat(items))) {
                assert!(cursor.advance(token), "{item:?} × {items}: token {token}");
            }
            assert!(cursor.accepting(), "{item:?} × {items} closes");
        }
    }
}

// ---- the recycled pool ------------------------------------------------------

/// A pool of more distinct mask keys than one generation holds, walked
/// again and again, with a walk nobody repeats in between (a served pool is
/// never closed: `offline_eval`'s meets a handful of new states every pass).
/// Every key must be built exactly once, however many states share it.
#[test]
fn a_recycled_pool_larger_than_a_generation_builds_nothing_twice() {
    let (tok, _, _) = fixture();
    let index = GrammarIndex::build(tok, Constraint::Yaml).expect("index");
    let prompt = tok.encode("- name: Recycled pool\n");
    let mut states: HashSet<ConstraintState> = HashSet::new();
    let mut keys: HashSet<ConstraintState> = HashSet::new();
    let mut rng = Lcg(0xF00D);
    let mut fresh_walk = |states: &mut HashSet<_>, keys: &mut HashSet<_>| {
        let mut cursor = GrammarCursor::new(Arc::clone(&index), &prompt, 96);
        let mut walk = Vec::new();
        while cursor.is_active() {
            states.insert(cursor.state);
            keys.insert(index.mask_key(&cursor.state));
            // Mostly pass over end-of-sequence, for longer walks.
            let legal: Vec<u32> = set_bits(cursor.mask().0.allowed())
                .filter(|&id| id != index.eot || rng.pick(8) == 0)
                .collect();
            let Some(&pick) = legal.get(rng.pick(legal.len().max(1))) else {
                break;
            };
            assert!(cursor.advance(pick));
            walk.push(pick);
        }
        walk
    };
    let mut walks: Vec<Vec<u32>> = Vec::new();
    while keys.len() <= CACHE_CAP + CACHE_CAP / 8 {
        walks.push(fresh_walk(&mut states, &mut keys));
    }
    let (pool_states, pool) = (states.len(), keys.len());
    let first = index.stats();
    assert_eq!(first.mask_builds, pool as u64, "one walk per key");

    for _ in 0..3 {
        for walk in &walks {
            let mut cursor = GrammarCursor::new(Arc::clone(&index), &prompt, 96);
            for &token in walk {
                cursor.peek();
                assert!(cursor.advance(token));
            }
        }
        fresh_walk(&mut states, &mut keys);
    }
    let last = index.stats();
    // scripts/check.sh prints this line, so a change to the cap, the cache
    // policy or what the key forgets shows in the gate's log.
    println!(
        "recycled pool: {pool_states} states in {pool} mask keys, generation {CACHE_CAP}: first pass {} builds, three more passes {} new keys, {} rebuilt, {} generations dropped",
        first.mask_builds,
        keys.len() - pool,
        last.mask_builds - keys.len() as u64,
        last.generations_dropped,
    );
    assert!(keys.len() > pool, "the walks in between met new keys");
    assert_eq!(last.mask_builds, keys.len() as u64);
    assert!(last.cache_hits > first.cache_hits);
    assert!(last.states_cached <= 2 * CACHE_CAP as u64);
}
