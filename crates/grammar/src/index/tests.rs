//! The mask cache's generations, and the two things the served path now
//! reads from a cached entry — budget-filtered masks and `advance` — checked
//! against the walks they replaced.

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
            if let Some((_, est)) = index.advance_token(&m, state, bytes) {
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
    match index.advance_token(&m, &state, bytes) {
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

/// At every state of a random legal walk: every budget from 0 to past the
/// point where the filter stops mattering derives the mask the filtered
/// walk computes, and `advance` lands where the walked one did — for every
/// token of the vocabulary at the walk's own budget, and for a sample
/// (allowed or not) at each of the others.
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

// ---- the recycled pool ------------------------------------------------------

/// A pool of more distinct states than one generation holds, walked again
/// and again, with a walk nobody repeats in between (a served pool is never
/// closed: `offline_eval`'s meets a handful of new states every pass). Every
/// state must be built exactly once.
#[test]
fn a_recycled_pool_larger_than_a_generation_builds_nothing_twice() {
    let (tok, _, _) = fixture();
    let index = GrammarIndex::build(tok, Constraint::Yaml).expect("index");
    let prompt = tok.encode("- name: Recycled pool\n");
    let mut states: HashSet<ConstraintState> = HashSet::new();
    let mut rng = Lcg(0xF00D);
    let mut fresh_walk = |states: &mut HashSet<ConstraintState>| {
        let mut cursor = GrammarCursor::new(Arc::clone(&index), &prompt, 96);
        let mut walk = Vec::new();
        while cursor.is_active() {
            states.insert(cursor.state);
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
    while states.len() <= CACHE_CAP + CACHE_CAP / 8 {
        walks.push(fresh_walk(&mut states));
    }
    let pool = states.len();
    let first = index.stats();
    assert_eq!(first.mask_builds, pool as u64, "one walk per state");

    for _ in 0..3 {
        for walk in &walks {
            let mut cursor = GrammarCursor::new(Arc::clone(&index), &prompt, 96);
            for &token in walk {
                cursor.peek();
                assert!(cursor.advance(token));
            }
        }
        fresh_walk(&mut states);
    }
    let last = index.stats();
    // scripts/check.sh prints this line, so a change to the cap or the
    // policy shows in the gate's log.
    println!(
        "recycled pool: {pool} states, generation {CACHE_CAP}: first pass {} builds, three more passes {} new states, {} rebuilt, {} generations dropped",
        first.mask_builds,
        states.len() - pool,
        last.mask_builds - states.len() as u64,
        last.generations_dropped,
    );
    assert!(states.len() > pool, "the walks in between met new states");
    assert_eq!(last.mask_builds, states.len() as u64);
    assert!(last.cache_hits > first.cache_hits);
    assert!(last.states_cached <= 2 * CACHE_CAP as u64);
}
