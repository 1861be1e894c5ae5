//! Property tests for [`NgramLm`]: prediction must be a pure function of
//! the observed stream — deterministic across identically-trained models
//! (no dependence on hash-map iteration order), backed off all the way to
//! unigrams, and indifferent to how the stream was chunked into
//! `observe`/`observe_continuation` calls. The speculative decoder's
//! bit-for-bit guarantee leans on exactly these properties.

use proptest::prelude::*;
use wisdom_model::NgramLm;

const VOCAB: usize = 12;

/// Every context the tests probe: all tails of the stream up to `order`
/// tokens, plus the empty context (pure unigram backoff).
fn probe_contexts(stream: &[u32], order: usize) -> Vec<Vec<u32>> {
    let mut ctxs = vec![Vec::new()];
    for end in 0..=stream.len() {
        for len in 1..=order.min(end) {
            ctxs.push(stream[end - len..end].to_vec());
        }
    }
    ctxs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two models shown the same stream predict identically on every
    /// context — ties between equal counts break by token id, never by
    /// hash-map iteration order.
    #[test]
    fn identically_observed_models_predict_identically(
        stream in prop::collection::vec(0u32..VOCAB as u32, 0..40),
        order in 1usize..5,
    ) {
        let mut a = NgramLm::new(order);
        let mut b = NgramLm::new(order);
        a.observe(&stream);
        b.observe(&stream);
        for ctx in probe_contexts(&stream, order) {
            prop_assert_eq!(a.predict(&ctx), b.predict(&ctx), "context {:?}", ctx);
        }
    }

    /// Backoff reaches unigrams: after any non-empty observation, every
    /// context — even one never seen — yields *some* prediction, and that
    /// prediction is a token that occurred in the observed stream.
    #[test]
    fn backoff_always_predicts_an_observed_token(
        stream in prop::collection::vec(0u32..VOCAB as u32, 1..40),
        context in prop::collection::vec(0u32..VOCAB as u32, 0..6),
        order in 1usize..5,
    ) {
        let mut lm = NgramLm::new(order);
        lm.observe(&stream);
        let t = lm.predict(&context);
        prop_assert!(t.is_some(), "non-empty observation must back off to a unigram");
        prop_assert!(
            stream.contains(&t.unwrap()),
            "predicted {:?} never observed in {:?}",
            t,
            stream
        );
    }

    /// An untrained model predicts nothing, whatever the context.
    #[test]
    fn untrained_model_predicts_nothing(
        context in prop::collection::vec(0u32..VOCAB as u32, 0..6),
        order in 1usize..5,
    ) {
        let lm = NgramLm::new(order);
        prop_assert_eq!(lm.predict(&context), None);
    }

    /// Chunked observation is equivalent to observing the concatenation:
    /// `observe(a ++ b)` and `observe(a)` + `observe_continuation(a, b)`
    /// agree on every context. This is what lets the online drafter report
    /// accepted tokens round by round without double-counting.
    #[test]
    fn observe_continuation_matches_whole_stream(
        a in prop::collection::vec(0u32..VOCAB as u32, 0..25),
        b in prop::collection::vec(0u32..VOCAB as u32, 0..25),
        split2 in 0usize..26,
        order in 1usize..5,
    ) {
        let whole: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        let mut reference = NgramLm::new(order);
        reference.observe(&whole);

        let mut chunked = NgramLm::new(order);
        chunked.observe(&a);
        chunked.observe_continuation(&a, &b);

        // A second, differently-placed split of the same stream.
        let cut = split2.min(whole.len());
        let mut chunked2 = NgramLm::new(order);
        chunked2.observe(&whole[..cut]);
        chunked2.observe_continuation(&whole[..cut], &whole[cut..]);

        for ctx in probe_contexts(&whole, order) {
            let want = reference.predict(&ctx);
            prop_assert_eq!(chunked.predict(&ctx), want, "context {:?}", ctx);
            prop_assert_eq!(chunked2.predict(&ctx), want, "context {:?}", ctx);
        }
    }
}
