//! A stupid-backoff n-gram language model over token ids: the speculative
//! decoder's draft proposer.

use std::collections::HashMap;

/// Token-level n-gram model with stupid-backoff scoring.
///
/// # Examples
///
/// ```
/// use wisdom_model::NgramLm;
///
/// let mut lm = NgramLm::new(3);
/// lm.observe(&[1, 2, 3, 4, 1, 2, 3, 4]);
/// // After seeing "1 2 3" -> 4 twice, prediction follows suit.
/// assert_eq!(lm.predict(&[1, 2, 3]), Some(4));
/// ```
#[derive(Debug, Clone)]
pub struct NgramLm {
    order: usize,
    /// For each context length 0..order, counts of (context, next).
    counts: Vec<HashMap<Vec<u32>, HashMap<u32, u32>>>,
}

impl NgramLm {
    /// Creates an empty model of the given order (order 3 = trigram).
    ///
    /// # Panics
    ///
    /// Panics if `order == 0`.
    pub fn new(order: usize) -> Self {
        assert!(order > 0, "order must be at least 1");
        Self {
            order,
            counts: (0..order).map(|_| HashMap::new()).collect(),
        }
    }

    /// Accumulates counts from a token sequence.
    pub fn observe(&mut self, tokens: &[u32]) {
        self.observe_continuation(&[], tokens);
    }

    /// Accumulates counts for `new` as a continuation of `context`: only the
    /// positions of `new` are counted, with contexts reaching back into
    /// `context` across the boundary. Observing a stream in chunks through
    /// this method yields exactly the counts of one [`Self::observe`] over
    /// the concatenation — which is why the speculative decoder's online
    /// draft adaptation uses it instead of re-observing overlapping windows.
    ///
    /// # Examples
    ///
    /// ```
    /// use wisdom_model::NgramLm;
    ///
    /// let mut whole = NgramLm::new(3);
    /// whole.observe(&[1, 2, 3, 4, 1, 2, 3, 4]);
    /// let mut chunked = NgramLm::new(3);
    /// chunked.observe(&[1, 2, 3]);
    /// chunked.observe_continuation(&[1, 2, 3], &[4, 1, 2, 3, 4]);
    /// assert_eq!(chunked.predict(&[1, 2, 3]), whole.predict(&[1, 2, 3]));
    /// ```
    pub fn observe_continuation(&mut self, context: &[u32], new: &[u32]) {
        let joined: Vec<u32> = context.iter().chain(new.iter()).copied().collect();
        for i in context.len()..joined.len() {
            let next = joined[i];
            for ctx_len in 0..self.order {
                if i < ctx_len {
                    continue;
                }
                let ctx = joined[i - ctx_len..i].to_vec();
                *self.counts[ctx_len]
                    .entry(ctx)
                    .or_default()
                    .entry(next)
                    .or_insert(0) += 1;
            }
        }
    }

    /// Most likely next token via stupid backoff (longest matching context
    /// wins; ties break to the smaller token id). `None` for an untrained
    /// model.
    pub fn predict(&self, context: &[u32]) -> Option<u32> {
        let scores = self.next_scores(context);
        scores
            .into_iter()
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.0.cmp(&a.0))
            })
            .map(|(t, _)| t)
    }

    /// Back-off scores over candidate next tokens.
    fn next_scores(&self, context: &[u32]) -> Vec<(u32, f64)> {
        const BACKOFF: f64 = 0.4;
        let mut weight = 1.0;
        for ctx_len in (0..self.order).rev() {
            if context.len() < ctx_len {
                continue;
            }
            let ctx = &context[context.len() - ctx_len..];
            if let Some(nexts) = self.counts[ctx_len].get(ctx) {
                let total: u32 = nexts.values().sum();
                if total > 0 {
                    return nexts
                        .iter()
                        .map(|(&t, &c)| (t, weight * f64::from(c) / f64::from(total)))
                        .collect();
                }
            }
            weight *= BACKOFF;
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memorizes_repeated_pattern() {
        let mut lm = NgramLm::new(3);
        lm.observe(&[1, 2, 3, 1, 2, 3, 1, 2, 3]);
        assert_eq!(lm.predict(&[1, 2]), Some(3));
        assert_eq!(lm.predict(&[2, 3]), Some(1));
    }

    #[test]
    fn backs_off_to_shorter_context() {
        let mut lm = NgramLm::new(3);
        lm.observe(&[5, 1, 7, 5, 2, 7, 5, 3, 7]);
        // Context [9, 9] unseen -> backoff to unigram distribution where 5
        // and 7 dominate equally; prediction must still be produced.
        assert!(lm.predict(&[9, 9]).is_some());
    }

    #[test]
    fn untrained_predicts_none() {
        let lm = NgramLm::new(2);
        assert_eq!(lm.predict(&[1]), None);
    }

    #[test]
    #[should_panic(expected = "order")]
    fn zero_order_panics() {
        let _ = NgramLm::new(0);
    }
}
