//! Exact and near-duplicate detection.
//!
//! [`ExactDedup`] is content-confirmed: a 64-bit hash only selects a
//! bucket, and membership is decided by comparing the actual bytes, so a
//! hash collision between distinct documents can never silently drop one
//! (the bug class the corpus assembler's original `HashSet<u64>` had).
//!
//! [`NearDedup`] is a MinHash-LSH index: a new document is bucketed by its
//! signature's band keys, candidates from colliding buckets are confirmed
//! by the signature-estimated Jaccard, and confirmed near-duplicates are
//! rejected. Decisions depend only on the order documents are offered, so
//! running the index behind the pipeline's order-restoring curator makes
//! the kept set independent of worker count.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::shingle::{MinHasher, Signature};

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Content-confirmed exact-duplicate filter.
///
/// # Examples
///
/// ```
/// use wisdom_curation::ExactDedup;
///
/// let mut dedup = ExactDedup::new();
/// assert!(dedup.insert("- name: Ping\n"));
/// assert!(!dedup.insert("- name: Ping\n"));
/// assert!(dedup.insert("- name: Pong\n"));
/// ```
#[derive(Debug, Default, Clone)]
pub struct ExactDedup {
    /// hash -> texts seen with that hash (singleton except under collision).
    buckets: HashMap<u64, Vec<String>>,
    len: usize,
}

impl ExactDedup {
    /// Creates an empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` and records `text` if it has not been seen before;
    /// returns `false` for an exact duplicate. A hash hit alone is never
    /// enough to reject: the candidate bucket's contents are compared
    /// byte-for-byte first.
    pub fn insert(&mut self, text: &str) -> bool {
        let bucket = self.buckets.entry(fnv1a(text)).or_default();
        if bucket.iter().any(|seen| seen == text) {
            return false;
        }
        bucket.push(text.to_string());
        self.len += 1;
        true
    }

    /// Distinct documents recorded so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no document has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Outcome of offering a document to [`NearDedup`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NearVerdict {
    /// Kept: no prior document's estimated Jaccard reached the floor.
    /// Carries the index the document was assigned in the kept sequence.
    Kept(usize),
    /// Rejected as a near-duplicate of kept document `of` with estimated
    /// Jaccard `estimate`.
    Duplicate {
        /// Index (in the kept sequence) of the retained representative.
        of: usize,
        /// Signature-estimated Jaccard similarity against it.
        estimate: f64,
    },
}

/// Ends a bucket chain in [`NearDedup`]'s link arena.
const NIL: usize = usize::MAX;

/// MinHash-LSH near-duplicate index over kept documents.
///
/// Candidates are compared band by band, each bucket in kept order, and the
/// first candidate with the highest estimate wins a tie; the flat layout
/// below keeps exactly that order.
pub struct NearDedup {
    hasher: MinHasher,
    /// Estimated-Jaccard floor at which a candidate is dropped.
    floor: f64,
    /// Per band: bucket key -> `(first, last)` link of the bucket's chain.
    /// The std (SipHash) hasher stays: band keys derive from corpus bytes.
    buckets: Vec<HashMap<u64, (usize, usize)>>,
    /// Bucket chains as `(kept index, next link)`, appended in kept order.
    links: Vec<(usize, usize)>,
    /// Signatures of kept documents, one allocation each: a single growing
    /// `Vec<u64>` of them raised the pass's peak RSS by about a megabyte.
    kept: Vec<Signature>,
    /// Kept document `i` was already compared this offer iff
    /// `seen[i] == epoch`.
    seen: Vec<u64>,
    epoch: u64,
    /// Reused buffer: the band keys of the signature being offered.
    keys: Vec<u64>,
}

impl NearDedup {
    /// Creates an index around `hasher`, dropping documents whose estimated
    /// Jaccard against a kept document reaches `floor`.
    ///
    /// The floor should sit a couple of standard errors *below* the
    /// similarity you want reliably removed: with `H` lanes the estimator's
    /// standard error at similarity `t` is `sqrt(t(1-t)/H)`, so
    /// [`floor_for_target`](Self::floor_for_target) computes `t - 2·se`.
    pub fn new(hasher: MinHasher, floor: f64) -> Self {
        Self {
            buckets: vec![HashMap::new(); hasher.bands()],
            hasher,
            floor,
            links: Vec::new(),
            kept: Vec::new(),
            seen: Vec::new(),
            epoch: 0,
            keys: Vec::new(),
        }
    }

    /// The rejection floor that reliably removes pairs of true similarity
    /// `target`: two standard errors of estimator slack below `target`.
    pub fn floor_for_target(target: f64, lanes: usize) -> f64 {
        let se = (target * (1.0 - target) / lanes as f64).sqrt();
        (target - 2.0 * se).max(0.0)
    }

    /// The estimator floor documents are rejected at.
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// Number of kept documents indexed so far.
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Offers a document's signature; either indexes it as kept or rejects
    /// it as a near-duplicate of the most similar kept candidate.
    ///
    /// # Panics
    ///
    /// Panics if `sig` does not have this index's lane count.
    pub fn offer(&mut self, sig: &Signature) -> NearVerdict {
        assert_eq!(
            sig.0.len(),
            self.hasher.lanes(),
            "signature from another MinHasher"
        );
        self.hasher.band_keys_into(sig, &mut self.keys);
        self.epoch += 1;
        let mut best: Option<(usize, f64)> = None;
        for (bucket, key) in self.buckets.iter().zip(&self.keys) {
            let Some(&(mut link, _)) = bucket.get(key) else {
                continue;
            };
            while link != NIL {
                let (idx, next) = self.links[link];
                link = next;
                if self.seen[idx] == self.epoch {
                    continue;
                }
                self.seen[idx] = self.epoch;
                let est = self.hasher.estimate(sig, &self.kept[idx]);
                if est >= self.floor && best.map(|(_, b)| est > b).unwrap_or(true) {
                    best = Some((idx, est));
                }
            }
        }
        if let Some((of, estimate)) = best {
            return NearVerdict::Duplicate { of, estimate };
        }
        let idx = self.len();
        for (bucket, &key) in self.buckets.iter_mut().zip(&self.keys) {
            let link = self.links.len();
            self.links.push((idx, NIL));
            match bucket.entry(key) {
                Entry::Occupied(mut chain) => {
                    let last = &mut chain.get_mut().1;
                    self.links[*last].1 = link;
                    *last = link;
                }
                Entry::Vacant(chain) => {
                    chain.insert((link, link));
                }
            }
        }
        self.kept.push(sig.clone());
        self.seen.push(0);
        NearVerdict::Kept(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shingle::shingle_set;

    #[test]
    fn exact_dedup_confirms_content_not_just_hash() {
        // With a content-confirming filter, distinct texts are kept even if
        // their hashes collide; simulate by checking the bucket path
        // directly: two distinct strings must both be inserted regardless
        // of bucket assignment.
        let mut d = ExactDedup::new();
        assert!(d.insert("a"));
        assert!(d.insert("b"));
        assert!(!d.insert("a"));
        assert_eq!(d.len(), 2);
    }

    fn sig_of(text: &str, h: &MinHasher) -> Signature {
        h.signature(&shingle_set(text, 3))
    }

    #[test]
    fn near_dedup_drops_identical_and_keeps_distinct() {
        let hasher = MinHasher::new(11, 32, 4);
        let floor = NearDedup::floor_for_target(0.8, hasher.lanes());
        let mut near = NearDedup::new(hasher.clone(), floor);
        let a = "- name: Install nginx\n  apt:\n    name: nginx\n    state: present\n";
        let b = "- name: Create devops user\n  user:\n    name: devops\n    shell: /bin/bash\n";
        assert!(matches!(
            near.offer(&sig_of(a, &hasher)),
            NearVerdict::Kept(0)
        ));
        assert!(matches!(
            near.offer(&sig_of(a, &hasher)),
            NearVerdict::Duplicate { of: 0, .. }
        ));
        assert!(matches!(
            near.offer(&sig_of(b, &hasher)),
            NearVerdict::Kept(1)
        ));
    }

    #[test]
    fn near_dedup_catches_light_mutation() {
        let hasher = MinHasher::new(5, 32, 4);
        let floor = NearDedup::floor_for_target(0.8, hasher.lanes());
        let mut near = NearDedup::new(hasher.clone(), floor);
        let base = "- name: Install nginx on web hosts\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n    update_cache: true\n- name: Start nginx service\n  ansible.builtin.service:\n    name: nginx\n    state: started\n    enabled: true\n- name: Open http firewall port\n  ansible.builtin.ufw:\n    rule: allow\n    port: 80\n";
        // One token changed out of dozens: true Jaccard stays >= 0.8.
        let mutated = base.replace("update_cache: true", "update_cache: false");
        assert!(matches!(
            near.offer(&sig_of(base, &hasher)),
            NearVerdict::Kept(0)
        ));
        assert!(matches!(
            near.offer(&sig_of(&mutated, &hasher)),
            NearVerdict::Duplicate { of: 0, .. }
        ));
    }

    #[test]
    fn floor_sits_below_target() {
        let f = NearDedup::floor_for_target(0.8, 128);
        assert!(f < 0.8 && f > 0.7, "floor {f}");
    }
}
