//! A keyed folded-multiply hash for in-process maps whose keys are either
//! attacker-shaped (corpus bytes) or hot (grammar states looked up on every
//! decoded token).

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// An odd constant with well-spread bits (2^64 / φ).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// The full 128-bit product of `a` and `b`, its halves XORed: every input
/// bit reaches the middle of the result.
#[inline(always)]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// A keyed folded-multiply `BuildHasher`: one multiply per integer field or
/// per 8 bytes, against SipHash's rounds.
///
/// Its key is drawn from std's randomly seeded `RandomState`, one per
/// hasher value, so no input can be crafted to collide under it. Nothing
/// that uses it may depend on the key: two maps with different keys must
/// decide alike, so no caller iterates a map in an order that shows.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use wisdom_prng::FoldHash;
///
/// let mut map: HashMap<&str, u32, FoldHash> = HashMap::default();
/// map.insert("- name: Ping", 1);
/// assert_eq!(map["- name: Ping"], 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FoldHash {
    key: u64,
}

impl Default for FoldHash {
    fn default() -> Self {
        Self {
            key: RandomState::new().hash_one(MULTIPLIER),
        }
    }
}

impl BuildHasher for FoldHash {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.key)
    }
}

/// [`FoldHash`]'s hasher. A fixed-width integer is one folded multiply, so
/// a derived `Hash` over a struct of small fields costs one multiply a
/// field; a byte slice is its length and then one multiply per 8 bytes.
pub struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        // The length first, so zero padding of the last word cannot alias.
        self.write_u64(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = folded_multiply(self.0 ^ x, MULTIPLIER);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_hasher_draws_its_own_key() {
        let (a, b) = (FoldHash::default(), FoldHash::default());
        assert_ne!(a.key, b.key);
        let text = "- name: Ping\n  ansible.builtin.ping: {}\n";
        assert_eq!(a.hash_one(text), a.hash_one(text));
        assert_ne!(a.hash_one(text), b.hash_one(text));
    }

    #[test]
    fn zero_padding_does_not_alias() {
        let mut hashes: Vec<u64> = ["", "\0", "a", "a\0", "abcdefgh", "abcdefgh\0"]
            .iter()
            .map(|text| {
                let mut hasher = FoldHash::default().build_hasher();
                hasher.write(text.as_bytes());
                hasher.finish()
            })
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 6);
    }
}
