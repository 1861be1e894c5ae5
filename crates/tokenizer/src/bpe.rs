//! Byte-level BPE implementation.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Mutex;

/// Names of the reserved special tokens, in id order.
///
/// * `<|endoftext|>` — end-of-generation marker appended after every
///   fine-tuning sample and used as the stop condition at inference.
/// * `<|sep|>` — file separator used when packing pre-training files into
///   fixed context windows (§4.3 of the paper).
/// * `<|pad|>` — batch padding.
pub static SPECIAL_TOKENS: &[&str] = &["<|endoftext|>", "<|sep|>", "<|pad|>"];

const NUM_SPECIAL: u32 = 3;
// Base vocabulary: 3 specials + 256 raw bytes = 259 tokens.

/// A trainable byte-level BPE tokenizer.
///
/// Token id layout: `[0, 3)` special tokens, `[3, 259)` raw bytes,
/// `[259, …)` learned merges.
#[derive(Debug)]
pub struct BpeTokenizer {
    /// Learned merges in rank order: merging `(left, right)` token ids.
    merges: Vec<(u32, u32)>,
    /// Byte content of every token id (empty for specials).
    vocab_bytes: Vec<Vec<u8>>,
    /// Merge pair → resulting token id.
    merge_table: HashMap<(u32, u32), u32>,
    /// Per-word encode cache.
    cache: Mutex<HashMap<Vec<u8>, Vec<u32>>>,
}

impl BpeTokenizer {
    /// The `<|endoftext|>` token id.
    pub fn eot(&self) -> u32 {
        0
    }

    /// The `<|sep|>` file-separator token id.
    pub fn sep(&self) -> u32 {
        1
    }

    /// The `<|pad|>` token id.
    pub fn pad(&self) -> u32 {
        2
    }

    /// Total vocabulary size (specials + bytes + merges).
    pub fn vocab_size(&self) -> usize {
        self.vocab_bytes.len()
    }

    /// Byte content of token `id` (empty slice for the special tokens),
    /// or `None` when `id` is out of range. Lets downstream consumers —
    /// notably the grammar-constrained decoder — classify the vocabulary
    /// without re-deriving the byte table.
    pub fn token_bytes(&self, id: u32) -> Option<&[u8]> {
        self.vocab_bytes.get(id as usize).map(Vec::as_slice)
    }

    /// Number of learned merges.
    pub fn merge_count(&self) -> usize {
        self.merges.len()
    }

    /// Trains a tokenizer on `texts`, growing the vocabulary to at most
    /// `vocab_size` tokens (never below the 259 base tokens).
    ///
    /// Training follows the classic BPE recipe: pre-tokenize into words,
    /// count adjacent token-pair frequencies, repeatedly merge the most
    /// frequent pair. Ties break toward the lexicographically smaller pair so
    /// training is deterministic.
    pub fn train<'a, I>(texts: I, vocab_size: usize) -> BpeTokenizer
    where
        I: IntoIterator<Item = &'a str>,
    {
        // Word frequency table.
        let mut word_counts: HashMap<Vec<u8>, u64> = HashMap::new();
        for text in texts {
            for word in pre_tokenize(text) {
                *word_counts.entry(word.as_bytes().to_vec()).or_insert(0) += 1;
            }
        }
        // Each distinct word as a sequence of token ids (initially bytes).
        let mut words: Vec<(Vec<u32>, u64)> = word_counts
            .into_iter()
            .map(|(bytes, count)| {
                (
                    bytes.iter().map(|b| NUM_SPECIAL + u32::from(*b)).collect(),
                    count,
                )
            })
            .collect();
        // Deterministic order regardless of hash seeds.
        words.sort_by(|a, b| a.0.cmp(&b.0));

        let mut vocab_bytes: Vec<Vec<u8>> = Vec::new();
        for _ in 0..NUM_SPECIAL {
            vocab_bytes.push(Vec::new());
        }
        for b in 0..=255u8 {
            vocab_bytes.push(vec![b]);
        }

        let mut merges = Vec::new();
        let mut merge_table = HashMap::new();
        let target = vocab_size.max(vocab_bytes.len());

        while vocab_bytes.len() < target {
            // Count adjacent pairs.
            let mut pair_counts: HashMap<(u32, u32), u64> = HashMap::new();
            for (word, count) in &words {
                for w in word.windows(2) {
                    *pair_counts.entry((w[0], w[1])).or_insert(0) += count;
                }
            }
            let Some((&best_pair, &best_count)) = pair_counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            else {
                break;
            };
            if best_count < 2 {
                break;
            }
            let new_id = vocab_bytes.len() as u32;
            let mut merged_bytes = vocab_bytes[best_pair.0 as usize].clone();
            merged_bytes.extend_from_slice(&vocab_bytes[best_pair.1 as usize]);
            vocab_bytes.push(merged_bytes);
            merges.push(best_pair);
            merge_table.insert(best_pair, new_id);
            for (word, _) in &mut words {
                apply_merge(word, best_pair, new_id);
            }
        }

        BpeTokenizer {
            merges,
            vocab_bytes,
            merge_table,
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Encodes text into token ids. Special tokens are never produced by
    /// `encode`; use [`BpeTokenizer::sep`]/[`BpeTokenizer::eot`] to insert
    /// them explicitly.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut out = Vec::with_capacity(text.len() / 3 + 1);
        for word in pre_tokenize(text) {
            let bytes = word.as_bytes();
            if let Some(cached) = self.cache.lock().expect("cache lock").get(bytes) {
                out.extend_from_slice(cached);
                continue;
            }
            let ids = self.encode_word(bytes);
            out.extend_from_slice(&ids);
            self.cache
                .lock()
                .expect("cache lock")
                .insert(bytes.to_vec(), ids);
        }
        out
    }

    fn encode_word(&self, bytes: &[u8]) -> Vec<u32> {
        let mut ids: Vec<u32> = bytes.iter().map(|b| NUM_SPECIAL + u32::from(*b)).collect();
        loop {
            // Find the lowest-rank (earliest-learned) applicable merge.
            let mut best: Option<(usize, u32, u32)> = None; // (pos, new_id, rank)
            for i in 0..ids.len().saturating_sub(1) {
                if let Some(&new_id) = self.merge_table.get(&(ids[i], ids[i + 1])) {
                    let rank = new_id;
                    if best.map(|(_, _, r)| rank < r).unwrap_or(true) {
                        best = Some((i, new_id, rank));
                    }
                }
            }
            match best {
                Some((pos, new_id, _)) => {
                    ids[pos] = new_id;
                    ids.remove(pos + 1);
                }
                None => return ids,
            }
        }
    }

    /// Decodes token ids back into text. Special tokens decode to their
    /// printable names; invalid UTF-8 (impossible for round-tripped input)
    /// is replaced lossily.
    pub fn decode(&self, ids: &[u32]) -> String {
        let mut bytes = Vec::new();
        let mut out = String::new();
        for &id in ids {
            if id < NUM_SPECIAL {
                out.push_str(&String::from_utf8_lossy(&bytes));
                bytes.clear();
                out.push_str(SPECIAL_TOKENS[id as usize]);
            } else if let Some(tb) = self.vocab_bytes.get(id as usize) {
                bytes.extend_from_slice(tb);
            }
        }
        out.push_str(&String::from_utf8_lossy(&bytes));
        out
    }

    /// Serializes the tokenizer to a plain-text format (one merge per line).
    pub fn to_text(&self) -> String {
        let mut s = String::from("wisdom-bpe v1\n");
        for (a, b) in &self.merges {
            s.push_str(&format!("{a} {b}\n"));
        }
        s
    }

    /// Restores a tokenizer from [`BpeTokenizer::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns [`LoadTokenizerError`] on version or format mismatches.
    pub fn from_text(text: &str) -> Result<BpeTokenizer, LoadTokenizerError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or(LoadTokenizerError::Empty)?;
        if header != "wisdom-bpe v1" {
            return Err(LoadTokenizerError::BadHeader);
        }
        let mut vocab_bytes: Vec<Vec<u8>> = Vec::new();
        for _ in 0..NUM_SPECIAL {
            vocab_bytes.push(Vec::new());
        }
        for b in 0..=255u8 {
            vocab_bytes.push(vec![b]);
        }
        let mut merges = Vec::new();
        let mut merge_table = HashMap::new();
        for (lineno, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split(' ');
            let parse = |p: Option<&str>| -> Result<u32, LoadTokenizerError> {
                p.and_then(|s| s.parse().ok())
                    .ok_or(LoadTokenizerError::BadMerge { line: lineno + 2 })
            };
            let a = parse(parts.next())?;
            let b = parse(parts.next())?;
            let max = vocab_bytes.len() as u32;
            if a >= max || b >= max || a < NUM_SPECIAL || b < NUM_SPECIAL {
                return Err(LoadTokenizerError::BadMerge { line: lineno + 2 });
            }
            let new_id = vocab_bytes.len() as u32;
            let mut merged = vocab_bytes[a as usize].clone();
            merged.extend_from_slice(&vocab_bytes[b as usize]);
            vocab_bytes.push(merged);
            merges.push((a, b));
            merge_table.insert((a, b), new_id);
        }
        Ok(BpeTokenizer {
            merges,
            vocab_bytes,
            merge_table,
            cache: Mutex::new(HashMap::new()),
        })
    }
}

/// Error when restoring a tokenizer from its text form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadTokenizerError {
    /// The input was empty.
    Empty,
    /// Unknown header line.
    BadHeader,
    /// A merge line was malformed or referenced an out-of-range id.
    BadMerge {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for LoadTokenizerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadTokenizerError::Empty => write!(f, "tokenizer file is empty"),
            LoadTokenizerError::BadHeader => write!(f, "unrecognized tokenizer header"),
            LoadTokenizerError::BadMerge { line } => {
                write!(f, "malformed merge at line {line}")
            }
        }
    }
}

impl Error for LoadTokenizerError {}

fn apply_merge(word: &mut Vec<u32>, pair: (u32, u32), new_id: u32) {
    let mut i = 0;
    while i + 1 < word.len() {
        if word[i] == pair.0 && word[i + 1] == pair.1 {
            word[i] = new_id;
            word.remove(i + 1);
        } else {
            i += 1;
        }
    }
}

/// Splits text into BPE "words": merges never cross these boundaries.
/// Word classes: identifier runs (with a single leading space absorbed, as
/// in GPT-2's pre-tokenizer), digit runs, whitespace runs, punctuation runs,
/// and single newlines.
fn pre_tokenize(text: &str) -> Vec<&str> {
    #[derive(PartialEq, Clone, Copy)]
    enum Class {
        Ident,
        Digit,
        Space,
        Newline,
        Punct,
    }
    fn classify(c: char) -> Class {
        if c == '\n' {
            Class::Newline
        } else if c.is_whitespace() {
            Class::Space
        } else if c.is_ascii_digit() {
            Class::Digit
        } else if c.is_alphanumeric() || c == '_' {
            Class::Ident
        } else {
            Class::Punct
        }
    }

    let chars: Vec<(usize, char)> = text.char_indices().collect();
    let n = chars.len();
    let offset = |k: usize| if k < n { chars[k].0 } else { text.len() };
    let mut words = Vec::new();
    let mut i = 0;
    while i < n {
        let c = chars[i].1;
        match classify(c) {
            Class::Newline => {
                words.push(&text[offset(i)..offset(i + 1)]);
                i += 1;
            }
            Class::Space => {
                let mut j = i;
                while j < n && classify(chars[j].1) == Class::Space {
                    j += 1;
                }
                // GPT-2 style: the final space fuses with a following
                // identifier, producing " name" tokens.
                let fuse = j < n && chars[j - 1].1 == ' ' && classify(chars[j].1) == Class::Ident;
                let space_end = if fuse { j - 1 } else { j };
                if space_end > i {
                    words.push(&text[offset(i)..offset(space_end)]);
                }
                if fuse {
                    let mut k = j;
                    while k < n && classify(chars[k].1) == Class::Ident {
                        k += 1;
                    }
                    words.push(&text[offset(space_end)..offset(k)]);
                    i = k;
                } else {
                    i = j;
                }
            }
            class => {
                let mut j = i + 1;
                while j < n && classify(chars[j].1) == class {
                    j += 1;
                }
                words.push(&text[offset(i)..offset(j)]);
                i = j;
            }
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_corpus() -> Vec<&'static str> {
        vec![
            "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n",
            "- name: Start nginx\n  ansible.builtin.service:\n    name: nginx\n    state: started\n",
            "- name: Install httpd\n  ansible.builtin.yum:\n    name: httpd\n    state: latest\n",
        ]
    }

    #[test]
    fn round_trip_simple() {
        let tok = BpeTokenizer::train(sample_corpus(), 400);
        for text in sample_corpus() {
            assert_eq!(tok.decode(&tok.encode(text)), text);
        }
    }

    #[test]
    fn round_trip_unseen_text() {
        let tok = BpeTokenizer::train(sample_corpus(), 400);
        let unseen = "completely différent text: with → unicode ☃ and\ttabs\n";
        assert_eq!(tok.decode(&tok.encode(unseen)), unseen);
    }

    #[test]
    fn vocab_grows_with_merges() {
        let tok = BpeTokenizer::train(sample_corpus(), 320);
        assert!(tok.vocab_size() > 259);
        assert!(tok.vocab_size() <= 320);
        assert_eq!(tok.vocab_size(), 259 + tok.merge_count());
    }

    #[test]
    fn compression_beats_bytes() {
        let tok = BpeTokenizer::train(sample_corpus(), 500);
        let text = sample_corpus()[0];
        let ids = tok.encode(text);
        assert!(
            ids.len() < text.len() / 2,
            "expected >2x compression: {} tokens for {} bytes",
            ids.len(),
            text.len()
        );
    }

    #[test]
    fn determinism() {
        let a = BpeTokenizer::train(sample_corpus(), 350);
        let b = BpeTokenizer::train(sample_corpus(), 350);
        assert_eq!(a.to_text(), b.to_text());
    }

    #[test]
    fn special_tokens_reserved() {
        let tok = BpeTokenizer::train(sample_corpus(), 300);
        assert_eq!(tok.eot(), 0);
        assert_eq!(tok.sep(), 1);
        assert_eq!(tok.pad(), 2);
        let ids = tok.encode("anything at all");
        assert!(ids.iter().all(|&id| id >= 3));
    }

    #[test]
    fn save_load_round_trip() {
        let tok = BpeTokenizer::train(sample_corpus(), 400);
        let text = tok.to_text();
        let loaded = BpeTokenizer::from_text(&text).unwrap();
        assert_eq!(loaded.vocab_size(), tok.vocab_size());
        let sample = "- name: Install nginx\n";
        assert_eq!(loaded.encode(sample), tok.encode(sample));
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(matches!(
            BpeTokenizer::from_text(""),
            Err(LoadTokenizerError::Empty)
        ));
        assert!(matches!(
            BpeTokenizer::from_text("other format\n1 2\n"),
            Err(LoadTokenizerError::BadHeader)
        ));
        assert!(matches!(
            BpeTokenizer::from_text("wisdom-bpe v1\n99999 3\n"),
            Err(LoadTokenizerError::BadMerge { .. })
        ));
        assert!(matches!(
            BpeTokenizer::from_text("wisdom-bpe v1\nnot numbers\n"),
            Err(LoadTokenizerError::BadMerge { .. })
        ));
    }

    #[test]
    fn empty_text() {
        let tok = BpeTokenizer::train(sample_corpus(), 300);
        assert!(tok.encode("").is_empty());
        assert_eq!(tok.decode(&[]), "");
    }

    #[test]
    fn pre_tokenize_splits_sensibly() {
        let words = pre_tokenize("name: nginx_v2\n  state: present");
        // Round-trip property of pre-tokenization.
        assert_eq!(words.concat(), "name: nginx_v2\n  state: present");
        // Newlines stand alone.
        assert!(words.contains(&"\n"));
    }

    #[test]
    fn pre_tokenize_absorbs_single_leading_space() {
        let words = pre_tokenize("state: present");
        assert!(words.contains(&" present"), "{words:?}");
    }

    #[test]
    fn frequent_domain_strings_become_single_tokens() {
        let corpus: Vec<&str> = std::iter::repeat_n(sample_corpus(), 5).flatten().collect();
        let tok = BpeTokenizer::train(corpus, 600);
        // " name" (with the fused leading space) appears everywhere; it
        // should compress to very few tokens.
        assert!(tok.encode(" name").len() <= 2, "{:?}", tok.encode(" name"));
        assert!(
            tok.encode(" state").len() <= 2,
            "{:?}",
            tok.encode(" state")
        );
    }
}
