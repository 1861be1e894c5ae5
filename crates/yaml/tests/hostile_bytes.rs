//! Hostile bytes: corpus documents mangled the way a truncated upload, a bad
//! merge or a fuzzer mangles them — bit flips, inserted, deleted and
//! duplicated bytes, shifted indentation, and spliced YAML indicators,
//! multi-byte characters and indentation digits. Every mutant must parse
//! without panicking and within a fixed time; one that parses must re-parse
//! equal after `emit`; and the crate must agree with the owned-tree oracle
//! on all of it. The plain scalars of the corpus and of the mutants must
//! resolve as the resolver before the scalar scanner did (kept in the
//! oracle as `oracle::value::resolve_plain_scalar`). `scripts/check.sh` runs
//! this suite in release on the fixed case budget below.

mod oracle;

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use wisdom_corpus::{Corpus, CorpusSpec};
use wisdom_prng::Prng;
use wisdom_yaml::Value;

/// Inputs that panicked the owned-tree parser: a block-scalar line indented
/// less than the block, holding multi-byte text where the block indent
/// falls, and an unknown double-quoted escape before a multi-byte character.
const PANICKED: [&str; 5] = [
    "a: |2\n éé\n",
    "- |3\n  éé\n",
    "a: >2\n é\n",
    "a: |\n    x\n   é\n",
    "a: \"\\é\"\n",
];

/// What a splice inserts: YAML indicators, multi-byte characters and
/// indentation digits, alone and in the combinations that open structure.
const SPLICES: [&str; 26] = [
    "\t", " ", "'", "\"", "[", "]", "{", "}", "|", ">", "#", "-", ":", "\\", "é", "日本", "🦀",
    "1", "2", "9", "|2", ">-3", "- ", ": ", "''", "\\\"",
];

/// Wall-clock bound per case: far above what parsing a few-KB mutant takes
/// in any build, so only a hang or a blow-up in the input size trips it.
const CASE_BUDGET: Duration = Duration::from_secs(2);

fn corpus() -> &'static [String] {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let c = Corpus::build(&CorpusSpec {
            seed: 0x5EED,
            galaxy_files: 16,
            gitlab_files: 12,
            github_ansible_files: 16,
            generic_files: 16,
            pile_docs: 8,
            pile_yaml_fraction: 0.5,
            bigquery_docs: 4,
            bigpython_docs: 4,
        });
        [c.galaxy, c.gitlab, c.github_ansible, c.generic, c.pile].concat()
    })
}

/// Applies one to five random byte-level edits; the result is read back as
/// UTF-8 the way a JSON body delivers it (invalid sequences become U+FFFD).
fn mutate(doc: &str, rng: &mut Prng) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..rng.range_usize(1, 6) {
        let at = rng.range_usize(0, bytes.len() + 1);
        let run = |rng: &mut Prng, bytes: &[u8], max: usize| {
            (at + rng.range_usize(1, max + 1)).min(bytes.len())
        };
        match rng.range_usize(0, 6) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.range_usize(0, 8),
            1 => bytes.insert(at, rng.u32() as u8),
            2 => {
                let end = run(rng, &bytes, 8);
                bytes.drain(at..end);
            }
            3 => {
                let end = run(rng, &bytes, 32);
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            4 => {
                let start = bytes[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1);
                if rng.chance(0.5) {
                    let spaces = rng.range_usize(1, 4);
                    bytes.splice(start..start, std::iter::repeat_n(b' ', spaces));
                } else {
                    let spaces = bytes[start..]
                        .iter()
                        .take(3)
                        .take_while(|&&b| b == b' ')
                        .count();
                    bytes.drain(start..start + spaces);
                }
            }
            _ => {
                let splice = SPLICES[rng.range_usize(0, SPLICES.len())];
                bytes.splice(at..at, splice.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Tree equality with floats compared by bit pattern, so `.nan` equals
/// itself.
fn same_tree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Seq(x), Value::Seq(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_tree(p, q))
        }
        (Value::Map(x), Value::Map(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|((kx, vx), (ky, vy))| kx == ky && same_tree(vx, vy))
        }
        _ => a == b,
    }
}

fn check(src: &str) {
    let started = Instant::now();
    if let Ok(value) = wisdom_yaml::parse(src) {
        let text = wisdom_yaml::emit(&value);
        let back = wisdom_yaml::parse(&text)
            .unwrap_or_else(|e| panic!("emit of {src:?} does not re-parse: {e}\n{text}"));
        assert!(
            same_tree(&back, &value),
            "emit of {src:?} re-parses differently\n{text}\nfirst: {value:?}\nback: {back:?}"
        );
    }
    oracle::assert_agrees(src);
    let elapsed = started.elapsed();
    assert!(elapsed < CASE_BUDGET, "{src:?} took {elapsed:?}");
}

/// Every text on `doc`'s lines a plain scalar could hold: the line, what
/// follows its first `: ` or leading `- `, and each word.
fn plain_candidates(doc: &str) -> impl Iterator<Item = &str> {
    doc.lines().flat_map(|line| {
        let t = line.trim();
        let value = t.split_once(": ").map(|(_, v)| v);
        let item = t.strip_prefix("- ");
        [t].into_iter()
            .chain(value)
            .chain(item)
            .chain(t.split_whitespace())
    })
}

fn assert_resolves_as_before(doc: &str) {
    for text in plain_candidates(doc) {
        let now = wisdom_yaml::resolve_plain_scalar(text).into_owned();
        let before = oracle::value::resolve_plain_scalar(text);
        let agree = match (&now, &before) {
            (Value::Float(a), oracle::Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Null, oracle::Value::Null) => true,
            (Value::Bool(a), oracle::Value::Bool(b)) => a == b,
            (Value::Int(a), oracle::Value::Int(b)) => a == b,
            (Value::Str(a), oracle::Value::Str(b)) => a == b,
            _ => false,
        };
        assert!(agree, "{text:?} resolves to {now:?}, was {before:?}");
    }
}

#[test]
fn corpus_plain_scalars_resolve_as_before() {
    for doc in corpus() {
        assert_resolves_as_before(doc);
    }
    // Every word the resolver knows, near misses, and number edge cases.
    let words =
        "~ null Null NULL nULL true True TRUE tRUE yes Yes YES yES on On ON oN false False \
        FALSE fALSE no No NO nO off Off OFF oFF .inf .Inf .INF .iNF +.inf +.Inf -.inf -.Inf -.INF \
        .nan .NaN .NAN .nAN";
    for text in words.split_whitespace().chain([
        "0x-1F",
        "0o+7",
        "1e+",
        "1.e5",
        ".5e",
        "-.5",
        "00x1",
        "9223372036854775808",
        "0x8000000000000000",
        "",
    ]) {
        assert_resolves_as_before(text);
    }
}

#[test]
fn inputs_that_panicked_the_owned_parser_are_answered() {
    for src in PANICKED {
        check(src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16384))]

    #[test]
    fn mutated_corpus_documents_never_panic_and_round_trip(seed in any::<u64>()) {
        let mut rng = Prng::seed_from_u64(seed);
        let docs = corpus();
        let doc = &docs[rng.range_usize(0, docs.len())];
        let mut src = mutate(doc, &mut rng);
        // One case in ten mutates a seed input instead of a corpus file.
        if rng.chance(0.1) {
            src = mutate(PANICKED[rng.range_usize(0, PANICKED.len())], &mut rng);
        }
        check(&src);
        assert_resolves_as_before(&src);
    }
}
