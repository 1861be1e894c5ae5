//! The owned-tree YAML front end the borrowing parser replaced, kept only as
//! a test oracle: every `String` copy is still here (one per source line, key
//! and scalar), so any behaviour the rewrite changed by accident shows up as
//! a tree, error or emitted text that differs from this one.
//!
//! It differs from the code it preserves in exactly two places, both fixes of
//! panics the rewrite had to make (marked "Departure" in `parser.rs`): a
//! block-scalar line indented less than the block keeps its trimmed text, and
//! an unknown double-quoted escape keeps the whole character after the
//! backslash.

#![allow(dead_code)]

pub mod emitter;
pub mod lexer;
pub mod parser;
pub mod value;

pub use emitter::emit;
pub use parser::{parse, parse_documents};
pub use value::Value;

/// The oracle's parse error: the same line and message the crate reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseYamlError {
    pub line: usize,
    pub message: String,
}

impl ParseYamlError {
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

/// Whether the borrowing parser's tree (detached with `into_owned`) equals
/// the oracle's, field by field. Floats compare by bit pattern, so a `.nan`
/// scalar agrees with itself.
pub fn same(new: &wisdom_yaml::Value<'static>, old: &Value) -> bool {
    use wisdom_yaml::Value as New;
    match (new, old) {
        (New::Null, Value::Null) => true,
        (New::Bool(a), Value::Bool(b)) => a == b,
        (New::Int(a), Value::Int(b)) => a == b,
        (New::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
        (New::Str(a), Value::Str(b)) => a == b,
        (New::Seq(a), Value::Seq(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
        }
        (New::Map(a), Value::Map(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b.iter())
                    .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb))
        }
        _ => false,
    }
}

/// Parses `src` with both front ends and panics unless they agree: equal
/// trees (or the same error line and message) for `parse` and for
/// `parse_documents`, and byte-identical `emit` output for every tree.
pub fn assert_agrees(src: &str) {
    let new = wisdom_yaml::parse(src).map(wisdom_yaml::Value::into_owned);
    match (&new, &parse(src)) {
        (Ok(a), Ok(b)) => {
            assert!(
                same(a, b),
                "trees differ for {src:?}\nnew: {a:?}\nold: {b:?}"
            );
            assert_eq!(wisdom_yaml::emit(a), emit(b), "emit differs for {src:?}");
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                (a.line(), a.message()),
                (b.line, b.message.as_str()),
                "{src:?}"
            );
        }
        (a, b) => panic!("outcomes differ for {src:?}\nnew: {a:?}\nold: {b:?}"),
    }
    let new_docs = wisdom_yaml::parse_documents(src);
    match (&new_docs, &parse_documents(src)) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.len(), b.len(), "document counts differ for {src:?}");
            for (x, y) in a.iter().zip(b) {
                assert!(
                    same(&x.clone().into_owned(), y),
                    "documents differ for {src:?}"
                );
            }
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                (a.line(), a.message()),
                (b.line, b.message.as_str()),
                "{src:?}"
            );
        }
        (a, b) => panic!("stream outcomes differ for {src:?}\nnew: {a:?}\nold: {b:?}"),
    }
}
