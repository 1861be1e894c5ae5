//! A from-scratch YAML parser and emitter for the Ansible-YAML dialect.
//!
//! The Ansible Wisdom paper (DAC 2023) generates, validates, scores and
//! normalizes Ansible-YAML. This crate provides the YAML substrate those
//! steps run on: a block-style YAML 1.2 subset covering everything that
//! occurs in Ansible playbooks, task files and common generic YAML
//! (CI configs, Kubernetes manifests, docker-compose files):
//!
//! * block mappings and sequences with arbitrary nesting,
//! * plain / single-quoted / double-quoted scalars with YAML 1.1-style
//!   boolean resolution (`yes`/`no`/`on`/`off`), since real Ansible corpora
//!   use those heavily,
//! * flow sequences `[a, b]` and flow mappings `{k: v}` (single line),
//! * literal (`|`) and folded (`>`) block scalars with chomping indicators,
//! * comments and multi-document streams (`---` / `...`).
//!
//! Out of scope (documented limitation, not needed by the corpus): anchors
//! and aliases, complex (non-scalar) mapping keys, tags, and multi-line flow
//! collections. Inputs using those produce a [`ParseYamlError`].
//!
//! A parsed [`Value`] borrows its keys and scalars from the source text;
//! [`Value::into_owned`] detaches it.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), wisdom_yaml::ParseYamlError> {
//! let doc = wisdom_yaml::parse(
//!     "- name: Install SSH server\n  ansible.builtin.apt:\n    name: openssh-server\n    state: present\n",
//! )?;
//! let tasks = doc.as_seq().expect("top-level sequence");
//! let first = tasks[0].as_map().expect("task mapping");
//! assert_eq!(first.get("name").and_then(|v| v.as_str()), Some("Install SSH server"));
//! # Ok(())
//! # }
//! ```

mod emitter;
mod error;
mod lexer;
mod parser;
mod scalar;
mod value;

pub use emitter::{emit, emit_documents, EmitOptions};
pub use error::ParseYamlError;
pub use parser::{parse, parse_documents, MAX_NESTING_DEPTH};
pub use scalar::{is_template, resolve_plain_scalar, Kind, Kinds, Scan, Template};
pub use value::{Mapping, Value};

#[cfg(test)]
mod round_trip_tests {
    use super::*;

    /// Emitting then re-parsing must yield the same value tree.
    fn assert_round_trip(v: &Value) {
        let text = emit(v);
        let back = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
        assert_eq!(&back, v, "round trip mismatch; emitted:\n{text}");
    }

    #[test]
    fn round_trip_scalars() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-17),
            Value::Float(2.5),
            Value::Float(-0.125),
            Value::Str("hello world".into()),
            Value::Str("true".into()),
            Value::Str("123".into()),
            Value::Str("".into()),
            Value::Str("with: colon".into()),
            Value::Str("# not a comment".into()),
            Value::Str("multi\nline\ntext".into()),
            Value::Str(" leading space".into()),
        ] {
            assert_round_trip(&v);
        }
    }

    #[test]
    fn round_trip_nested() {
        let mut inner = Mapping::new();
        inner.insert("name", Value::Str("httpd".into()));
        inner.insert("state", Value::Str("latest".into()));
        let mut task = Mapping::new();
        task.insert("name", Value::Str("Ensure apache is installed".into()));
        task.insert("ansible.builtin.yum", Value::Map(inner));
        task.insert(
            "notify",
            Value::Seq(vec![Value::Str("restart apache".into())]),
        );
        let doc = Value::Seq(vec![Value::Map(task)]);
        assert_round_trip(&doc);
    }

    #[test]
    fn round_trip_empty_collections() {
        assert_round_trip(&Value::Seq(vec![]));
        assert_round_trip(&Value::Map(Mapping::new()));
        let mut m = Mapping::new();
        m.insert("empty_list", Value::Seq(vec![]));
        m.insert("empty_map", Value::Map(Mapping::new()));
        m.insert("nothing", Value::Null);
        assert_round_trip(&Value::Map(m));
    }
}
