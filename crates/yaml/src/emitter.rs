//! Canonical block-style YAML emission in the Ansible community style:
//! two-space indentation, sequences indented under their key, compact
//! `- key: value` sequence items, literal blocks for multi-line strings.

use crate::scalar::resolve_plain_scalar;
use crate::value::{format_float, Mapping, Value};

/// Options controlling [`emit`].
///
/// # Examples
///
/// ```
/// use wisdom_yaml::{EmitOptions, Value};
///
/// let opts = EmitOptions { start_marker: true, ..EmitOptions::default() };
/// let text = opts.emit(&Value::Int(1));
/// assert_eq!(text, "---\n1\n");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmitOptions {
    /// Number of spaces per nesting level (default 2, the Ansible style).
    pub indent: usize,
    /// Whether to prepend the `---` document start marker.
    pub start_marker: bool,
}

impl Default for EmitOptions {
    fn default() -> Self {
        Self {
            indent: 2,
            start_marker: false,
        }
    }
}

impl EmitOptions {
    /// Renders `value` as a YAML document under these options.
    pub fn emit(&self, value: &Value) -> String {
        let mut out = String::new();
        if self.start_marker {
            out.push_str("---\n");
        }
        let mut e = Emitter {
            step: self.indent.max(1),
            out: &mut out,
        };
        e.node(value, 0);
        out
    }
}

/// Renders `value` as a YAML document with default options
/// (2-space indent, no `---` marker).
///
/// The output is guaranteed to re-parse to an equal [`Value`].
///
/// # Examples
///
/// ```
/// use wisdom_yaml::{Mapping, Value};
///
/// let mut m = Mapping::new();
/// m.insert("state", Value::from("present"));
/// assert_eq!(wisdom_yaml::emit(&Value::Map(m)), "state: present\n");
/// ```
pub fn emit(value: &Value) -> String {
    EmitOptions::default().emit(value)
}

/// Renders a multi-document stream separated by `---` markers.
///
/// # Examples
///
/// ```
/// use wisdom_yaml::Value;
///
/// let s = wisdom_yaml::emit_documents(&[Value::Int(1), Value::Int(2)]);
/// assert_eq!(s, "---\n1\n---\n2\n");
/// ```
pub fn emit_documents(docs: &[Value]) -> String {
    let mut out = String::new();
    for doc in docs {
        out.push_str("---\n");
        let mut e = Emitter {
            step: 2,
            out: &mut out,
        };
        e.node(doc, 0);
    }
    out
}

struct Emitter<'a> {
    step: usize,
    out: &'a mut String,
}

impl Emitter<'_> {
    fn pad(&mut self, indent: usize) {
        for _ in 0..indent {
            self.out.push(' ');
        }
    }

    /// Emits a node at top level or as the body under a key/dash that has
    /// already established `indent` columns and ended its line.
    fn node(&mut self, v: &Value, indent: usize) {
        match v {
            Value::Seq(items) if !items.is_empty() => self.seq(items, indent),
            Value::Map(m) if !m.is_empty() => self.map(m, indent),
            other => {
                self.pad(indent);
                self.scalar_line(other, indent);
                self.out.push('\n');
            }
        }
    }

    fn seq(&mut self, items: &[Value], indent: usize) {
        for item in items {
            self.pad(indent);
            self.out.push('-');
            match item {
                Value::Map(m) if !m.is_empty() => {
                    self.out.push(' ');
                    self.map_inline_first(m, indent + self.step);
                }
                Value::Seq(s) if !s.is_empty() => {
                    self.out.push('\n');
                    self.seq(s, indent + self.step);
                }
                other => {
                    self.out.push(' ');
                    // The parser treats the dash line's indent as the block
                    // scalar parent, so literal bodies hang off `indent`.
                    self.scalar_line(other, indent);
                    self.out.push('\n');
                }
            }
        }
    }

    /// Emits a mapping whose first entry continues the current line
    /// (after `- `), with the remaining entries at `indent`.
    fn map_inline_first(&mut self, m: &Mapping, indent: usize) {
        for (i, (k, v)) in m.iter().enumerate() {
            if i > 0 {
                self.pad(indent);
            }
            self.entry(k, v, indent);
        }
    }

    fn map(&mut self, m: &Mapping, indent: usize) {
        for (k, v) in m.iter() {
            self.pad(indent);
            self.entry(k, v, indent);
        }
    }

    /// Emits `key: …` plus newline(s); cursor is already at the key column.
    fn entry(&mut self, key: &str, v: &Value, indent: usize) {
        self.emit_key(key);
        match v {
            Value::Seq(items) if !items.is_empty() => {
                self.out.push_str(":\n");
                self.seq(items, indent + self.step);
            }
            Value::Map(m) if !m.is_empty() => {
                self.out.push_str(":\n");
                self.map(m, indent + self.step);
            }
            other => {
                self.out.push_str(": ");
                self.scalar_line(other, indent);
                self.out.push('\n');
            }
        }
    }

    fn emit_key(&mut self, key: &str) {
        if plain_key_ok(key) {
            self.out.push_str(key);
        } else {
            self.out.push_str(&double_quote(key));
        }
    }

    /// Emits a scalar (or empty collection) in value position. `indent` is
    /// the indent of the *owner* line, used for literal block bodies.
    fn scalar_line(&mut self, v: &Value, indent: usize) {
        match v {
            Value::Null => self.out.push_str("null"),
            Value::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => self.out.push_str(&i.to_string()),
            Value::Float(f) => self.out.push_str(&format_float(*f)),
            Value::Seq(items) => {
                debug_assert!(items.is_empty());
                self.out.push_str("[]");
            }
            Value::Map(m) => {
                debug_assert!(m.is_empty());
                self.out.push_str("{}");
            }
            Value::Str(s) => self.string_scalar(s, indent),
        }
    }

    fn string_scalar(&mut self, s: &str, indent: usize) {
        if s.contains('\n') && !s.trim_end_matches('\n').is_empty() && literal_block_ok(s) {
            self.literal_block(s, indent);
        } else if needs_quoting(s) {
            self.out.push_str(&double_quote(s));
        } else {
            self.out.push_str(s);
        }
    }

    fn literal_block(&mut self, s: &str, indent: usize) {
        let body_indent = indent + self.step;
        let trailing = s.len() - s.trim_end_matches('\n').len();
        let explicit = s
            .lines()
            .find(|l| !l.is_empty())
            .is_some_and(|l| l.starts_with(' '));
        self.out.push('|');
        if explicit {
            self.out.push_str(&self.step.to_string());
        }
        match trailing {
            0 => self.out.push('-'),
            1 => {}
            _ => self.out.push('+'),
        }
        self.out.push('\n');
        let core = s.trim_end_matches('\n');
        for line in core.split('\n') {
            if line.is_empty() {
                self.out.push('\n');
            } else {
                self.pad(body_indent);
                self.out.push_str(line);
                self.out.push('\n');
            }
        }
        for _ in 2..trailing {
            self.out.push('\n');
        }
        // `|+` keeps every trailing newline: the block ends at the last body
        // line, so a `trailing` of n>=2 needs n-1 blank lines after the core.
        if trailing >= 2 {
            self.out.push('\n');
        }
        // Remove the final '\n' because the caller appends one.
        self.out.pop();
    }
}

/// Whether `s` can appear verbatim as a literal block body (no lines with
/// trailing whitespace, no carriage returns or control characters).
fn literal_block_ok(s: &str) -> bool {
    if s.chars().any(|c| c != '\n' && c != '\t' && c.is_control()) {
        return false;
    }
    // Trailing whitespace would be lost by the comment-free re-read and a
    // leading tab would be an indentation error, so quote those instead.
    s.split('\n')
        .all(|l| l == l.trim_end() && !l.starts_with('\t'))
}

fn plain_key_ok(key: &str) -> bool {
    !key.is_empty() && !needs_quoting(key) && !key.contains(':') && !key.contains('#')
}

/// Whether a single-line string must be quoted to survive re-parsing as the
/// same string.
fn needs_quoting(s: &str) -> bool {
    if s.is_empty() {
        return true;
    }
    if s != s.trim() {
        return true;
    }
    if s.contains('\n') || s.chars().any(|c| c.is_control()) {
        return true;
    }
    let first = s.chars().next().expect("non-empty");
    if matches!(
        first,
        '-' | '?'
            | ':'
            | ','
            | '['
            | ']'
            | '{'
            | '}'
            | '#'
            | '&'
            | '*'
            | '!'
            | '|'
            | '>'
            | '\''
            | '"'
            | '%'
            | '@'
            | '`'
    ) {
        // `-la` style flags and jinja `{{` are only safe when they don't
        // collide with structure; be conservative and quote anything that
        // starts with an indicator character.
        return true;
    }
    if s.contains(": ") || s.ends_with(':') || s.contains(" #") {
        return true;
    }
    // Strings that would resolve to a different type must be quoted.
    !matches!(resolve_plain_scalar(s), crate::Value::Str(_))
}

fn double_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\0' => out.push_str("\\0"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, Mapping, Value};

    fn map(pairs: &[(&'static str, Value<'static>)]) -> Value<'static> {
        let mut m = Mapping::new();
        for (k, v) in pairs {
            m.insert(*k, v.clone());
        }
        Value::Map(m)
    }

    #[test]
    fn simple_mapping_style() {
        let v = map(&[
            ("name", Value::Str("Install nginx".into())),
            ("state", Value::Str("present".into())),
        ]);
        assert_eq!(emit(&v), "name: Install nginx\nstate: present\n");
    }

    #[test]
    fn sequence_of_task_maps_is_compact() {
        let task = map(&[
            ("name", Value::Str("Install SSH server".into())),
            (
                "ansible.builtin.apt",
                map(&[
                    ("name", Value::Str("openssh-server".into())),
                    ("state", Value::Str("present".into())),
                ]),
            ),
        ]);
        let doc = Value::Seq(vec![task]);
        let text = emit(&doc);
        assert_eq!(
            text,
            "- name: Install SSH server\n  ansible.builtin.apt:\n    name: openssh-server\n    state: present\n"
        );
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn start_marker_option() {
        let opts = EmitOptions {
            start_marker: true,
            ..EmitOptions::default()
        };
        assert_eq!(opts.emit(&map(&[("a", Value::Int(1))])), "---\na: 1\n");
    }

    #[test]
    fn quoting_of_type_collisions() {
        let v = map(&[
            ("a", Value::Str("true".into())),
            ("b", Value::Str("123".into())),
            ("c", Value::Str("null".into())),
            ("d", Value::Str("1.5".into())),
        ]);
        let text = emit(&v);
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        assert!(text.contains("\"true\""));
    }

    #[test]
    fn quoting_of_structure_collisions() {
        for s in [
            "a: b",
            "x #y",
            "- item",
            "[not, flow]",
            "{{ var }}",
            "*star",
        ] {
            let v = map(&[("k", Value::Str(s.into()))]);
            let text = emit(&v);
            assert_eq!(parse(&text).unwrap(), v, "emitted: {text}");
        }
    }

    #[test]
    fn multiline_string_uses_literal_block() {
        let v = map(&[("script", Value::Str("line one\nline two\n".into()))]);
        let text = emit(&v);
        assert_eq!(text, "script: |\n  line one\n  line two\n");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn multiline_without_trailing_newline() {
        let v = map(&[("a", Value::Str("x\ny".into())), ("b", Value::Int(1))]);
        let text = emit(&v);
        assert_eq!(parse(&text).unwrap(), v);
        assert!(text.contains("|-"));
    }

    #[test]
    fn multiline_keep_chomping() {
        let v = map(&[("a", Value::Str("x\n\n\n".into())), ("b", Value::Int(1))]);
        let text = emit(&v);
        assert_eq!(parse(&text).unwrap(), v, "emitted:\n{text}");
    }

    #[test]
    fn multiline_with_leading_space_first_line() {
        let v = map(&[("a", Value::Str("  indented\nplain\n".into()))]);
        let text = emit(&v);
        assert_eq!(parse(&text).unwrap(), v, "emitted:\n{text}");
    }

    #[test]
    fn empty_collections_inline() {
        let v = map(&[("s", Value::Seq(vec![])), ("m", Value::Map(Mapping::new()))]);
        assert_eq!(emit(&v), "s: []\nm: {}\n");
    }

    #[test]
    fn nested_sequences() {
        let v = Value::Seq(vec![
            Value::Seq(vec![Value::Int(1), Value::Int(2)]),
            Value::Int(3),
        ]);
        let text = emit(&v);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn odd_keys_are_quoted() {
        let mut m = Mapping::new();
        m.insert("with: colon", Value::Int(1));
        m.insert("", Value::Int(2));
        let v = Value::Map(m);
        let text = emit(&v);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn floats_survive() {
        let v = map(&[("x", Value::Float(1.0)), ("y", Value::Float(0.25))]);
        let text = emit(&v);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn documents_stream() {
        let docs = vec![
            map(&[("a", Value::Int(1))]),
            Value::Seq(vec![Value::Int(2)]),
        ];
        let text = emit_documents(&docs);
        let back = crate::parse_documents(&text).unwrap();
        assert_eq!(back, docs);
    }
}
