use std::borrow::Cow;
use std::fmt;

/// An order-preserving string-keyed mapping, the YAML `!!map` node kind.
///
/// Ansible semantics treat a task as a dictionary whose key order is
/// insignificant for execution but significant for style, so the mapping
/// preserves insertion order while offering O(n) keyed lookup (mappings in
/// this domain are small — a task has a handful of keys).
///
/// Keys are `Cow<'a, str>`: a parsed mapping borrows its keys from the
/// source text (only a quoted key with an escape owns its text), while a
/// mapping built in code may insert `&'static str` or `String` keys alike.
///
/// # Examples
///
/// ```
/// use wisdom_yaml::{Mapping, Value};
///
/// let mut m = Mapping::new();
/// m.insert("state", Value::Str("present".into()));
/// assert_eq!(m.get("state").and_then(|v| v.as_str()), Some("present"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Mapping<'a> {
    entries: Vec<(Cow<'a, str>, Value<'a>)>,
}

impl<'a> Mapping<'a> {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of key/value pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the mapping has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a key/value pair, replacing and returning any previous value
    /// stored under the same key (the entry keeps its original position).
    pub fn insert(&mut self, key: impl Into<Cow<'a, str>>, value: Value<'a>) -> Option<Value<'a>> {
        let key = key.into();
        if let Some(v) = self.get_mut(&key) {
            return Some(std::mem::replace(v, value));
        }
        self.entries.push((key, value));
        None
    }

    /// Appends an entry whose key the caller has checked is absent.
    pub(crate) fn push_new(&mut self, key: Cow<'a, str>, value: Value<'a>) {
        debug_assert!(!self.contains_key(&key));
        self.entries.push((key, value));
    }

    /// Looks up a value by key.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up a value by key, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value<'a>> {
        self.entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether the mapping contains `key`.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Removes and returns the value stored under `key`, if any.
    pub fn remove(&mut self, key: &str) -> Option<Value<'a>> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value<'a>)> {
        self.entries.iter().map(|(k, v)| (k.as_ref(), v))
    }

    /// Iterates over keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_ref())
    }

    /// Iterates over values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value<'a>> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Reorders entries so that keys listed in `order` come first, in that
    /// order; remaining keys keep their relative order. Used by the Ansible
    /// style normalizer (`name` first, module next, keywords last).
    pub fn sort_by_key_order(&mut self, order: &[&str]) {
        let rank = |k: &str| order.iter().position(|o| *o == k).unwrap_or(order.len());
        self.entries.sort_by_key(|(k, _)| rank(k));
    }

    /// Copies every borrowed key and scalar, detaching the mapping from its
    /// source text.
    pub fn into_owned(self) -> Mapping<'static> {
        Mapping {
            entries: self
                .entries
                .into_iter()
                .map(|(k, v)| (Cow::Owned(k.into_owned()), v.into_owned()))
                .collect(),
        }
    }
}

impl<'a, K: Into<Cow<'a, str>>> FromIterator<(K, Value<'a>)> for Mapping<'a> {
    fn from_iter<I: IntoIterator<Item = (K, Value<'a>)>>(iter: I) -> Self {
        let mut m = Mapping::new();
        m.extend(iter);
        m
    }
}

impl<'a, K: Into<Cow<'a, str>>> Extend<(K, Value<'a>)> for Mapping<'a> {
    fn extend<I: IntoIterator<Item = (K, Value<'a>)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<'a> IntoIterator for Mapping<'a> {
    type Item = (Cow<'a, str>, Value<'a>);
    type IntoIter = std::vec::IntoIter<(Cow<'a, str>, Value<'a>)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

/// A parsed YAML node.
///
/// Scalars are resolved with the Ansible-friendly schema: YAML 1.2 core types
/// plus YAML 1.1 booleans (`yes`/`no`/`on`/`off`), because real Ansible
/// content relies on them.
///
/// A tree returned by [`parse`](crate::parse) borrows from its source: a
/// string scalar is `Cow::Borrowed` unless the text had to change — a
/// double-quoted escape, a `''` in a single-quoted scalar, a plain scalar
/// folded over several lines, or a block scalar. [`Value::into_owned`]
/// detaches a tree that must outlive its source.
///
/// # Examples
///
/// ```
/// use wisdom_yaml::Value;
///
/// let v = wisdom_yaml::parse("enabled: yes\ncount: 3\n")?;
/// let m = v.as_map().expect("mapping");
/// assert_eq!(m.get("enabled"), Some(&Value::Bool(true)));
/// assert_eq!(m.get("count"), Some(&Value::Int(3)));
/// # Ok::<(), wisdom_yaml::ParseYamlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value<'a> {
    /// `null`, `~`, or an empty node.
    #[default]
    Null,
    /// `true` / `false` (also `yes`/`no`/`on`/`off` in any common casing).
    Bool(bool),
    /// A 64-bit signed integer (decimal, `0x…`, or `0o…`).
    Int(i64),
    /// A finite or special (`.inf`, `.nan`) floating point number.
    Float(f64),
    /// Any other scalar.
    Str(Cow<'a, str>),
    /// A block or flow sequence.
    Seq(Vec<Value<'a>>),
    /// A block or flow mapping with string keys.
    Map(Mapping<'a>),
}

impl<'a> Value<'a> {
    /// Returns the string slice if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float if this is a `Float` (or the exact value of an `Int`).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the sequence if this is a `Seq`.
    pub fn as_seq(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the mapping if this is a `Map`.
    pub fn as_map(&self) -> Option<&Mapping<'a>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the mapping mutably if this is a `Map`.
    pub fn as_map_mut(&mut self) -> Option<&mut Mapping<'a>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this node is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Copies every borrowed key and scalar, detaching the tree from the
    /// text it was parsed from. Callers that keep a tree past its source
    /// (task and playbook fields, normalized documents) call this once.
    pub fn into_owned(self) -> Value<'static> {
        match self {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(b),
            Value::Int(i) => Value::Int(i),
            Value::Float(f) => Value::Float(f),
            Value::Str(s) => Value::Str(Cow::Owned(s.into_owned())),
            Value::Seq(items) => Value::Seq(items.into_iter().map(Value::into_owned).collect()),
            Value::Map(m) => Value::Map(m.into_owned()),
        }
    }

    /// Renders the scalar the way the canonical emitter would render it in
    /// plain (unquoted) position. Collections render in flow style; useful
    /// for diagnostics only.
    pub fn scalar_repr(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(*f),
            Value::Str(s) => s.to_string(),
            Value::Seq(items) => {
                let inner: Vec<String> = items.iter().map(Value::scalar_repr).collect();
                format!("[{}]", inner.join(", "))
            }
            Value::Map(m) => {
                let inner: Vec<String> = m
                    .iter()
                    .map(|(k, v)| format!("{}: {}", k, v.scalar_repr()))
                    .collect();
                format!("{{{}}}", inner.join(", "))
            }
        }
    }
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.scalar_repr())
    }
}

impl From<bool> for Value<'_> {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value<'_> {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value<'_> {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl<'a> From<&'a str> for Value<'a> {
    fn from(s: &'a str) -> Self {
        Value::Str(Cow::Borrowed(s))
    }
}

impl From<String> for Value<'_> {
    fn from(s: String) -> Self {
        Value::Str(Cow::Owned(s))
    }
}

impl<'a> From<Vec<Value<'a>>> for Value<'a> {
    fn from(v: Vec<Value<'a>>) -> Self {
        Value::Seq(v)
    }
}

impl<'a> From<Mapping<'a>> for Value<'a> {
    fn from(m: Mapping<'a>) -> Self {
        Value::Map(m)
    }
}

/// Formats a float so that re-parsing yields a `Float` again (never an `Int`).
pub(crate) fn format_float(f: f64) -> String {
    if f.is_nan() {
        ".nan".to_string()
    } else if f.is_infinite() {
        if f > 0.0 { ".inf" } else { "-.inf" }.to_string()
    } else if f == f.trunc() && f.abs() < 1e15 {
        format!("{f:.1}")
    } else if f == f.trunc() {
        // Huge integral floats need exponent form so they re-parse as floats
        // rather than overflowing the integer rule into a string.
        format!("{f:e}")
    } else {
        format!("{f}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::resolve_plain_scalar;

    #[test]
    fn mapping_preserves_insertion_order() {
        let mut m = Mapping::new();
        m.insert("b", Value::Int(1));
        m.insert("a", Value::Int(2));
        m.insert("c", Value::Int(3));
        let keys: Vec<&str> = m.keys().collect();
        assert_eq!(keys, ["b", "a", "c"]);
    }

    #[test]
    fn mapping_insert_replaces_in_place() {
        let mut m = Mapping::new();
        m.insert("a", Value::Int(1));
        m.insert("b", Value::Int(2));
        let old = m.insert("a", Value::Int(9));
        assert_eq!(old, Some(Value::Int(1)));
        let keys: Vec<&str> = m.keys().collect();
        assert_eq!(keys, ["a", "b"]);
        assert_eq!(m.get("a"), Some(&Value::Int(9)));
    }

    #[test]
    fn mapping_remove() {
        let mut m = Mapping::new();
        m.insert("a", Value::Int(1));
        assert_eq!(m.remove("a"), Some(Value::Int(1)));
        assert_eq!(m.remove("a"), None);
        assert!(m.is_empty());
    }

    #[test]
    fn sort_by_key_order_moves_listed_keys_first() {
        let mut m = Mapping::new();
        m.insert("when", Value::Str("x".into()));
        m.insert("apt", Value::Null);
        m.insert("name", Value::Str("t".into()));
        m.sort_by_key_order(&["name", "apt"]);
        let keys: Vec<&str> = m.keys().collect();
        assert_eq!(keys, ["name", "apt", "when"]);
    }

    #[test]
    fn resolve_plain_nulls_bools() {
        assert_eq!(resolve_plain_scalar(""), Value::Null);
        assert_eq!(resolve_plain_scalar("~"), Value::Null);
        assert_eq!(resolve_plain_scalar("null"), Value::Null);
        assert_eq!(resolve_plain_scalar("yes"), Value::Bool(true));
        assert_eq!(resolve_plain_scalar("Off"), Value::Bool(false));
        assert_eq!(resolve_plain_scalar("True"), Value::Bool(true));
    }

    #[test]
    fn resolve_plain_numbers() {
        assert_eq!(resolve_plain_scalar("42"), Value::Int(42));
        assert_eq!(resolve_plain_scalar("-7"), Value::Int(-7));
        assert_eq!(resolve_plain_scalar("0x1F"), Value::Int(31));
        assert_eq!(resolve_plain_scalar("0o17"), Value::Int(15));
        assert_eq!(resolve_plain_scalar("2.5"), Value::Float(2.5));
        assert_eq!(resolve_plain_scalar("1e3"), Value::Float(1000.0));
        assert_eq!(resolve_plain_scalar("-0.5"), Value::Float(-0.5));
    }

    #[test]
    fn resolve_plain_strings() {
        assert_eq!(
            resolve_plain_scalar("openssh-server"),
            Value::Str("openssh-server".into())
        );
        assert_eq!(resolve_plain_scalar("1.2.3"), Value::Str("1.2.3".into()));
        assert_eq!(
            resolve_plain_scalar("{{ item }}"),
            Value::Str("{{ item }}".into())
        );
        // versions with leading zeros after dots stay strings
        assert_eq!(resolve_plain_scalar("1.0.0"), Value::Str("1.0.0".into()));
    }

    #[test]
    fn float_format_round_trips_to_float() {
        for f in [1.0, -3.0, 0.5, 1e20, 123.456] {
            let s = format_float(f);
            assert_eq!(resolve_plain_scalar(&s), Value::Float(f), "for {s}");
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.as_str(), None);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
    }

    #[test]
    fn display_flow_repr() {
        let mut m = Mapping::new();
        m.insert("a", Value::Int(1));
        let v = Value::Seq(vec![Value::Map(m), Value::Bool(false)]);
        assert_eq!(v.to_string(), "[{a: 1}, false]");
    }
}
