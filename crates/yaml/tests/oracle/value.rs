use std::fmt;

/// An order-preserving string-keyed mapping, the YAML `!!map` node kind.
///
/// Ansible semantics treat a task as a dictionary whose key order is
/// insignificant for execution but significant for style, so the mapping
/// preserves insertion order while offering O(n) keyed lookup (mappings in
/// this domain are small — a task has a handful of keys).
///
/// # Examples
///
/// ```
/// use wisdom_yaml::{Mapping, Value};
///
/// let mut m = Mapping::new();
/// m.insert("state".to_string(), Value::Str("present".to_string()));
/// assert_eq!(m.get("state").and_then(|v| v.as_str()), Some("present"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Mapping {
    entries: Vec<(String, Value)>,
}

impl Mapping {
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
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        for (k, v) in &mut self.entries {
            if *k == key {
                return Some(std::mem::replace(v, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up a value by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up a value by key, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
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
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Iterates over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates over keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Iterates over values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Reorders entries so that keys listed in `order` come first, in that
    /// order; remaining keys keep their relative order. Used by the Ansible
    /// style normalizer (`name` first, module next, keywords last).
    pub fn sort_by_key_order(&mut self, order: &[&str]) {
        let rank = |k: &str| order.iter().position(|o| *o == k).unwrap_or(order.len());
        self.entries.sort_by_key(|(k, _)| rank(k));
    }
}

impl FromIterator<(String, Value)> for Mapping {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut m = Mapping::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl Extend<(String, Value)> for Mapping {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<'a> IntoIterator for &'a Mapping {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (String, Value)>,
        fn(&'a (String, Value)) -> (&'a String, &'a Value),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl IntoIterator for Mapping {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;

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
pub enum Value {
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
    Str(String),
    /// A block or flow sequence.
    Seq(Vec<Value>),
    /// A block or flow mapping with string keys.
    Map(Mapping),
}

impl Value {
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
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the mapping if this is a `Map`.
    pub fn as_map(&self) -> Option<&Mapping> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the mapping mutably if this is a `Map`.
    pub fn as_map_mut(&mut self) -> Option<&mut Mapping> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this node is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
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
            Value::Str(s) => s.clone(),
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

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.scalar_repr())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Seq(v)
    }
}

impl From<Mapping> for Value {
    fn from(m: Mapping) -> Self {
        Value::Map(m)
    }
}

/// Formats a float so that re-parsing yields a `Float` again (never an `Int`).
pub fn format_float(f: f64) -> String {
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

/// Resolves a plain (unquoted) scalar string to a typed [`Value`], following
/// the YAML 1.2 core schema plus YAML 1.1 booleans.
pub fn resolve_plain_scalar(s: &str) -> Value {
    let t = s.trim();
    if t.is_empty() || t == "~" {
        return Value::Null;
    }
    match t {
        "null" | "Null" | "NULL" => return Value::Null,
        "true" | "True" | "TRUE" | "yes" | "Yes" | "YES" | "on" | "On" | "ON" => {
            return Value::Bool(true)
        }
        "false" | "False" | "FALSE" | "no" | "No" | "NO" | "off" | "Off" | "OFF" => {
            return Value::Bool(false)
        }
        ".inf" | ".Inf" | ".INF" | "+.inf" => return Value::Float(f64::INFINITY),
        "-.inf" | "-.Inf" | "-.INF" => return Value::Float(f64::NEG_INFINITY),
        ".nan" | ".NaN" | ".NAN" => return Value::Float(f64::NAN),
        _ => {}
    }
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        if let Ok(i) = i64::from_str_radix(hex, 16) {
            return Value::Int(i);
        }
    }
    if let Some(oct) = t.strip_prefix("0o").or_else(|| t.strip_prefix("0O")) {
        if let Ok(i) = i64::from_str_radix(oct, 8) {
            return Value::Int(i);
        }
    }
    if looks_like_int(t) {
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
    }
    if looks_like_float(t) {
        if let Ok(f) = t.parse::<f64>() {
            return Value::Float(f);
        }
    }
    Value::Str(t.to_string())
}

fn looks_like_int(t: &str) -> bool {
    let body = t.strip_prefix(['+', '-']).unwrap_or(t);
    !body.is_empty() && body.bytes().all(|b| b.is_ascii_digit())
}

fn looks_like_float(t: &str) -> bool {
    let body = t.strip_prefix(['+', '-']).unwrap_or(t);
    if body.is_empty() {
        return false;
    }
    let mut saw_digit = false;
    let mut saw_dot = false;
    let mut saw_exp = false;
    let bytes = body.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'0'..=b'9' => saw_digit = true,
            b'.' if !saw_dot && !saw_exp => saw_dot = true,
            b'e' | b'E' if saw_digit && !saw_exp => {
                saw_exp = true;
                if i + 1 < bytes.len() && (bytes[i + 1] == b'+' || bytes[i + 1] == b'-') {
                    i += 1;
                }
            }
            _ => return false,
        }
        i += 1;
    }
    saw_digit && (saw_dot || saw_exp)
}
