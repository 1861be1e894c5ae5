//! Task-level and play-level keyword schemas.
//!
//! Ansible distinguishes the *module* key of a task from *keywords* that
//! influence execution (conditions, loops, privilege escalation, error
//! handling). The lint schema and the Ansible Aware metric both need to know
//! which keys are keywords and what value shapes they accept.

use wisdom_yaml::Value;

/// Accepted value shapes for a keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeywordSpec {
    /// Keyword name.
    pub name: &'static str,
    /// Acceptable value kinds.
    pub kinds: KindSet,
}

/// A small set of YAML value kinds, used to validate keyword values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindSet {
    bits: u8,
}

impl KindSet {
    const STR: u8 = 1;
    const BOOL: u8 = 2;
    const INT: u8 = 4;
    const LIST: u8 = 8;
    const MAP: u8 = 16;

    const fn new(bits: u8) -> Self {
        Self { bits }
    }

    /// Whether `value` is one of the accepted kinds. Jinja template strings
    /// ([`wisdom_yaml::is_template`]: every `{{` closed by a later `}}`) are
    /// accepted everywhere, mirroring Ansible's lazy templating; numbers are
    /// accepted where strings are.
    pub fn accepts(&self, value: &Value) -> bool {
        match value {
            Value::Str(s) => self.bits & Self::STR != 0 || wisdom_yaml::is_template(s),
            Value::Bool(_) => self.bits & Self::BOOL != 0,
            Value::Int(_) => self.bits & (Self::INT | Self::STR) != 0,
            Value::Float(_) => self.bits & (Self::INT | Self::STR) != 0,
            Value::Seq(_) => self.bits & Self::LIST != 0,
            Value::Map(_) => self.bits & Self::MAP != 0,
            Value::Null => false,
        }
    }

    /// Human-readable description of the accepted kinds.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.bits & Self::STR != 0 {
            parts.push("string");
        }
        if self.bits & Self::BOOL != 0 {
            parts.push("bool");
        }
        if self.bits & Self::INT != 0 {
            parts.push("int");
        }
        if self.bits & Self::LIST != 0 {
            parts.push("list");
        }
        if self.bits & Self::MAP != 0 {
            parts.push("map");
        }
        parts.join(" or ")
    }
}

const S: KindSet = KindSet::new(KindSet::STR);
const B: KindSet = KindSet::new(KindSet::BOOL);
const L: KindSet = KindSet::new(KindSet::LIST);
const M: KindSet = KindSet::new(KindSet::MAP);
// Booleans deliberately exclude plain strings (the strict schema); jinja
// template strings are still accepted via `KindSet::accepts`.
const SL: KindSet = KindSet::new(KindSet::STR | KindSet::LIST);
const SBL: KindSet = KindSet::new(KindSet::STR | KindSet::BOOL | KindSet::LIST);
const IS: KindSet = KindSet::new(KindSet::INT | KindSet::STR);
const ML: KindSet = KindSet::new(KindSet::MAP | KindSet::LIST);

const fn kw(name: &'static str, kinds: KindSet) -> KeywordSpec {
    KeywordSpec { name, kinds }
}

/// Keywords valid on a task (shared subset also valid on blocks and plays).
pub static TASK_KEYWORDS: &[KeywordSpec] = &[
    kw("name", S),
    kw("when", SBL),
    kw("loop", SL),
    kw("with_items", SL),
    kw("with_dict", SL),
    kw("with_fileglob", SL),
    kw("with_together", SL),
    kw("with_sequence", SL),
    kw("with_subelements", SL),
    kw("with_nested", SL),
    kw("with_first_found", SL),
    kw("loop_control", M),
    kw("register", S),
    kw("become", B),
    kw("become_user", S),
    kw("become_method", S),
    kw("become_flags", S),
    kw("vars", M),
    kw("environment", ML),
    kw("tags", SL),
    kw("notify", SL),
    kw("listen", SL),
    kw("ignore_errors", B),
    kw("ignore_unreachable", B),
    kw("changed_when", SBL),
    kw("failed_when", SBL),
    kw("until", SBL),
    kw("retries", IS),
    kw("delay", IS),
    kw("delegate_to", S),
    kw("delegate_facts", B),
    kw("run_once", B),
    kw("no_log", B),
    kw("args", M),
    kw("check_mode", B),
    kw("diff", B),
    kw("remote_user", S),
    kw("connection", S),
    kw("throttle", IS),
    kw("timeout", IS),
    kw("any_errors_fatal", B),
    kw("collections", L),
    kw("module_defaults", M),
    kw("first_found", SL),
];

/// Keywords valid on a play (in addition to structural `tasks` etc.).
pub static PLAY_KEYWORDS: &[KeywordSpec] = &[
    kw("name", S),
    kw("hosts", SL),
    kw("connection", S),
    kw("gather_facts", B),
    kw("gather_subset", SL),
    kw("become", B),
    kw("become_user", S),
    kw("become_method", S),
    kw("vars", M),
    kw("vars_files", L),
    kw("vars_prompt", L),
    kw("roles", L),
    kw("tasks", L),
    kw("handlers", L),
    kw("pre_tasks", L),
    kw("post_tasks", L),
    kw("environment", ML),
    kw("remote_user", S),
    kw("serial", IS),
    kw("strategy", S),
    kw("tags", SL),
    kw("collections", L),
    kw("any_errors_fatal", B),
    kw("force_handlers", B),
    kw("max_fail_percentage", IS),
    kw("ignore_unreachable", B),
    kw("order", S),
    kw("module_defaults", M),
    kw("port", IS),
    kw("no_log", B),
    kw("ignore_errors", B),
];

/// Structural keys that make a mapping a block rather than a plain task.
pub static BLOCK_KEYS: &[&str] = &["block", "rescue", "always"];

/// Looks up a task keyword spec by name.
pub fn task_keyword(name: &str) -> Option<&'static KeywordSpec> {
    TASK_KEYWORDS.iter().find(|k| k.name == name)
}

/// Looks up a play keyword spec by name.
pub fn play_keyword(name: &str) -> Option<&'static KeywordSpec> {
    PLAY_KEYWORDS.iter().find(|k| k.name == name)
}

/// Whether `name` is a task keyword (not a module key).
pub fn is_task_keyword(name: &str) -> bool {
    task_keyword(name).is_some()
}

/// Whether `name` is one of the block-structure keys.
pub fn is_block_key(name: &str) -> bool {
    BLOCK_KEYS.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisdom_yaml::Mapping;

    #[test]
    fn keyword_lookup() {
        assert!(is_task_keyword("when"));
        assert!(is_task_keyword("register"));
        assert!(!is_task_keyword("ansible.builtin.apt"));
        assert!(!is_task_keyword("apt"));
    }

    #[test]
    fn kindset_accepts_expected_shapes() {
        let when = task_keyword("when").unwrap();
        assert!(when.kinds.accepts(&Value::Str("x is defined".into())));
        assert!(when.kinds.accepts(&Value::Bool(true)));
        assert!(when.kinds.accepts(&Value::Seq(vec![])));
        assert!(!when.kinds.accepts(&Value::Map(Mapping::new())));

        let register = task_keyword("register").unwrap();
        assert!(register.kinds.accepts(&Value::Str("result".into())));
        assert!(!register.kinds.accepts(&Value::Bool(true)));
    }

    #[test]
    fn jinja_strings_accepted_everywhere() {
        let become_kw = task_keyword("become").unwrap();
        assert!(become_kw
            .kinds
            .accepts(&Value::Str("{{ use_sudo }}".into())));
        assert!(!become_kw.kinds.accepts(&Value::Str("plainstring".into())));
    }

    #[test]
    fn numbers_accepted_as_strings() {
        let retries = task_keyword("retries").unwrap();
        assert!(retries.kinds.accepts(&Value::Int(3)));
        assert!(retries.kinds.accepts(&Value::Str("3".into())));
    }

    #[test]
    fn play_keywords_differ_from_task_keywords() {
        assert!(play_keyword("hosts").is_some());
        assert!(task_keyword("hosts").is_none());
        assert!(play_keyword("tasks").is_some());
    }

    #[test]
    fn block_keys() {
        assert!(is_block_key("block"));
        assert!(is_block_key("rescue"));
        assert!(!is_block_key("tasks"));
    }

    #[test]
    fn describe_lists_kinds() {
        let d = task_keyword("when").unwrap().kinds.describe();
        assert!(d.contains("string") && d.contains("bool") && d.contains("list"));
    }
}
