//! Compiled grammar tables: the module, keyword, and parameter candidate
//! lists the automaton consults, with per-key value-shape specs.
//!
//! The tables are derived at startup from the same sources the linter uses —
//! [`wisdom_ansible::MODULES`], [`wisdom_ansible::TASK_KEYWORDS`] and
//! [`wisdom_ansible::PLAY_KEYWORDS`] — so the grammar can never drift from
//! the schema it is supposed to satisfy. Value shapes are probed through
//! the linter's own predicates, [`KindSet::accepts`] for keywords and
//! [`wisdom_ansible::ParamKind::accepts`] for module parameters, with
//! representative values rather than re-encoding the kind bits.

use wisdom_ansible::{KindSet, ParamSpec, MODULES, PLAY_KEYWORDS, TASK_KEYWORDS};
use wisdom_yaml::{Kind, Kinds, Mapping, Value};

/// What a value position accepts: the grammar-side projection of the
/// linter's `KindSet` / `ParamKind` checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ValueSpec {
    /// Kinds an inline scalar may resolve to (a bare `key:` is a null).
    pub accept: Kinds,
    /// A template str: `{{ ident }}`, or a double-quoted value the template
    /// rule accepts.
    pub template: bool,
    /// A block sequence value (`key:` + indented `- item` lines).
    pub list: bool,
    /// A block mapping value (`key:` + indented relaxed-YAML keys); only
    /// where a null is accepted, since the mapping may stay empty.
    pub map: bool,
}

impl ValueSpec {
    const fn of(accept: Kinds) -> Self {
        ValueSpec {
            accept,
            template: true,
            list: false,
            map: false,
        }
    }

    pub(crate) fn nulls(&self) -> bool {
        self.accept.contains(Kind::Null)
    }

    /// Whether any inline (same-line) scalar form exists.
    pub(crate) fn has_inline(&self) -> bool {
        self.accept != Kinds::NONE || self.template
    }
}

const STR: Kinds = Kinds::NONE.with(Kind::Str);
/// What a str parameter takes: a str, or a number (read as its text).
const STR_NUM: Kinds = STR.with(Kind::Int).with(Kind::Float);

/// Free-form module argument strings (`command: ls -la`): must resolve `Str`.
pub(crate) const FREE_FORM_SPEC: ValueSpec = ValueSpec::of(STR);

/// Generic block-sequence items: strs only, so every item is also a valid
/// `roles:` entry.
pub(crate) const ITEM_SPEC: ValueSpec = ValueSpec::of(STR);

/// `- name:` values for generated sibling tasks/plays. `name` is a string
/// keyword: numbers are accepted (`KindSet` folds them into strings), nulls
/// are skipped by the linter, booleans are not accepted.
pub(crate) const NAME_SPEC: ValueSpec = ValueSpec::of(STR_NUM.with(Kind::Null));

/// Any scalar at all, for the YAML-only constraint mode.
pub(crate) const YAML_SPEC: ValueSpec = ValueSpec::of(Kinds::ALL);

/// The spec of a value position the linter checks with `accepts`, probed
/// with representative values.
fn probe(accepts: impl Fn(&Value) -> bool) -> ValueSpec {
    let probes = [
        (Kind::Null, Value::Null),
        (Kind::Str, Value::Str("plainvalue".into())),
        (Kind::Bool, Value::Bool(true)),
        (Kind::Int, Value::Int(1)),
        (Kind::Float, Value::Float(0.5)),
    ];
    let accept = probes
        .into_iter()
        .filter(|(_, v)| accepts(v))
        .fold(Kinds::NONE, |a, (k, _)| a.with(k));
    ValueSpec {
        accept,
        template: accepts(&Value::Str("{{ x }}".into())),
        list: accepts(&Value::Seq(Vec::new())),
        // An empty block mapping reads back as a null.
        map: accept.contains(Kind::Null) && accepts(&Value::Map(Mapping::new())),
    }
}

/// A keyword's spec: the linter skips type checks on null keyword values.
fn keyword_spec(kinds: &KindSet) -> ValueSpec {
    probe(|v| v.is_null() || kinds.accepts(v))
}

/// One module key spelling (both the FQCN and the short alias are separate
/// entries pointing at the same parameter schema).
#[derive(Debug)]
pub(crate) struct ModuleEntry {
    /// The key as written in YAML (`apt` or `ansible.builtin.apt`).
    pub key: &'static str,
    pub free_form: bool,
    pub params: &'static [ParamSpec],
    /// Bitmask over `params` of the required ones.
    pub required_mask: u16,
    /// Derived value spec per parameter (same order as `params`).
    pub param_specs: Vec<ValueSpec>,
}

#[derive(Debug)]
pub(crate) struct KwEntry {
    pub name: &'static str,
    pub spec: ValueSpec,
}

/// Reserved bit in `Frame::Play::used` for the structural `tasks:` key,
/// which is offered as a candidate but handled outside the keyword table.
pub(crate) const TASKS_BIT: u64 = 1 << 63;

/// Everything the automaton needs, compiled once.
#[derive(Debug)]
pub(crate) struct Tables {
    /// Module key spellings (FQCN + short alias entries).
    pub modules: Vec<ModuleEntry>,
    /// Task keywords minus `name` (the prompt supplies the name line).
    pub task_kws: Vec<KwEntry>,
    /// Play keywords minus `name` and the structural task-list keys
    /// (`tasks` is offered separately; `pre_tasks`/`post_tasks`/`handlers`
    /// are omitted because their items would need full task grammars).
    pub play_kws: Vec<KwEntry>,
    /// Index into `play_kws` of the required `hosts` keyword.
    pub hosts_bit: u8,
}

impl Tables {
    pub(crate) fn build() -> Tables {
        let mut modules = Vec::new();
        for spec in MODULES {
            assert!(
                spec.params.len() <= 16,
                "module {} has more than 16 params; widen the used mask",
                spec.fqcn
            );
            let mut required_mask = 0u16;
            for (i, p) in spec.params.iter().enumerate() {
                if p.required {
                    required_mask |= 1 << i;
                }
            }
            let param_specs: Vec<ValueSpec> = spec
                .params
                .iter()
                .map(|p| probe(|v| p.kind.accepts(v)))
                .collect();
            for key in [spec.fqcn, spec.short] {
                if key.is_empty() {
                    continue;
                }
                modules.push(ModuleEntry {
                    key,
                    free_form: spec.free_form,
                    params: spec.params,
                    required_mask,
                    param_specs: param_specs.clone(),
                });
            }
        }

        let task_kws: Vec<KwEntry> = TASK_KEYWORDS
            .iter()
            .filter(|k| k.name != "name")
            .map(|k| KwEntry {
                name: k.name,
                spec: keyword_spec(&k.kinds),
            })
            .collect();
        assert!(task_kws.len() <= 63, "task keyword bitmask overflow");

        let mut play_kws: Vec<KwEntry> = Vec::new();
        for k in PLAY_KEYWORDS {
            match k.name {
                "name" | "tasks" | "pre_tasks" | "post_tasks" | "handlers" => continue,
                // `roles` items must be strings or role mappings, and a null
                // or jinja value is rejected, so it is list-only here.
                "roles" => play_kws.push(KwEntry {
                    name: "roles",
                    spec: ValueSpec {
                        accept: Kinds::NONE,
                        template: false,
                        list: true,
                        map: false,
                    },
                }),
                _ => play_kws.push(KwEntry {
                    name: k.name,
                    spec: keyword_spec(&k.kinds),
                }),
            }
        }
        assert!(play_kws.len() <= 62, "play keyword bitmask overflow");
        let hosts_bit = play_kws
            .iter()
            .position(|k| k.name == "hosts")
            .expect("hosts keyword present") as u8;

        Tables {
            modules,
            task_kws,
            play_kws,
            hosts_bit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_build_and_look_sane() {
        let t = Tables::build();
        assert!(t.modules.iter().any(|m| m.key == "apt"));
        assert!(t.modules.iter().any(|m| m.key == "ansible.builtin.apt"));
        assert!(t.task_kws.iter().all(|k| k.name != "name"));
        assert!(t.play_kws.iter().all(|k| k.name != "tasks"));
        assert_eq!(t.play_kws[t.hosts_bit as usize].name, "hosts");
    }

    #[test]
    fn keyword_specs_match_lint_probes() {
        let t = Tables::build();
        let spec = |name: &str| t.task_kws.iter().find(|k| k.name == name).unwrap().spec;
        let when = spec("when");
        assert!(when.accept.contains(Kind::Str) && when.accept.contains(Kind::Bool) && when.list);
        let become_kw = spec("become");
        assert!(!become_kw.accept.contains(Kind::Str) && become_kw.accept.contains(Kind::Bool));
        assert!(!become_kw.accept.contains(Kind::Int) && !become_kw.list && !become_kw.map);
        let vars = spec("vars");
        assert!(vars.accept == Kinds::NONE.with(Kind::Null) && vars.map && !vars.list);
        assert!(vars.template);
        let retries = spec("retries");
        assert!(retries.accept.contains(Kind::Int) && retries.accept.contains(Kind::Str));
        assert!(!retries.accept.contains(Kind::Bool));
    }

    #[test]
    fn module_required_masks() {
        let t = Tables::build();
        let apt = t.modules.iter().find(|m| m.key == "apt").unwrap();
        assert_eq!(apt.required_mask.count_ones(), 1);
        assert!(apt.params[apt.required_mask.trailing_zeros() as usize].name == "name");
        let command = t.modules.iter().find(|m| m.key == "command").unwrap();
        assert!(command.free_form);
    }
}
