//! Formatting standardization, as applied to the fine-tuning dataset in the
//! paper ("standardized the formatting to match the style recommended by the
//! Ansible team") and reused by the Ansible Aware metric's normalization
//! step:
//!
//! * module short names are replaced by their FQCN (`copy` →
//!   `ansible.builtin.copy`),
//! * legacy `k=v` string arguments of non-free-form modules become parameter
//!   mappings,
//! * task keys are reordered to `name`, module, keywords,
//! * play keys are reordered to the conventional layout,
//! * YAML 1.1 booleans (`yes`/`no`) become `true`/`false` (a side effect of
//!   the scalar schema) and the canonical emitter fixes indentation/quoting.

use wisdom_yaml::{Mapping, ParseYamlError, Value};

use crate::keywords::{is_block_key, is_task_keyword};
use crate::kv::parse_kv_args;
use crate::lint::{detect_target, LintTarget};
use crate::module_registry::ModuleRegistry;

/// Canonical play key order (structural lists come last, like the docs).
const PLAY_KEY_ORDER: &[&str] = &[
    "name",
    "hosts",
    "connection",
    "gather_facts",
    "become",
    "become_user",
    "remote_user",
    "serial",
    "strategy",
    "vars",
    "vars_files",
    "environment",
    "collections",
    "tags",
    "roles",
    "pre_tasks",
    "tasks",
    "post_tasks",
    "handlers",
];

/// Normalizes a whole document (playbook or task file, auto-detected).
///
/// # Examples
///
/// ```
/// use wisdom_ansible::normalize_document;
///
/// let v = wisdom_yaml::parse("- apt: name=nginx state=present\n  name: Install nginx\n")?;
/// let n = normalize_document(&v);
/// let text = wisdom_yaml::emit(&n);
/// assert_eq!(
///     text,
///     "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n"
/// );
/// # Ok::<(), wisdom_yaml::ParseYamlError>(())
/// ```
pub fn normalize_document(value: &Value) -> Value<'static> {
    match detect_target(value) {
        LintTarget::Playbook => {
            let Some(items) = value.as_seq() else {
                return value.clone().into_owned();
            };
            Value::Seq(items.iter().map(normalize_play).collect())
        }
        _ => match value.as_seq() {
            Some(items) => Value::Seq(items.iter().map(normalize_task).collect()),
            None => normalize_task(value),
        },
    }
}

/// Parses, normalizes, and re-emits YAML text with a `---` marker.
///
/// # Errors
///
/// Returns the underlying [`ParseYamlError`] when `src` is not valid YAML.
pub fn standardize(src: &str) -> Result<String, ParseYamlError> {
    let v = wisdom_yaml::parse(src)?;
    let n = normalize_document(&v);
    Ok(wisdom_yaml::EmitOptions {
        start_marker: true,
        ..Default::default()
    }
    .emit(&n))
}

/// Normalizes one play mapping.
pub fn normalize_play(value: &Value) -> Value<'static> {
    let Some(map) = value.as_map() else {
        return value.clone().into_owned();
    };
    let mut out = Mapping::new();
    for (k, v) in map.iter() {
        let nv = match k {
            "tasks" | "pre_tasks" | "post_tasks" | "handlers" => match v.as_seq() {
                Some(items) => Value::Seq(items.iter().map(normalize_task).collect()),
                None => v.clone().into_owned(),
            },
            _ => v.clone().into_owned(),
        };
        out.insert(k.to_string(), nv);
    }
    out.sort_by_key_order(PLAY_KEY_ORDER);
    Value::Map(out)
}

/// Normalizes one task (or block) mapping: FQCN module key, dict-ified
/// arguments, canonical key order.
pub fn normalize_task(value: &Value) -> Value<'static> {
    let Some(map) = value.as_map() else {
        return value.clone().into_owned();
    };
    if map.keys().any(is_block_key) {
        // Blocks: normalize the inner task lists, keep keyword order but put
        // name first.
        let mut out = Mapping::new();
        for (k, v) in map.iter() {
            let nv = if is_block_key(k) {
                match v.as_seq() {
                    Some(items) => Value::Seq(items.iter().map(normalize_task).collect()),
                    None => v.clone().into_owned(),
                }
            } else {
                v.clone().into_owned()
            };
            out.insert(k.to_string(), nv);
        }
        out.sort_by_key_order(&["name", "block", "rescue", "always"]);
        return Value::Map(out);
    }
    let reg = ModuleRegistry::global();
    let module_key = map.keys().find(|k| !is_task_keyword(k)).map(String::from);
    let mut out = Mapping::new();
    for (k, v) in map.iter() {
        if Some(k) == module_key.as_deref() {
            let fqcn = reg.resolve_fqcn(k).unwrap_or(k).to_string();
            let args = normalize_args(k, v, reg);
            out.insert(fqcn, args);
        } else {
            out.insert(k.to_string(), v.clone().into_owned());
        }
    }
    if let Some(mk) = &module_key {
        let fqcn = reg.resolve_fqcn(mk).unwrap_or(mk).to_string();
        out.sort_by_key_order(&["name", fqcn.as_str()]);
    } else {
        out.sort_by_key_order(&["name"]);
    }
    Value::Map(out)
}

/// Converts legacy `k=v` string args into a mapping for non-free-form
/// modules; leaves free-form strings and mappings untouched.
fn normalize_args(module: &str, args: &Value, reg: &ModuleRegistry) -> Value<'static> {
    let free_form = reg.get(module).map(|m| m.free_form).unwrap_or(false);
    match args {
        Value::Str(s) if !free_form => match parse_kv_args(s) {
            Some(m) => Value::Map(m),
            None => args.clone().into_owned(),
        },
        _ => args.clone().into_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{lint_str, LintTarget};

    #[test]
    fn short_names_become_fqcn() {
        let src = "- name: T\n  copy:\n    src: a\n    dest: b\n";
        let out = standardize(src).unwrap();
        assert!(out.contains("ansible.builtin.copy:"), "{out}");
    }

    #[test]
    fn kv_args_become_mapping() {
        let src = "- name: T\n  yum: name=httpd state=latest\n";
        let out = standardize(src).unwrap();
        assert!(
            out.contains("ansible.builtin.yum:\n    name: httpd\n    state: latest"),
            "{out}"
        );
    }

    #[test]
    fn free_form_commands_untouched() {
        let src = "- name: T\n  shell: systemctl restart nginx\n";
        let out = standardize(src).unwrap();
        assert!(
            out.contains("ansible.builtin.shell: systemctl restart nginx"),
            "{out}"
        );
    }

    #[test]
    fn task_key_order_canonicalized() {
        let src = "- become: true\n  apt:\n    name: x\n  name: T\n  when: y\n";
        let out = standardize(src).unwrap();
        let name_pos = out.find("name: T").unwrap();
        let mod_pos = out.find("ansible.builtin.apt").unwrap();
        let become_pos = out.find("become").unwrap();
        assert!(name_pos < mod_pos && mod_pos < become_pos, "{out}");
    }

    #[test]
    fn play_key_order_canonicalized() {
        let src = "- tasks:\n    - ping: {}\n  hosts: all\n  name: P\n  become: true\n";
        let out = standardize(src).unwrap();
        let n = out.find("name: P").unwrap();
        let h = out.find("hosts: all").unwrap();
        let b = out.find("become: true").unwrap();
        let t = out.find("tasks:").unwrap();
        assert!(n < h && h < b && b < t, "{out}");
    }

    #[test]
    fn yes_no_become_true_false() {
        let src = "- name: T\n  apt:\n    name: x\n    update_cache: yes\n";
        let out = standardize(src).unwrap();
        assert!(out.contains("update_cache: true"), "{out}");
    }

    #[test]
    fn standardized_kv_task_becomes_schema_correct() {
        // The historical form is rejected by the linter…
        let src = "- name: T\n  apt: name=nginx state=present\n";
        assert!(!lint_str(src, LintTarget::Auto).is_empty());
        // …but its standardized form passes.
        let out = standardize(src).unwrap();
        assert!(
            lint_str(&out, LintTarget::Auto).is_empty(),
            "standardized form should lint clean:\n{out}"
        );
    }

    #[test]
    fn blocks_normalized_recursively() {
        let src =
            "- when: c\n  block:\n    - copy: src=a dest=b\n      name: inner\n  name: outer\n";
        let out = standardize(src).unwrap();
        assert!(out.contains("ansible.builtin.copy:"), "{out}");
        let n = out.find("name: outer").unwrap();
        let b = out.find("block:").unwrap();
        assert!(n < b, "{out}");
    }

    #[test]
    fn idempotent() {
        let src = "- name: T\n  yum: name=httpd state=latest\n  notify: restart httpd\n";
        let once = standardize(src).unwrap();
        let twice = standardize(&once).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn non_sequence_input_untouched_shape() {
        let v = wisdom_yaml::parse("name: T\nping: {}\n").unwrap();
        let n = normalize_document(&v);
        assert!(n.as_map().is_some());
        assert!(n.as_map().unwrap().contains_key("ansible.builtin.ping"));
    }
}
