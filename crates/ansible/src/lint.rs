//! The Ansible schema linter behind the paper's **Schema Correct** metric.
//!
//! Mirrors the strictness the paper describes for the ansible-lint playbook
//! and task schemas: "quite strict and do not accept some historical forms
//! which are still allowed by Ansible itself". Concretely, in addition to
//! basic shape checks this linter rejects:
//!
//! * legacy `k=v` string arguments for non-free-form modules,
//! * the pre-2.0 `action:` syntax,
//! * unknown modules, unknown module parameters, and missing required
//!   parameters,
//! * keyword values of the wrong shape (`when: {…}`, `register: [a]`, …).
//!
//! A sample can therefore have a perfect Exact Match yet a Schema Correct of
//! 0 (the paper notes exactly this, because the training data was not
//! filtered with these schemas).

use std::fmt;

use wisdom_yaml::Value;

use crate::keywords::{is_block_key, play_keyword, task_keyword, BLOCK_KEYS};
use crate::module_registry::ModuleRegistry;

/// One schema violation found by the linter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Location of the problem, e.g. `plays[0].tasks[2].apt`.
    pub path: String,
    /// Human-readable description.
    pub message: String,
}

impl Violation {
    fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// Where the linter stands: a chain of borrowed segments on the stack,
/// rendered (`plays[0].tasks[2].apt`) only when a violation is pushed, so a
/// clean document formats no paths.
#[derive(Clone, Copy)]
enum Path<'p> {
    /// `$`, `plays` or `tasks`.
    Root(&'static str),
    /// `parent.key`
    Key(&'p Path<'p>, &'p str),
    /// `parent[i]`
    Index(&'p Path<'p>, usize),
}

impl<'p> Path<'p> {
    fn key(&'p self, key: &'p str) -> Path<'p> {
        Path::Key(self, key)
    }

    fn index(&'p self, i: usize) -> Path<'p> {
        Path::Index(self, i)
    }

    fn violation(&self, message: impl Into<String>) -> Violation {
        Violation::new(self.to_string(), message)
    }
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Root(name) => f.write_str(name),
            Path::Key(parent, key) => write!(f, "{parent}.{key}"),
            Path::Index(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

/// What kind of document the linter should expect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintTarget {
    /// Detect automatically: a sequence whose first mapping has `hosts` (or
    /// `import_playbook`) is a playbook, otherwise a task file.
    #[default]
    Auto,
    /// A playbook: sequence of plays.
    Playbook,
    /// A task file: sequence of tasks.
    TaskFile,
    /// A single task mapping (used when scoring one generated task).
    Task,
}

/// Lints YAML text; a YAML syntax error is reported as a violation at `$`.
///
/// # Examples
///
/// ```
/// use wisdom_ansible::{lint_str, LintTarget};
///
/// let good = "- name: Ping\n  ansible.builtin.ping: {}\n";
/// assert!(lint_str(good, LintTarget::Auto).is_empty());
///
/// let bad = "- name: Ping\n  ansible.builtin.ping: {}\n  bogus_keyword: 1\n";
/// assert!(!lint_str(bad, LintTarget::Auto).is_empty());
/// ```
pub fn lint_str(src: &str, target: LintTarget) -> Vec<Violation> {
    match wisdom_yaml::parse(src) {
        Ok(v) => lint_value(&v, target),
        Err(e) => vec![Violation::new("$", format!("yaml syntax error: {e}"))],
    }
}

/// Whether `src` satisfies the schema (no violations): the per-sample
/// **Schema Correct** predicate.
pub fn is_schema_correct(src: &str, target: LintTarget) -> bool {
    lint_str(src, target).is_empty()
}

/// Lints a parsed YAML node.
pub fn lint_value(value: &Value, target: LintTarget) -> Vec<Violation> {
    let mut v = Vec::new();
    let reg = ModuleRegistry::global();
    match target {
        LintTarget::Task => {
            lint_task(value, &Path::Root("$"), reg, &mut v);
            return v;
        }
        LintTarget::Playbook => lint_playbook(value, reg, &mut v),
        LintTarget::TaskFile => lint_task_file(value, reg, &mut v),
        LintTarget::Auto => match detect_target(value) {
            LintTarget::Playbook => lint_playbook(value, reg, &mut v),
            _ => lint_task_file(value, reg, &mut v),
        },
    }
    v
}

/// Auto-detects whether a document is a playbook or a task file.
pub fn detect_target(value: &Value) -> LintTarget {
    if let Some(items) = value.as_seq() {
        for item in items {
            if let Some(m) = item.as_map() {
                if m.contains_key("hosts") || m.contains_key("import_playbook") {
                    return LintTarget::Playbook;
                }
            }
        }
    }
    LintTarget::TaskFile
}

fn lint_playbook(value: &Value, reg: &ModuleRegistry, out: &mut Vec<Violation>) {
    let Some(items) = value.as_seq() else {
        out.push(Violation::new("$", "playbook must be a sequence of plays"));
        return;
    };
    if items.is_empty() {
        out.push(Violation::new("$", "playbook is empty"));
        return;
    }
    for (i, item) in items.iter().enumerate() {
        lint_play(item, &Path::Root("plays").index(i), reg, out);
    }
}

fn lint_play(value: &Value, path: &Path, reg: &ModuleRegistry, out: &mut Vec<Violation>) {
    let Some(map) = value.as_map() else {
        out.push(path.violation("play must be a mapping"));
        return;
    };
    if map.contains_key("import_playbook") {
        // `- import_playbook: other.yml` entries are standalone.
        for (k, _) in map.iter() {
            if k != "import_playbook" && k != "name" && k != "when" && k != "vars" && k != "tags" {
                out.push(
                    path.key(k)
                        .violation("key not allowed alongside import_playbook"),
                );
            }
        }
        return;
    }
    if !map.contains_key("hosts") {
        out.push(path.violation("play is missing required key 'hosts'"));
    }
    for (k, v) in map.iter() {
        match k {
            "tasks" | "pre_tasks" | "post_tasks" | "handlers" => {
                let Some(items) = v.as_seq() else {
                    out.push(path.key(k).violation("must be a list of tasks"));
                    continue;
                };
                for (i, t) in items.iter().enumerate() {
                    lint_task_or_block(t, &path.key(k).index(i), reg, out);
                }
            }
            "roles" => {
                let Some(items) = v.as_seq() else {
                    out.push(path.key("roles").violation("must be a list"));
                    continue;
                };
                for (i, r) in items.iter().enumerate() {
                    let ok = matches!(r, Value::Str(_))
                        || r.as_map()
                            .is_some_and(|m| m.contains_key("role") || m.contains_key("name"));
                    if !ok {
                        out.push(
                            path.key("roles")
                                .index(i)
                                .violation("role entry must be a name or a mapping with 'role'"),
                        );
                    }
                }
            }
            other => match play_keyword(other) {
                Some(spec) => {
                    if !v.is_null() && !spec.kinds.accepts(v) {
                        out.push(
                            path.key(other)
                                .violation(format!("expected {}", spec.kinds.describe())),
                        );
                    }
                }
                None => {
                    out.push(path.key(other).violation("unknown play keyword"));
                }
            },
        }
    }
}

fn lint_task_file(value: &Value, reg: &ModuleRegistry, out: &mut Vec<Violation>) {
    let Some(items) = value.as_seq() else {
        out.push(Violation::new("$", "task file must be a sequence of tasks"));
        return;
    };
    if items.is_empty() {
        out.push(Violation::new("$", "task file is empty"));
        return;
    }
    for (i, item) in items.iter().enumerate() {
        lint_task_or_block(item, &Path::Root("tasks").index(i), reg, out);
    }
}

fn lint_task_or_block(value: &Value, path: &Path, reg: &ModuleRegistry, out: &mut Vec<Violation>) {
    let Some(map) = value.as_map() else {
        out.push(path.violation("task must be a mapping"));
        return;
    };
    if map.keys().any(is_block_key) {
        lint_block(value, path, reg, out);
    } else {
        lint_task(value, path, reg, out);
    }
}

fn lint_block(value: &Value, path: &Path, reg: &ModuleRegistry, out: &mut Vec<Violation>) {
    let map = value.as_map().expect("caller verified mapping");
    for (k, v) in map.iter() {
        if BLOCK_KEYS.contains(&k) {
            let Some(items) = v.as_seq() else {
                out.push(path.key(k).violation("must be a list of tasks"));
                continue;
            };
            for (i, t) in items.iter().enumerate() {
                lint_task_or_block(t, &path.key(k).index(i), reg, out);
            }
        } else {
            match task_keyword(k) {
                Some(spec) => {
                    if !v.is_null() && !spec.kinds.accepts(v) {
                        out.push(
                            path.key(k)
                                .violation(format!("expected {}", spec.kinds.describe())),
                        );
                    }
                }
                None => {
                    out.push(path.key(k).violation("key not allowed on a block"));
                }
            }
        }
    }
}

fn lint_task(value: &Value, path: &Path, reg: &ModuleRegistry, out: &mut Vec<Violation>) {
    let Some(map) = value.as_map() else {
        out.push(path.violation("task must be a mapping"));
        return;
    };
    if map.is_empty() {
        out.push(path.violation("task is empty"));
        return;
    }
    if map.contains_key("action") || map.contains_key("local_action") {
        out.push(
            path.key("action")
                .violation("legacy 'action:' syntax is not accepted by the schema"),
        );
    }
    let is_legacy_action = |k: &str| k == "action" || k == "local_action";
    let mut module = None;
    let mut modules = 0;
    for (k, v) in map.iter() {
        if is_legacy_action(k) {
            continue;
        }
        match task_keyword(k) {
            Some(spec) => {
                if !v.is_null() && !spec.kinds.accepts(v) {
                    out.push(
                        path.key(k)
                            .violation(format!("expected {}", spec.kinds.describe())),
                    );
                }
            }
            None => {
                modules += 1;
                module.get_or_insert((k, v));
            }
        }
    }
    match module {
        None => out.push(path.violation("task has no module")),
        Some((name, args)) if modules == 1 => lint_module_invocation(name, args, path, reg, out),
        Some(_) => {
            let names: Vec<&str> = map
                .keys()
                .filter(|k| !is_legacy_action(k) && task_keyword(k).is_none())
                .collect();
            out.push(path.violation(format!("task has multiple modules: {}", names.join(", "))));
        }
    }
}

fn lint_module_invocation(
    name: &str,
    args: &Value,
    path: &Path,
    reg: &ModuleRegistry,
    out: &mut Vec<Violation>,
) {
    let mpath = path.key(name);
    let Some(spec) = reg.get(name) else {
        out.push(mpath.violation("unknown module"));
        return;
    };
    match args {
        Value::Str(_) => {
            if !spec.free_form {
                out.push(mpath.violation(
                    "string arguments (legacy k=v form) are not accepted; use a parameter mapping",
                ));
            }
        }
        Value::Null => {
            // Acceptable only when nothing is required (e.g. `setup:`).
            for p in spec.params.iter().filter(|p| p.required) {
                out.push(mpath.key(p.name).violation("missing required parameter"));
            }
        }
        Value::Map(params) => {
            // `meta` and free-form modules normally use strings, but a map is
            // fine for command/shell (cmd:), so validate params either way.
            for (pname, pvalue) in params.iter() {
                match spec.params.iter().find(|p| p.name == pname) {
                    None => out.push(mpath.key(pname).violation("unknown parameter")),
                    Some(p) => {
                        if !p.kind.accepts(pvalue) {
                            out.push(mpath.key(pname).violation(format!(
                                "parameter has wrong type (expected {:?})",
                                p.kind
                            )));
                        }
                    }
                }
            }
            for p in spec.params.iter().filter(|p| p.required) {
                if !params.contains_key(p.name) {
                    out.push(mpath.key(p.name).violation("missing required parameter"));
                }
            }
        }
        _ => out.push(mpath.violation("module arguments must be a mapping or a free-form string")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) {
        let v = lint_str(src, LintTarget::Auto);
        assert!(v.is_empty(), "expected clean, got {v:?}\nsource:\n{src}");
    }

    fn bad(src: &str, needle: &str) {
        let v = lint_str(src, LintTarget::Auto);
        assert!(
            v.iter()
                .any(|x| x.message.contains(needle) || x.path.contains(needle)),
            "expected violation containing {needle:?}, got {v:?}"
        );
    }

    #[test]
    fn figure_1_playbook_is_schema_correct() {
        ok("---\n- hosts: servers\n  tasks:\n    - name: Install SSH server\n      ansible.builtin.apt:\n        name: openssh-server\n        state: present\n    - name: Start SSH server\n      ansible.builtin.service:\n        name: ssh\n        state: started\n");
    }

    #[test]
    fn task_file_is_schema_correct() {
        ok("- name: Ensure apache is at the latest version\n  ansible.builtin.yum:\n    name: httpd\n    state: latest\n- name: Write the apache config file\n  ansible.builtin.template:\n    src: /srv/httpd.j2\n    dest: /etc/httpd.conf\n");
    }

    #[test]
    fn yaml_syntax_error_is_violation() {
        bad("- name: x\n   broken: [unclosed\n", "syntax");
    }

    #[test]
    fn play_missing_hosts() {
        bad("- tasks:\n    - ping: {}\n  hosts_typo: all\n", "hosts");
    }

    #[test]
    fn unknown_play_keyword() {
        bad(
            "- hosts: all\n  bogus: 1\n  tasks:\n    - ping: {}\n",
            "unknown play keyword",
        );
    }

    #[test]
    fn unknown_module() {
        bad("- name: x\n  not_a_module:\n    a: 1\n", "unknown module");
    }

    #[test]
    fn unknown_parameter() {
        bad(
            "- name: x\n  ansible.builtin.apt:\n    name: nginx\n    stat: present\n",
            "unknown parameter",
        );
    }

    #[test]
    fn missing_required_parameter() {
        bad(
            "- name: x\n  ansible.builtin.apt:\n    state: present\n",
            "missing required",
        );
        bad(
            "- name: x\n  ansible.builtin.git:\n    repo: http://x\n",
            "missing required",
        );
    }

    #[test]
    fn legacy_kv_form_rejected() {
        bad("- name: x\n  apt: name=nginx state=present\n", "legacy k=v");
    }

    #[test]
    fn free_form_command_accepted() {
        ok("- name: x\n  ansible.builtin.shell: systemctl restart nginx\n");
        ok("- name: x\n  command: ls -la\n");
    }

    #[test]
    fn action_syntax_rejected() {
        bad("- name: x\n  action: apt name=nginx\n", "action");
    }

    #[test]
    fn keyword_type_checks() {
        bad(
            "- name: x\n  ping: {}\n  register:\n    - a\n",
            "expected string",
        );
        bad("- name: x\n  ping: {}\n  vars: not_a_map\n", "expected map");
        ok("- name: x\n  ping: {}\n  when: foo is defined\n  register: out\n");
    }

    #[test]
    fn bool_param_type_check() {
        bad(
            "- name: x\n  apt:\n    name: nginx\n    update_cache: definitely\n",
            "wrong type",
        );
        ok("- name: x\n  apt:\n    name: nginx\n    update_cache: yes\n");
        ok("- name: x\n  apt:\n    name: nginx\n    update_cache: '{{ do_update }}'\n");
    }

    #[test]
    fn a_str_is_a_template_only_when_its_braces_close() {
        let docker = |detach: &str| {
            format!("- name: x\n  docker_container:\n    name: web\n    detach: {detach}\n")
        };
        for detach in ["maybe{{", "\"{{\"", "a {{ b", "maybe"] {
            bad(&docker(detach), "wrong type");
        }
        ok(&docker("\"{{ run_detached }}\""));
        let wait = |port: &str| format!("- name: x\n  wait_for:\n    port: {port}\n");
        bad(&wait("80{{"), "wrong type");
        ok(&wait("\"{{ app_port }}\""));
        bad(
            "- name: x\n  command: ls\n  become: \"{% if a %}\"\n",
            "expected bool",
        );
    }

    #[test]
    fn multiple_modules_rejected() {
        bad("- name: x\n  ping: {}\n  setup: {}\n", "multiple modules");
    }

    #[test]
    fn task_without_module_rejected() {
        bad("- name: x\n  when: true\n", "no module");
    }

    #[test]
    fn blocks_accepted() {
        ok("- name: grouped\n  block:\n    - name: a\n      ping: {}\n  rescue:\n    - name: r\n      debug:\n        msg: oops\n  when: run_it\n");
    }

    #[test]
    fn block_with_bad_inner_task() {
        bad(
            "- block:\n    - name: broken\n      nonexistent_mod: {}\n",
            "unknown module",
        );
    }

    #[test]
    fn single_task_target() {
        let v = lint_str("name: x\nping: {}\n", LintTarget::Task);
        assert!(v.is_empty(), "{v:?}");
        let v = lint_str("name: x\n", LintTarget::Task);
        assert!(!v.is_empty());
    }

    #[test]
    fn import_playbook_entry() {
        ok("- import_playbook: other.yml\n- hosts: all\n  tasks:\n    - ping: {}\n");
        bad(
            "- import_playbook: other.yml\n  hosts: web\n",
            "not allowed alongside",
        );
    }

    #[test]
    fn empty_documents_rejected() {
        bad("[]\n", "empty");
        bad("", "task file must be a sequence");
    }

    #[test]
    fn roles_entries() {
        ok("- hosts: all\n  roles:\n    - common\n    - role: nginx\n");
        bad("- hosts: all\n  roles:\n    - 5\n", "role entry");
    }

    #[test]
    fn violation_paths_are_rendered_in_full() {
        let src = "- hosts: all\n  tasks:\n    - name: a\n      ping: {}\n    - block:\n        - ansible.builtin.apt:\n            stat: present\n      bogus: 1\n  roles:\n    - 5\n";
        let found: Vec<String> = lint_str(src, LintTarget::Auto)
            .iter()
            .map(Violation::to_string)
            .collect();
        assert_eq!(
            found,
            [
                "plays[0].tasks[1].block[0].ansible.builtin.apt.stat: unknown parameter",
                "plays[0].tasks[1].block[0].ansible.builtin.apt.name: missing required parameter",
                "plays[0].tasks[1].bogus: key not allowed on a block",
                "plays[0].roles[0]: role entry must be a name or a mapping with 'role'",
            ]
        );
        let found = lint_str("name: x\napt: name=x\n", LintTarget::Task);
        assert_eq!(
            found[0].to_string(),
            "$.apt: string arguments (legacy k=v form) are not accepted; use a parameter mapping"
        );
        let found = lint_str("- ping: {}\n  setup:\n  when: [x]\n", LintTarget::Auto);
        assert_eq!(
            found.iter().map(Violation::to_string).collect::<Vec<_>>(),
            ["tasks[0]: task has multiple modules: ping, setup"]
        );
    }

    #[test]
    fn null_module_args_with_required_params() {
        bad("- name: x\n  ansible.builtin.apt:\n", "missing required");
        ok("- name: x\n  ansible.builtin.setup:\n");
    }
}
