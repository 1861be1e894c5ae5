//! The Ansible task model: a `name`, one module invocation, and keywords.

use std::error::Error;
use std::fmt;

use wisdom_yaml::{Mapping, Value};

use crate::keywords::{is_block_key, is_task_keyword};
use crate::module_registry::ModuleRegistry;

/// Error from interpreting a YAML mapping as a [`Task`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTaskError {
    /// The node is not a mapping.
    NotAMapping,
    /// No non-keyword key was found, so there is no module invocation.
    MissingModule,
    /// More than one non-keyword key: ambiguous module invocation.
    MultipleModules(Vec<String>),
    /// The mapping is a `block`/`rescue`/`always` structure, not a plain task.
    IsBlock,
}

impl fmt::Display for ParseTaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTaskError::NotAMapping => write!(f, "task node is not a mapping"),
            ParseTaskError::MissingModule => write!(f, "task has no module key"),
            ParseTaskError::MultipleModules(keys) => {
                write!(
                    f,
                    "task has multiple module candidates: {}",
                    keys.join(", ")
                )
            }
            ParseTaskError::IsBlock => write!(f, "mapping is a block, not a task"),
        }
    }
}

impl Error for ParseTaskError {}

/// One Ansible task: an optional natural-language `name`, exactly one module
/// invocation, and any number of execution keywords.
///
/// # Examples
///
/// ```
/// use wisdom_ansible::Task;
///
/// let yaml = "name: Install nginx\nansible.builtin.apt:\n  name: nginx\n  state: present\n";
/// let value = wisdom_yaml::parse(yaml)?;
/// let task = Task::from_value(&value)?;
/// assert_eq!(task.name.as_deref(), Some("Install nginx"));
/// assert_eq!(task.module, "ansible.builtin.apt");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// The `name` field — the natural-language intent of the task. This is
    /// exactly the prompt $Y_{NL}$ in the paper's problem re-formalization.
    pub name: Option<String>,
    /// Module key as written (may be a short alias or an FQCN).
    pub module: String,
    /// Module arguments: a mapping, a free-form string, or null.
    pub args: Value<'static>,
    /// Remaining task keywords, in source order.
    pub keywords: Mapping<'static>,
}

impl Task {
    /// Interprets a parsed YAML node as a task.
    ///
    /// The module key is identified as the unique key that is neither a task
    /// keyword nor a block key. Keys containing a dot are always module
    /// candidates (FQCN form).
    ///
    /// # Errors
    ///
    /// See [`ParseTaskError`].
    pub fn from_value(value: &Value) -> Result<Task, ParseTaskError> {
        let map = value.as_map().ok_or(ParseTaskError::NotAMapping)?;
        if map.keys().any(is_block_key) {
            return Err(ParseTaskError::IsBlock);
        }
        let candidates: Vec<&str> = map.keys().filter(|k| !is_task_keyword(k)).collect();
        match candidates.len() {
            0 => Err(ParseTaskError::MissingModule),
            1 => {
                let module = candidates[0].to_string();
                let args = map
                    .get(&module)
                    .cloned()
                    .unwrap_or(Value::Null)
                    .into_owned();
                let name = map.get("name").and_then(|v| v.as_str()).map(String::from);
                let mut keywords = Mapping::new();
                for (k, v) in map.iter() {
                    if k != module && k != "name" {
                        keywords.insert(k.to_string(), v.clone().into_owned());
                    }
                }
                Ok(Task {
                    name,
                    module,
                    args,
                    keywords,
                })
            }
            _ => Err(ParseTaskError::MultipleModules(
                candidates.into_iter().map(String::from).collect(),
            )),
        }
    }

    /// Parses a task from YAML text whose top level is either a single task
    /// mapping or a one-element sequence containing it.
    ///
    /// # Errors
    ///
    /// Returns a boxed error on YAML syntax errors or task-shape errors.
    pub fn parse(src: &str) -> Result<Task, Box<dyn Error + Send + Sync>> {
        let v = wisdom_yaml::parse(src)?;
        let node = match &v {
            Value::Seq(items) if items.len() == 1 => &items[0],
            other => other,
        };
        Ok(Task::from_value(node)?)
    }

    /// Renders the task back to a YAML mapping in canonical key order:
    /// `name`, module, keywords.
    pub fn to_value(&self) -> Value<'static> {
        let mut m = Mapping::new();
        if let Some(name) = &self.name {
            m.insert("name", Value::from(name.clone()));
        }
        m.insert(self.module.clone(), self.args.clone());
        for (k, v) in self.keywords.iter() {
            m.insert(k.to_string(), v.clone());
        }
        Value::Map(m)
    }

    /// The module name normalized to its FQCN when known to the registry.
    pub fn fqcn(&self) -> &str {
        ModuleRegistry::global()
            .resolve_fqcn(&self.module)
            .unwrap_or(&self.module)
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&wisdom_yaml::emit(&self.to_value()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_task() {
        let t =
            Task::parse("name: Start nginx\nservice:\n  name: nginx\n  state: started\n").unwrap();
        assert_eq!(t.name.as_deref(), Some("Start nginx"));
        assert_eq!(t.module, "service");
        assert_eq!(t.fqcn(), "ansible.builtin.service");
        assert!(t.keywords.is_empty());
        let args = t.args.as_map().unwrap();
        assert_eq!(args.get("state").unwrap().as_str(), Some("started"));
    }

    #[test]
    fn parse_task_in_sequence() {
        let t = Task::parse("- name: Ping\n  ansible.builtin.ping: {}\n").unwrap();
        assert_eq!(t.module, "ansible.builtin.ping");
    }

    #[test]
    fn keywords_separated_from_module() {
        let t = Task::parse(
            "name: Copy config\ncopy:\n  src: a\n  dest: /etc/a\nwhen: deploy_enabled\nnotify: restart app\nbecome: true\n",
        )
        .unwrap();
        assert_eq!(t.module, "copy");
        let kw_keys: Vec<&str> = t.keywords.keys().collect();
        assert_eq!(kw_keys, ["when", "notify", "become"]);
    }

    #[test]
    fn free_form_args_kept_as_string() {
        let t = Task::parse("name: List files\ncommand: ls -la /tmp\n").unwrap();
        assert_eq!(t.args.as_str(), Some("ls -la /tmp"));
    }

    #[test]
    fn unnamed_task_allowed() {
        let t = Task::parse("ansible.builtin.setup: {}\n").unwrap();
        assert!(t.name.is_none());
    }

    #[test]
    fn missing_module_rejected() {
        let v = wisdom_yaml::parse("name: no module here\nwhen: true\n").unwrap();
        assert_eq!(Task::from_value(&v), Err(ParseTaskError::MissingModule));
    }

    #[test]
    fn multiple_modules_rejected() {
        let v = wisdom_yaml::parse("apt:\n  name: x\nservice:\n  name: y\n").unwrap();
        match Task::from_value(&v) {
            Err(ParseTaskError::MultipleModules(keys)) => {
                assert_eq!(keys.len(), 2);
            }
            other => panic!("expected MultipleModules, got {other:?}"),
        }
    }

    #[test]
    fn block_detected() {
        let v = wisdom_yaml::parse("block:\n  - ping: {}\nwhen: x\n").unwrap();
        assert_eq!(Task::from_value(&v), Err(ParseTaskError::IsBlock));
    }

    #[test]
    fn non_mapping_rejected() {
        assert_eq!(
            Task::from_value(&Value::Str("hi".into())),
            Err(ParseTaskError::NotAMapping)
        );
    }

    #[test]
    fn to_value_round_trips_with_canonical_order() {
        let t = Task::parse("become: true\nname: T\napt:\n  name: x\n").unwrap();
        let text = wisdom_yaml::emit(&t.to_value());
        assert_eq!(text, "name: T\napt:\n  name: x\nbecome: true\n");
        let back = Task::parse(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn custom_fqcn_module_accepted() {
        let t = Task::parse("name: X\nmycorp.internal.widget:\n  size: 3\n").unwrap();
        assert_eq!(t.module, "mycorp.internal.widget");
        assert_eq!(t.fqcn(), "mycorp.internal.widget");
    }

    #[test]
    fn display_emits_yaml() {
        let t = Task::parse("name: T\nping: {}\n").unwrap();
        assert!(t.to_string().contains("name: T"));
    }
}
