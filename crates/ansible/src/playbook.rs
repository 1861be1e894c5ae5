//! Plays and playbooks: ordered groups of tasks targeting managed nodes.

use std::error::Error;
use std::fmt;

use wisdom_yaml::{Mapping, ParseYamlError, Value};

use crate::keywords::is_block_key;
use crate::task::{ParseTaskError, Task};

/// Error from interpreting YAML as a [`Playbook`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParsePlaybookError {
    /// YAML syntax error.
    Yaml(ParseYamlError),
    /// Structural problem, with a JSONPath-ish location and message.
    Structure {
        /// Location such as `plays[0].tasks[2]`.
        path: String,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ParsePlaybookError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePlaybookError::Yaml(e) => write!(f, "{e}"),
            ParsePlaybookError::Structure { path, message } => {
                write!(f, "invalid playbook at {path}: {message}")
            }
        }
    }
}

impl Error for ParsePlaybookError {}

impl From<ParseYamlError> for ParsePlaybookError {
    fn from(e: ParseYamlError) -> Self {
        ParsePlaybookError::Yaml(e)
    }
}

fn structure(path: impl Into<String>, message: impl Into<String>) -> ParsePlaybookError {
    ParsePlaybookError::Structure {
        path: path.into(),
        message: message.into(),
    }
}

/// An entry in a play's task list: either a plain task or a block of tasks.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskItem {
    /// A regular module-invoking task.
    Task(Task),
    /// A `block:` (with optional `rescue:`/`always:`) grouping.
    Block(Block),
}

impl TaskItem {
    /// Parses a task-list entry from a YAML node.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePlaybookError::Structure`] when the node is neither a
    /// valid task nor a valid block.
    pub fn from_value(value: &Value, path: &str) -> Result<TaskItem, ParsePlaybookError> {
        match Task::from_value(value) {
            Ok(t) => Ok(TaskItem::Task(t)),
            Err(ParseTaskError::IsBlock) => Ok(TaskItem::Block(Block::from_value(value, path)?)),
            Err(e) => Err(structure(path, e.to_string())),
        }
    }

    /// Renders back to a YAML node.
    pub fn to_value(&self) -> Value<'static> {
        match self {
            TaskItem::Task(t) => t.to_value(),
            TaskItem::Block(b) => b.to_value(),
        }
    }

    /// The task's `name`, when present.
    pub fn name(&self) -> Option<&str> {
        match self {
            TaskItem::Task(t) => t.name.as_deref(),
            TaskItem::Block(b) => b.name.as_deref(),
        }
    }
}

/// A `block:` grouping of tasks with optional `rescue:` and `always:`.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Optional block name.
    pub name: Option<String>,
    /// Tasks executed in order.
    pub block: Vec<TaskItem>,
    /// Tasks executed when the block fails.
    pub rescue: Vec<TaskItem>,
    /// Tasks always executed.
    pub always: Vec<TaskItem>,
    /// Remaining keywords (`when`, `become`, …) in source order.
    pub keywords: Mapping<'static>,
}

impl Block {
    fn from_value(value: &Value, path: &str) -> Result<Block, ParsePlaybookError> {
        let map = value
            .as_map()
            .ok_or_else(|| structure(path, "block is not a mapping"))?;
        let mut block = Block {
            name: map.get("name").and_then(|v| v.as_str()).map(String::from),
            block: Vec::new(),
            rescue: Vec::new(),
            always: Vec::new(),
            keywords: Mapping::new(),
        };
        for (k, v) in map.iter() {
            if is_block_key(k) {
                let items = v
                    .as_seq()
                    .ok_or_else(|| structure(format!("{path}.{k}"), "must be a task list"))?;
                let parsed = parse_task_list(items, &format!("{path}.{k}"))?;
                match k {
                    "block" => block.block = parsed,
                    "rescue" => block.rescue = parsed,
                    "always" => block.always = parsed,
                    _ => unreachable!("is_block_key covers all"),
                }
            } else if k != "name" {
                block.keywords.insert(k.to_string(), v.clone().into_owned());
            }
        }
        if block.block.is_empty() && block.rescue.is_empty() && block.always.is_empty() {
            return Err(structure(path, "block has no tasks"));
        }
        Ok(block)
    }

    /// Renders back to a YAML node.
    pub fn to_value(&self) -> Value<'static> {
        let mut m = Mapping::new();
        if let Some(name) = &self.name {
            m.insert("name", Value::from(name.clone()));
        }
        if !self.block.is_empty() {
            m.insert(
                "block",
                Value::Seq(self.block.iter().map(TaskItem::to_value).collect()),
            );
        }
        if !self.rescue.is_empty() {
            m.insert(
                "rescue",
                Value::Seq(self.rescue.iter().map(TaskItem::to_value).collect()),
            );
        }
        if !self.always.is_empty() {
            m.insert(
                "always",
                Value::Seq(self.always.iter().map(TaskItem::to_value).collect()),
            );
        }
        for (k, v) in self.keywords.iter() {
            m.insert(k.to_string(), v.clone());
        }
        Value::Map(m)
    }
}

fn parse_task_list(items: &[Value], path: &str) -> Result<Vec<TaskItem>, ParsePlaybookError> {
    items
        .iter()
        .enumerate()
        .map(|(i, v)| TaskItem::from_value(v, &format!("{path}[{i}]")))
        .collect()
}

/// One play: a target host group plus the tasks to run there.
///
/// # Examples
///
/// ```
/// use wisdom_ansible::Playbook;
///
/// let src = "- hosts: web\n  tasks:\n    - name: Ping\n      ansible.builtin.ping: {}\n";
/// let pb = Playbook::parse(src)?;
/// assert_eq!(pb.plays.len(), 1);
/// assert_eq!(pb.plays[0].hosts.as_deref(), Some("web"));
/// # Ok::<(), wisdom_ansible::ParsePlaybookError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Play {
    /// Optional play name.
    pub name: Option<String>,
    /// Target hosts pattern (`all`, a group name, …); `None` when the play
    /// uses a list-valued or missing `hosts`.
    pub hosts: Option<String>,
    /// Main task list.
    pub tasks: Vec<TaskItem>,
    /// Tasks run before roles/tasks.
    pub pre_tasks: Vec<TaskItem>,
    /// Tasks run after the main list.
    pub post_tasks: Vec<TaskItem>,
    /// Handlers notified by tasks.
    pub handlers: Vec<TaskItem>,
    /// Every play-level key as written (including `hosts`, `vars`, `roles`),
    /// except the task lists; preserves source order for round-tripping.
    pub keywords: Mapping<'static>,
}

impl Play {
    /// Parses one play from a YAML node.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePlaybookError::Structure`] on malformed plays.
    pub fn from_value(value: &Value, path: &str) -> Result<Play, ParsePlaybookError> {
        let map = value
            .as_map()
            .ok_or_else(|| structure(path, "play is not a mapping"))?;
        let mut play = Play {
            name: map.get("name").and_then(|v| v.as_str()).map(String::from),
            hosts: map.get("hosts").and_then(|v| v.as_str()).map(String::from),
            tasks: Vec::new(),
            pre_tasks: Vec::new(),
            post_tasks: Vec::new(),
            handlers: Vec::new(),
            keywords: Mapping::new(),
        };
        for (k, v) in map.iter() {
            match k {
                "tasks" | "pre_tasks" | "post_tasks" | "handlers" => {
                    let items = v
                        .as_seq()
                        .ok_or_else(|| structure(format!("{path}.{k}"), "must be a task list"))?;
                    let parsed = parse_task_list(items, &format!("{path}.{k}"))?;
                    match k {
                        "tasks" => play.tasks = parsed,
                        "pre_tasks" => play.pre_tasks = parsed,
                        "post_tasks" => play.post_tasks = parsed,
                        "handlers" => play.handlers = parsed,
                        _ => unreachable!(),
                    }
                }
                "name" => {}
                other => {
                    play.keywords
                        .insert(other.to_string(), v.clone().into_owned());
                }
            }
        }
        Ok(play)
    }

    /// Renders back to a YAML node in the canonical key order.
    pub fn to_value(&self) -> Value<'static> {
        let mut m = Mapping::new();
        if let Some(name) = &self.name {
            m.insert("name", Value::from(name.clone()));
        }
        for (k, v) in self.keywords.iter() {
            m.insert(k.to_string(), v.clone());
        }
        if !self.pre_tasks.is_empty() {
            m.insert(
                "pre_tasks",
                Value::Seq(self.pre_tasks.iter().map(TaskItem::to_value).collect()),
            );
        }
        if !self.tasks.is_empty() {
            m.insert(
                "tasks",
                Value::Seq(self.tasks.iter().map(TaskItem::to_value).collect()),
            );
        }
        if !self.post_tasks.is_empty() {
            m.insert(
                "post_tasks",
                Value::Seq(self.post_tasks.iter().map(TaskItem::to_value).collect()),
            );
        }
        if !self.handlers.is_empty() {
            m.insert(
                "handlers",
                Value::Seq(self.handlers.iter().map(TaskItem::to_value).collect()),
            );
        }
        Value::Map(m)
    }

    /// All tasks across `pre_tasks`, `tasks` and `post_tasks`, flattening
    /// blocks depth-first. Handlers are excluded.
    pub fn flat_tasks(&self) -> Vec<&Task> {
        fn walk<'a>(items: &'a [TaskItem], out: &mut Vec<&'a Task>) {
            for item in items {
                match item {
                    TaskItem::Task(t) => out.push(t),
                    TaskItem::Block(b) => {
                        walk(&b.block, out);
                        walk(&b.rescue, out);
                        walk(&b.always, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.pre_tasks, &mut out);
        walk(&self.tasks, &mut out);
        walk(&self.post_tasks, &mut out);
        out
    }
}

/// A playbook: an ordered list of plays.
#[derive(Debug, Clone, PartialEq)]
pub struct Playbook {
    /// Plays in execution order.
    pub plays: Vec<Play>,
}

impl Playbook {
    /// Parses a playbook from YAML text (top level must be a sequence of
    /// plays).
    ///
    /// # Errors
    ///
    /// Returns [`ParsePlaybookError`] on YAML or structural errors.
    pub fn parse(src: &str) -> Result<Playbook, ParsePlaybookError> {
        let v = wisdom_yaml::parse(src)?;
        Playbook::from_value(&v)
    }

    /// Interprets a parsed YAML node as a playbook.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePlaybookError::Structure`] when the node is not a
    /// non-empty sequence of play mappings.
    pub fn from_value(value: &Value) -> Result<Playbook, ParsePlaybookError> {
        let items = value
            .as_seq()
            .ok_or_else(|| structure("$", "playbook must be a sequence of plays"))?;
        if items.is_empty() {
            return Err(structure("$", "playbook is empty"));
        }
        let plays = items
            .iter()
            .enumerate()
            .map(|(i, v)| Play::from_value(v, &format!("plays[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Playbook { plays })
    }

    /// Renders back to a YAML node.
    pub fn to_value(&self) -> Value<'static> {
        Value::Seq(self.plays.iter().map(Play::to_value).collect())
    }

    /// Emits canonical YAML text with a `---` document marker.
    pub fn to_yaml(&self) -> String {
        wisdom_yaml::EmitOptions {
            start_marker: true,
            ..Default::default()
        }
        .emit(&self.to_value())
    }
}

impl fmt::Display for Playbook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_yaml())
    }
}

/// Parses a task file (a role's `tasks/main.yml`): a sequence of tasks.
///
/// # Errors
///
/// Returns [`ParsePlaybookError`] on YAML or structural errors.
///
/// # Examples
///
/// ```
/// let items = wisdom_ansible::parse_task_file(
///     "- name: Ping\n  ansible.builtin.ping: {}\n",
/// )?;
/// assert_eq!(items.len(), 1);
/// # Ok::<(), wisdom_ansible::ParsePlaybookError>(())
/// ```
pub fn parse_task_file(src: &str) -> Result<Vec<TaskItem>, ParsePlaybookError> {
    let v = wisdom_yaml::parse(src)?;
    let items = v
        .as_seq()
        .ok_or_else(|| structure("$", "task file must be a sequence of tasks"))?;
    parse_task_list(items, "tasks")
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = "---\n- hosts: servers\n  tasks:\n    - name: Install SSH server\n      ansible.builtin.apt:\n        name: openssh-server\n        state: present\n    - name: Start SSH server\n      ansible.builtin.service:\n        name: ssh\n        state: started\n";

    #[test]
    fn parse_paper_figure_1() {
        let pb = Playbook::parse(FIG1).unwrap();
        assert_eq!(pb.plays.len(), 1);
        let play = &pb.plays[0];
        assert_eq!(play.hosts.as_deref(), Some("servers"));
        assert_eq!(play.tasks.len(), 2);
        assert_eq!(play.tasks[0].name(), Some("Install SSH server"));
        let tasks = play.flat_tasks();
        assert_eq!(tasks[1].fqcn(), "ansible.builtin.service");
    }

    #[test]
    fn playbook_round_trip() {
        let pb = Playbook::parse(FIG1).unwrap();
        let text = pb.to_yaml();
        let back = Playbook::parse(&text).unwrap();
        assert_eq!(back, pb);
    }

    #[test]
    fn play_with_vars_and_handlers() {
        let src = "- name: Web play\n  hosts: web\n  become: true\n  vars:\n    port: 8080\n  tasks:\n    - name: T\n      ping: {}\n  handlers:\n    - name: restart nginx\n      service:\n        name: nginx\n        state: restarted\n";
        let pb = Playbook::parse(src).unwrap();
        let play = &pb.plays[0];
        assert_eq!(play.handlers.len(), 1);
        assert!(play.keywords.contains_key("vars"));
        assert!(play.keywords.contains_key("become"));
        assert!(!play.keywords.contains_key("tasks"));
    }

    #[test]
    fn block_parsing() {
        let src = "- hosts: all\n  tasks:\n    - name: Grouped\n      block:\n        - name: A\n          ping: {}\n        - name: B\n          ping: {}\n      rescue:\n        - name: R\n          debug:\n            msg: failed\n      when: do_it\n";
        let pb = Playbook::parse(src).unwrap();
        match &pb.plays[0].tasks[0] {
            TaskItem::Block(b) => {
                assert_eq!(b.block.len(), 2);
                assert_eq!(b.rescue.len(), 1);
                assert!(b.keywords.contains_key("when"));
            }
            other => panic!("expected block, got {other:?}"),
        }
        assert_eq!(pb.plays[0].flat_tasks().len(), 3);
    }

    #[test]
    fn empty_playbook_rejected() {
        assert!(Playbook::parse("[]\n").is_err());
        assert!(Playbook::parse("").is_err());
    }

    #[test]
    fn non_sequence_rejected() {
        let err = Playbook::parse("hosts: all\n").unwrap_err();
        assert!(err.to_string().contains("sequence"));
    }

    #[test]
    fn bad_task_propagates_path() {
        let src = "- hosts: all\n  tasks:\n    - name: broken\n      when: x\n";
        let err = Playbook::parse(src).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("tasks[0]"), "{msg}");
    }

    #[test]
    fn task_file_parsing() {
        let items = parse_task_file("- name: A\n  ping: {}\n- name: B\n  setup: {}\n").unwrap();
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn task_file_must_be_sequence() {
        assert!(parse_task_file("name: x\nping: {}\n").is_err());
    }

    #[test]
    fn multi_play_playbook() {
        let src =
            "- hosts: web\n  tasks:\n    - ping: {}\n- hosts: db\n  tasks:\n    - setup: {}\n";
        let pb = Playbook::parse(src).unwrap();
        assert_eq!(pb.plays.len(), 2);
    }
}
