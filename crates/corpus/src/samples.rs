//! Fine-tuning/evaluation sample extraction: the four generation types of
//! §4.4.2 (NL→PB, PB+NL→T, NL→T, T+NL→T), the 80/10/10 file split, the
//! sample-level dedup, and the paper's prompt re-formalization (§4.4.3):
//! NL→code becomes code *completion* of a `- name: <intent>` line.

use std::collections::HashSet;
use std::fmt;

use wisdom_ansible::{Playbook, Task, TaskItem};
use wisdom_prng::Prng;
use wisdom_yaml::Value;

/// The four input/output combinations of the fine-tuning dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GenType {
    /// Natural language → full playbook (no context).
    NlToPb,
    /// Playbook context + NL → next task.
    PbNlToT,
    /// NL → first task of a role (no context).
    NlToT,
    /// Previous tasks + NL → next task.
    TNlToT,
}

impl GenType {
    /// All types, in the paper's Table 5 order.
    pub const ALL: [GenType; 4] = [
        GenType::NlToPb,
        GenType::NlToT,
        GenType::PbNlToT,
        GenType::TNlToT,
    ];
}

impl fmt::Display for GenType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GenType::NlToPb => "NL->PB",
            GenType::PbNlToT => "PB+NL->T",
            GenType::NlToT => "NL->T",
            GenType::TNlToT => "T+NL->T",
        };
        f.write_str(s)
    }
}

/// How the model input is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PromptStyle {
    /// The paper's re-formalization: context followed by a literal
    /// `- name: <NL>` line that the model completes (Eq. 2).
    #[default]
    NameCompletion,
    /// The ablation baseline ("CodeGen-prefix"): explicit `context code:` /
    /// `prompt:` / `code:` sections.
    Prefix,
}

/// One NL→Ansible sample.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Sample {
    /// Which generation type this sample belongs to.
    pub gen_type: GenType,
    /// Preceding file content (empty for the contextless types).
    pub context: String,
    /// The natural-language intent `X` (= the `name` value).
    pub nl: String,
    /// Gold completion: the YAML following the name line, with the
    /// indentation it has inside the file.
    pub expected: String,
    /// Column of the `- name:` dash.
    pub name_indent: usize,
    /// Column of the body keys (module etc.).
    pub body_indent: usize,
}

impl Sample {
    /// Builds the model input text under the chosen prompt style.
    pub fn prompt_text(&self, style: PromptStyle) -> String {
        match style {
            PromptStyle::NameCompletion => format!(
                "{}{}- name: {}\n",
                self.context,
                " ".repeat(self.name_indent),
                self.nl
            ),
            PromptStyle::Prefix => format!(
                "context code:\n{}prompt: {}\ncode:\n",
                self.context, self.nl
            ),
        }
    }

    /// Reconstructs a standalone, parseable YAML document from a completion
    /// body (the gold `expected` or a model output): de-indents the body to
    /// top level and prepends the name line. Tasks become one-task files,
    /// playbooks become one-play playbooks — ready for Schema Correct and
    /// Ansible Aware scoring.
    pub fn scoring_document(&self, body: &str) -> String {
        let shift = self.body_indent.saturating_sub(2);
        let mut out = format!("- name: {}\n", self.nl);
        for line in body.lines() {
            if line.trim().is_empty() {
                out.push('\n');
                continue;
            }
            let indent = line.len() - line.trim_start_matches(' ').len();
            let new_indent = indent.saturating_sub(shift);
            out.push_str(&" ".repeat(new_indent));
            out.push_str(line.trim_start_matches(' '));
            out.push('\n');
        }
        out
    }
}

/// 80/10/10 split of files (the paper's Galaxy split), then per-split sample
/// extraction and cross-split exact-match dedup.
#[derive(Debug, Clone, Default)]
pub struct SplitSamples {
    /// Training samples.
    pub train: Vec<Sample>,
    /// Validation samples (checkpoint selection).
    pub valid: Vec<Sample>,
    /// Test samples (all reported metrics).
    pub test: Vec<Sample>,
    /// Sample-level duplicates removed across splits.
    pub duplicates_removed: usize,
}

impl SplitSamples {
    /// Builds the three sample sets from Galaxy files.
    pub fn build(galaxy_files: &[String], seed: u64) -> SplitSamples {
        let mut rng = Prng::seed_from_u64(seed ^ 0x51a9);
        let mut order: Vec<usize> = (0..galaxy_files.len()).collect();
        rng.shuffle(&mut order);
        let n = order.len();
        let train_end = n * 8 / 10;
        let valid_end = n * 9 / 10;
        let mut out = SplitSamples::default();
        let mut seen: HashSet<Sample> = HashSet::new();
        for (rank, &file_idx) in order.iter().enumerate() {
            let samples = extract_samples(&galaxy_files[file_idx]);
            let bucket = if rank < train_end {
                &mut out.train
            } else if rank < valid_end {
                &mut out.valid
            } else {
                &mut out.test
            };
            for s in samples {
                if seen.insert(s.clone()) {
                    bucket.push(s);
                } else {
                    out.duplicates_removed += 1;
                }
            }
        }
        out
    }
}

/// Extracts every sample a file yields.
///
/// * Task files: the first named task becomes NL→T; each subsequent named
///   task becomes T+NL→T with the preceding tasks as context.
/// * Playbooks with ≤2 tasks: one NL→PB sample (prompt = play name plus task
///   names combined, per §4.4.3).
/// * Playbooks with >2 tasks: PB+NL→T samples (context = playbook truncated
///   before the target task).
///
/// Files that fail to parse, use blocks, or lack names yield fewer (possibly
/// zero) samples.
pub fn extract_samples(file_text: &str) -> Vec<Sample> {
    let Ok(value) = wisdom_yaml::parse(file_text) else {
        return Vec::new();
    };
    match wisdom_ansible::detect_target(&value) {
        wisdom_ansible::LintTarget::Playbook => extract_from_playbook(&value).unwrap_or_default(),
        _ => extract_from_task_file(&value).unwrap_or_default(),
    }
}

fn plain_tasks(items: &[TaskItem]) -> Option<Vec<&Task>> {
    items
        .iter()
        .map(|item| match item {
            TaskItem::Task(t) => Some(t),
            TaskItem::Block(_) => None,
        })
        .collect()
}

/// Emits a sequence value with the document marker, as files are stored.
fn emit_doc(value: &Value) -> String {
    wisdom_yaml::EmitOptions {
        start_marker: true,
        ..Default::default()
    }
    .emit(value)
}

/// The body of a task: its canonical emission minus the `- name:` first
/// line, re-indented by `extra_indent`.
fn task_body(task: &Task, extra_indent: usize) -> Option<String> {
    task.name.as_ref()?;
    let text = wisdom_yaml::emit(&Value::Seq(vec![task.to_value()]));
    let mut body = String::new();
    for line in text.lines().skip(1) {
        body.push_str(&" ".repeat(extra_indent));
        body.push_str(line);
        body.push('\n');
    }
    if body.is_empty() {
        None
    } else {
        Some(body)
    }
}

fn extract_from_task_file(value: &Value) -> Option<Vec<Sample>> {
    let items = value.as_seq()?;
    let parsed: Vec<TaskItem> = items
        .iter()
        .enumerate()
        .map(|(i, v)| TaskItem::from_value(v, &format!("tasks[{i}]")))
        .collect::<Result<_, _>>()
        .ok()?;
    let tasks = plain_tasks(&parsed)?;
    let mut out = Vec::new();
    for (i, task) in tasks.iter().enumerate() {
        let Some(name) = task.name.clone() else {
            continue;
        };
        let Some(body) = task_body(task, 0) else {
            continue;
        };
        if i == 0 {
            out.push(Sample {
                gen_type: GenType::NlToT,
                context: String::new(),
                nl: name,
                expected: body,
                name_indent: 0,
                body_indent: 2,
            });
        } else {
            let prefix: Vec<Value> = tasks[..i].iter().map(|t| t.to_value()).collect();
            out.push(Sample {
                gen_type: GenType::TNlToT,
                context: emit_doc(&Value::Seq(prefix)),
                nl: name,
                expected: body,
                name_indent: 0,
                body_indent: 2,
            });
        }
    }
    Some(out)
}

fn extract_from_playbook(value: &Value) -> Option<Vec<Sample>> {
    let playbook = Playbook::from_value(value).ok()?;
    // Single-play playbooks only (the dominant Galaxy shape).
    if playbook.plays.len() != 1 {
        return None;
    }
    let play = &playbook.plays[0];
    if !play.pre_tasks.is_empty() || !play.post_tasks.is_empty() || !play.handlers.is_empty() {
        return None;
    }
    let tasks = plain_tasks(&play.tasks)?;
    let play_name = play.name.clone()?;
    if tasks.iter().any(|t| t.name.is_none()) {
        return None;
    }
    let mut out = Vec::new();
    if tasks.len() <= 2 {
        // NL→PB: prompt combines the play name and task names (§4.4.3).
        let mut combined = vec![play_name];
        combined.extend(tasks.iter().map(|t| t.name.clone().expect("checked above")));
        let nl = combined.join(" and then ");
        // Expected output: the play body after the name line.
        let text = emit_doc(&playbook.to_value());
        let mut lines = text.lines();
        let _marker = lines.next()?; // ---
        let _name_line = lines.next()?; // - name: <play name>
        let mut expected = String::new();
        for line in lines {
            expected.push_str(line);
            expected.push('\n');
        }
        if expected.is_empty() {
            return None;
        }
        out.push(Sample {
            gen_type: GenType::NlToPb,
            context: String::new(),
            nl,
            expected,
            name_indent: 0,
            body_indent: 2,
        });
    } else {
        // PB+NL→T: predict task i given the playbook truncated before it.
        for (i, task) in tasks.iter().enumerate().skip(1) {
            let name = task.name.clone().expect("checked above");
            let Some(body) = task_body(task, 4) else {
                continue;
            };
            let mut truncated = play.clone();
            truncated.tasks = play.tasks[..i].to_vec();
            let context = emit_doc(
                &Playbook {
                    plays: vec![truncated],
                }
                .to_value(),
            );
            out.push(Sample {
                gen_type: GenType::PbNlToT,
                context,
                nl: name,
                expected: body,
                name_indent: 4,
                body_indent: 6,
            });
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filegen::{emit_task_file, generate_playbook, generate_role_file};
    use crate::taskgen::FileCtx;

    /// The file text a sample came from: its context, prompt line and
    /// expected completion, re-assembled.
    fn full_text(s: &Sample) -> String {
        let indent = " ".repeat(s.name_indent);
        format!("{}{indent}- name: {}\n{}", s.context, s.nl, s.expected)
    }

    const TASK_FILE: &str = "---\n- name: Ensure apache is at the latest version\n  ansible.builtin.yum:\n    name: httpd\n    state: latest\n- name: Write the apache config file\n  ansible.builtin.template:\n    src: /srv/httpd.j2\n    dest: /etc/httpd.conf\n";

    #[test]
    fn paper_figure_2cd_task_file_extraction() {
        let samples = extract_samples(TASK_FILE);
        assert_eq!(samples.len(), 2);
        // Fig. 2d: NL→T for the first task.
        assert_eq!(samples[0].gen_type, GenType::NlToT);
        assert_eq!(samples[0].nl, "Ensure apache is at the latest version");
        assert!(samples[0].context.is_empty());
        assert_eq!(
            samples[0].expected,
            "  ansible.builtin.yum:\n    name: httpd\n    state: latest\n"
        );
        // Fig. 2c: T+NL→T for the second.
        assert_eq!(samples[1].gen_type, GenType::TNlToT);
        assert!(samples[1].context.contains("ansible.builtin.yum"));
        assert!(samples[1].expected.contains("ansible.builtin.template"));
    }

    #[test]
    fn prompt_text_is_name_completion() {
        let samples = extract_samples(TASK_FILE);
        let p = samples[1].prompt_text(PromptStyle::NameCompletion);
        assert!(p.ends_with("- name: Write the apache config file\n"), "{p}");
        assert!(p.starts_with("---\n- name: Ensure apache"), "{p}");
    }

    #[test]
    fn prefix_prompt_style() {
        let samples = extract_samples(TASK_FILE);
        let p = samples[1].prompt_text(PromptStyle::Prefix);
        assert!(p.starts_with("context code:\n"));
        assert!(p.contains("prompt: Write the apache config file\n"));
        assert!(p.ends_with("code:\n"));
    }

    #[test]
    fn small_playbook_yields_nl_to_pb() {
        let src = "---\n- name: Network Setup Playbook\n  hosts: all\n  tasks:\n    - name: Get config for VyOS devices\n      vyos.vyos.vyos_facts:\n        gather_subset: all\n    - name: Update the hostname\n      vyos.vyos.vyos_config:\n        backup: true\n        lines:\n          - set system host-name vyos-changed\n";
        let samples = extract_samples(src);
        assert_eq!(samples.len(), 1);
        let s = &samples[0];
        assert_eq!(s.gen_type, GenType::NlToPb);
        assert!(s.nl.contains("Network Setup Playbook"));
        assert!(s.nl.contains("Update the hostname"));
        assert!(s.expected.starts_with("  hosts: all\n"));
        assert!(s.expected.contains("vyos.vyos.vyos_config"));
    }

    #[test]
    fn large_playbook_yields_pb_nl_to_t() {
        let mut rng = Prng::seed_from_u64(3);
        let ctx = FileCtx::galaxy(&mut rng);
        let pb = generate_playbook(&ctx, &mut rng, 4, 6);
        let text = pb.to_yaml();
        let samples = extract_samples(&text);
        let n_tasks = pb.plays[0].flat_tasks().len();
        assert_eq!(samples.len(), n_tasks - 1);
        for s in &samples {
            assert_eq!(s.gen_type, GenType::PbNlToT);
            assert_eq!(s.name_indent, 4);
            assert!(s.context.starts_with("---\n"));
            // Context + prompt + expected must re-assemble into the file.
            let full = full_text(s);
            assert!(
                text.starts_with(&full) || full == text,
                "reassembly mismatch\nfile:\n{text}\nreassembled:\n{full}"
            );
        }
    }

    #[test]
    fn task_file_reassembly_is_exact() {
        let mut rng = Prng::seed_from_u64(4);
        let ctx = FileCtx::galaxy(&mut rng);
        let tasks = generate_role_file(&ctx, &mut rng);
        let text = emit_task_file(&tasks);
        let samples = extract_samples(&text);
        let last = samples.last().expect("role file yields samples");
        assert_eq!(full_text(last), text);
    }

    #[test]
    fn scoring_document_deindents_playbook_tasks() {
        let mut rng = Prng::seed_from_u64(5);
        let ctx = FileCtx::galaxy(&mut rng);
        let pb = generate_playbook(&ctx, &mut rng, 4, 6);
        let samples = extract_samples(&pb.to_yaml());
        let s = &samples[0];
        let doc = s.scoring_document(&s.expected);
        assert!(doc.starts_with("- name: "));
        let violations = wisdom_ansible::lint_str(&doc, wisdom_ansible::LintTarget::TaskFile);
        assert!(violations.is_empty(), "{violations:?}\n{doc}");
    }

    #[test]
    fn unparseable_files_yield_nothing() {
        assert!(extract_samples("not: [valid").is_empty());
        assert!(extract_samples("").is_empty());
    }

    #[test]
    fn split_proportions_and_dedup() {
        let mut rng = Prng::seed_from_u64(6);
        let mut files = Vec::new();
        for _ in 0..50 {
            let ctx = FileCtx::galaxy(&mut rng);
            files.push(emit_task_file(&generate_role_file(&ctx, &mut rng)));
        }
        // Inject a duplicate file: its samples must be dropped once.
        files.push(files[0].clone());
        let split = SplitSamples::build(&files, 7);
        let total = split.train.len() + split.valid.len() + split.test.len();
        assert!(total > 100, "expected many samples, got {total}");
        assert!(split.duplicates_removed > 0);
        // Roughly 80/10/10 by construction.
        assert!(split.train.len() > split.valid.len());
        assert!(split.train.len() > split.test.len());
        // No cross-split duplicates.
        let mut seen = HashSet::new();
        for s in split.train.iter().chain(&split.valid).chain(&split.test) {
            assert!(seen.insert(s.clone()));
        }
    }
}
