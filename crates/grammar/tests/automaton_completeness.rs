//! The automaton accepts what the linter accepts, on gold: every lint-clean
//! gold completion of the test and train splits, after its prompt, and
//! every lint-clean Galaxy file whole (its `---` kept, from an empty
//! prompt) walks byte by byte to `accepting()` under the Ansible grammar
//! with an unbounded budget. A miss is reported by its class, the line it
//! stopped on split where the refused byte falls; a class may stay only if
//! it is named in `DISAGREEMENTS` with why the two languages differ there.
//! `scripts/check.sh` prints the counts line of this test in release.

use std::collections::BTreeMap;
use std::sync::Arc;

use wisdom_ansible::{lint_str, LintTarget};
use wisdom_corpus::{Corpus, CorpusSpec, PromptStyle, SplitSamples};
use wisdom_grammar::{Constraint, GrammarCursor, GrammarIndex};
use wisdom_tokenizer::BpeTokenizer;

/// Miss classes where the automaton refuses lint-clean gold on purpose:
/// `(class, why)`. Empty: the automaton walks all of it.
const DISAGREEMENTS: &[(&str, &str)] = &[];

/// Walks `body` after `prompt` one byte token at a time (a tokenizer with no
/// merges); on a miss returns where `body` was refused.
fn walk(index: &Arc<GrammarIndex>, prompt: &str, body: &str) -> Result<(), usize> {
    let ids: Vec<u32> = prompt.bytes().map(|b| 3 + b as u32).collect();
    let mut cursor = GrammarCursor::new(Arc::clone(index), &ids, 1 << 30);
    for (i, b) in body.bytes().enumerate() {
        if !cursor.advance(3 + b as u32) {
            return Err(i);
        }
    }
    if cursor.accepting() {
        Ok(())
    } else {
        Err(body.len())
    }
}

/// The line a miss stopped on, split at the refused byte.
fn class(body: &str, at: usize) -> String {
    let start = body[..at].rfind('\n').map_or(0, |p| p + 1);
    let end = body[at..].find('\n').map_or(body.len(), |p| at + p);
    format!("{}|{}", &body[start..at], &body[at..end])
}

#[test]
fn lint_clean_gold_walks_to_accepting() {
    let mut spec = CorpusSpec::scaled(0xA11CE, 1 << 30);
    spec.galaxy_files = 224;
    let corpus = Corpus::build(&spec);
    let split = SplitSamples::build(&corpus.galaxy, 0xA11CE);
    let tokenizer = BpeTokenizer::train(std::iter::empty(), 0);
    let index = GrammarIndex::build(&tokenizer, Constraint::Ansible).expect("ansible index");

    let mut misses: BTreeMap<String, usize> = BTreeMap::new();
    let mut counts = Vec::new();
    // (name, [(prompt, body, the document the linter scores)])
    let mut tally = |name: &str, cases: Vec<(String, &str, String)>| {
        let (mut ok, mut clean) = (0, 0);
        for (prompt, body, document) in cases {
            if !lint_str(&document, LintTarget::Auto).is_empty() {
                continue;
            }
            clean += 1;
            match walk(&index, &prompt, body) {
                Ok(()) => ok += 1,
                Err(at) => {
                    *misses
                        .entry(format!("{name}: {}", class(body, at)))
                        .or_default() += 1
                }
            }
        }
        counts.push(format!("{name} {ok}/{clean}"));
    };
    for (name, set) in [("test", &split.test), ("train", &split.train)] {
        let cases = set
            .iter()
            .map(|s| {
                let prompt = s.prompt_text(PromptStyle::NameCompletion);
                (prompt, s.expected.as_str(), s.scoring_document(&s.expected))
            })
            .collect();
        tally(name, cases);
    }
    tally(
        "galaxy",
        corpus
            .galaxy
            .iter()
            .map(|f| (String::new(), f.as_str(), f.clone()))
            .collect(),
    );
    println!("{}", counts.join(" "));

    let unexplained: Vec<String> = misses
        .iter()
        .filter(|(class, _)| {
            !DISAGREEMENTS
                .iter()
                .any(|(named, _)| class.ends_with(named))
        })
        .map(|(class, n)| format!("{n:4} {class}"))
        .collect();
    assert!(
        unexplained.is_empty(),
        "lint-clean gold the automaton refuses:\n{}",
        unexplained.join("\n")
    );
}

/// Walks one task after `- name: …` and checks the linter takes it too.
fn assert_task_walks(index: &Arc<GrammarIndex>, body: &str) {
    let prompt = "- name: run it\n";
    let document = format!("{prompt}{body}");
    assert!(
        lint_str(&document, LintTarget::Auto).is_empty(),
        "lint refuses:\n{document}"
    );
    if let Err(at) = walk(index, prompt, body) {
        panic!("automaton refuses {:?}", class(body, at));
    }
}

#[test]
fn keyword_maps_take_the_keys_the_linter_takes() {
    let tokenizer = BpeTokenizer::train(std::iter::empty(), 0);
    let index = GrammarIndex::build(&tokenizer, Constraint::Ansible).expect("ansible index");
    // Environment variables are upper case.
    assert_task_walks(
        &index,
        "  ansible.builtin.command: java -version\n  environment:\n    PATH: /usr/bin\n    JAVA_HOME: /usr/lib/jvm/java-17\n",
    );
    // Keys that differ in one byte each get a duplicate-key slot of their own.
    assert_task_walks(
        &index,
        "  ansible.builtin.command: echo hi\n  vars:\n    port1: 80\n    portq: 81\n    a-b: x\n    amb: y\n",
    );
}
