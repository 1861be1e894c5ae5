//! Crate-internal correctness suites: canonical closes lint clean, every
//! registered module round-trips through the automaton, and random legal
//! walks (byte- and token-level) never strand the decoder.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use wisdom_ansible::{lint_str, LintTarget};
use wisdom_tokenizer::BpeTokenizer;
use wisdom_yaml::parse;

use crate::state::{ConstraintState, Machine, Mode};
use crate::tables::Tables;
use crate::{Constraint, GrammarCursor, GrammarIndex};

fn tables() -> &'static Tables {
    static T: OnceLock<Tables> = OnceLock::new();
    T.get_or_init(Tables::build)
}

/// Feeds `bytes` through the machine, panicking on the first illegal byte.
fn feed(m: &Machine<'_>, st: ConstraintState, bytes: &[u8]) -> ConstraintState {
    let mut cur = st;
    for (i, &b) in bytes.iter().enumerate() {
        cur = m.advance(&cur, b).unwrap_or_else(|| {
            panic!(
                "byte {i} ({:?}) of {:?} illegal",
                b as char,
                String::from_utf8_lossy(bytes)
            )
        });
    }
    cur
}

fn close(m: &Machine<'_>, st: &ConstraintState) -> String {
    let mut out = Vec::new();
    m.close_len(st, Some(&mut out)).expect("state must close");
    String::from_utf8(out).expect("close is ASCII")
}

/// A tiny deterministic generator for walk choices.
pub(crate) struct Lcg(pub(crate) u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    pub(crate) fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn canonical_close_of_fresh_document_lints_clean() {
    let m = Machine::new(tables());
    let st = m.start_state(Mode::Ansible, b"");
    let text = close(&m, &st);
    assert!(parse(&text).is_ok(), "close must parse:\n{text}");
    assert!(
        lint_str(&text, LintTarget::Auto).is_empty(),
        "close must lint clean:\n{text}"
    );
}

#[test]
fn canonical_close_after_name_line_lints_clean() {
    let m = Machine::new(tables());
    for prompt in [
        "- name: Install nginx\n",
        "- name: Install nginx\n    - name: Deploy the configuration\n",
    ] {
        let st = m.start_state(Mode::Ansible, prompt.as_bytes());
        let completion = close(&m, &st);
        // The automaton anchors on the *last* line; reconstruct the textual
        // context the same way the eval harness does (name line + body,
        // de-indented to column zero).
        let last = prompt.trim_end_matches('\n').rsplit('\n').next().unwrap();
        let indent = last.len() - last.trim_start().len();
        let text = format!("{last}\n{completion}");
        let dedented: String = text
            .lines()
            .map(|l| l.get(indent..).unwrap_or(l))
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        assert!(
            lint_str(&dedented, LintTarget::Auto).is_empty(),
            "close must lint clean for prompt {prompt:?}:\n{dedented}"
        );
    }
}

/// Satellite: every registered module spelling round-trips — committing the
/// module key from a task body and closing canonically yields a document
/// that parses and lints clean (required params present, kinds correct).
#[test]
fn every_module_roundtrips_through_the_automaton() {
    let t = tables();
    let m = Machine::new(t);
    let base = m.start_state(Mode::Ansible, b"- name: Exercise the module\n");
    for (i, entry) in t.modules.iter().enumerate() {
        let mut st = feed(&m, base, b"  ");
        st = feed(&m, st, entry.key.as_bytes());
        st = m
            .advance(&st, b':')
            .unwrap_or_else(|| panic!("module key {:?} did not commit", entry.key));
        let completion = close(&m, &st);
        let text = format!("- name: Exercise the module\n  {}:{completion}", entry.key);
        assert!(
            parse(&text).is_ok(),
            "module {} ({i}) must parse:\n{text}",
            entry.key
        );
        let violations = lint_str(&text, LintTarget::Auto);
        assert!(
            violations.is_empty(),
            "module {} must lint clean, got {:?}:\n{text}",
            entry.key,
            violations
        );
    }
}

#[test]
fn required_params_gate_the_close() {
    let t = tables();
    let m = Machine::new(t);
    let st = m.start_state(Mode::Ansible, b"- name: T\n");
    let st = feed(&m, st, b"  apt:\n");
    let completion = close(&m, &st);
    assert!(
        completion.contains("name:"),
        "apt close must supply the required `name` param, got:\n{completion}"
    );
}

#[test]
fn play_documents_close_with_hosts_and_tasks() {
    let t = tables();
    let m = Machine::new(t);
    let st = m.start_state(Mode::Ansible, b"- name: Site play\n");
    let st = feed(&m, st, b"  hosts: all\n  gather_facts: false\n  tasks:\n");
    let completion = close(&m, &st);
    let text =
        format!("- name: Site play\n  hosts: all\n  gather_facts: false\n  tasks:\n{completion}");
    assert!(
        lint_str(&text, LintTarget::Auto).is_empty(),
        "play close must lint clean:\n{text}"
    );
    // And the automaton rejects ending the play without hosts (`serial` is
    // play-only, so it commits the body to a play without supplying hosts).
    let st2 = m.start_state(Mode::Ansible, b"- name: Site play\n");
    let st2 = feed(&m, st2, b"  serial: 1\n");
    assert!(!m.accepting(&st2), "play without hosts must not accept EOS");
}

#[test]
fn yaml_mode_closes_parse() {
    let m = Machine::new(tables());
    let st = m.start_state(Mode::Yaml, b"- name: freeform\n");
    let st = feed(
        &m,
        st,
        b"  some_key: value with spaces\n  nested:\n    - a\n    - b\n",
    );
    let completion = close(&m, &st);
    let text = format!(
        "- name: freeform\n  some_key: value with spaces\n  nested:\n    - a\n    - b\n{completion}"
    );
    assert!(parse(&text).is_ok(), "yaml close must parse:\n{text}");
}

/// Byte-level liveness: from any state reached by legal bytes, the
/// canonical close always exists and every canonical byte is itself legal.
fn random_byte_walk(mode: Mode, seed: u64) -> Result<(), TestCaseError> {
    let m = Machine::new(tables());
    let mut rng = Lcg(seed);
    let mut st = m.start_state(mode, b"- name: Walk\n");
    let mut walked = Vec::new();
    for _ in 0..400 {
        prop_assert!(
            m.close_len(&st, None).is_some(),
            "reachable state failed to close after {:?}: {:?}",
            String::from_utf8_lossy(&walked),
            st
        );
        let legal: Vec<u8> = (0u8..=127)
            .filter(|&b| m.advance(&st, b).is_some())
            .collect();
        prop_assert!(
            !legal.is_empty() || m.accepting(&st),
            "dead non-accepting state"
        );
        if legal.is_empty() || (m.accepting(&st) && rng.pick(4) == 0) {
            break;
        }
        let b = legal[rng.pick(legal.len())];
        walked.push(b);
        st = m.advance(&st, b).expect("picked legal byte");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ansible_byte_walks_never_strand(seed in any::<u64>()) {
        random_byte_walk(Mode::Ansible, seed)?;
    }

    #[test]
    fn yaml_byte_walks_never_strand(seed in any::<u64>()) {
        random_byte_walk(Mode::Yaml, seed)?;
    }
}

// ---- token-level suites ----------------------------------------------------

pub(crate) fn fixture() -> &'static (BpeTokenizer, Arc<GrammarIndex>, Arc<GrammarIndex>) {
    static F: OnceLock<(BpeTokenizer, Arc<GrammarIndex>, Arc<GrammarIndex>)> = OnceLock::new();
    F.get_or_init(|| {
        let corpus = [
            "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n  become: true\n",
            "- name: Site play\n  hosts: all\n  gather_facts: false\n  tasks:\n    - name: Ping\n      ping:\n",
            "- name: Copy config\n  copy:\n    src: files/app.conf\n    dest: /etc/app.conf\n  notify:\n    - restart app\n",
            "- name: Run command\n  command: systemctl restart nginx\n  when: restart_needed\n",
        ];
        let tok = BpeTokenizer::train(corpus, 460);
        let ansible = GrammarIndex::build(&tok, Constraint::Ansible).expect("ansible index");
        let yaml = GrammarIndex::build(&tok, Constraint::Yaml).expect("yaml index");
        (tok, ansible, yaml)
    })
}

#[test]
fn constraint_none_builds_no_index() {
    let (tok, _, _) = fixture();
    assert!(GrammarIndex::build(tok, Constraint::None).is_none());
}

#[test]
fn cursor_bypasses_on_impossible_budget() {
    let (tok, ansible, _) = fixture();
    let prompt = tok.encode("- name: T\n");
    let c = GrammarCursor::new(Arc::clone(ansible), &prompt, 1);
    assert!(!c.is_active(), "one token cannot fit any ansible close");
    let mut logits = vec![0.0f32; tok.vocab_size()];
    let out = c.apply(&mut logits);
    assert!(!out.active);
    assert!(logits.iter().all(|&l| l == 0.0), "bypass must not mask");
}

#[test]
fn cursor_bypasses_on_illegal_external_token() {
    let (tok, ansible, _) = fixture();
    let prompt = tok.encode("- name: T\n");
    let mut c = GrammarCursor::new(Arc::clone(ansible), &prompt, 128);
    assert!(c.is_active());
    // `<|pad|>` is never legal inside a constrained body.
    assert!(!c.advance(tok.pad()));
    assert!(!c.is_active());
    assert!(c.advance(tok.pad()), "bypassed cursor accepts anything");
}

/// Token-level liveness + end-to-end lint: a walk that picks uniformly at
/// random among mask-allowed tokens always reaches EOS within budget, and
/// the decoded completion parses (yaml) / lints clean (ansible).
fn random_token_walk(
    index: &Arc<GrammarIndex>,
    seed: u64,
    max_new: usize,
) -> Result<String, TestCaseError> {
    let (tok, _, _) = fixture();
    let prompt = "- name: Grammar walk\n";
    let prompt_ids = tok.encode(prompt);
    let mut cursor = GrammarCursor::new(Arc::clone(index), &prompt_ids, max_new);
    prop_assert!(cursor.is_active(), "budget {max_new} must admit a close");
    let mut rng = Lcg(seed);
    let mut picked: Vec<u32> = Vec::new();
    for _ in 0..max_new + 1 {
        let mut logits = vec![0.0f32; tok.vocab_size()];
        let out = cursor.apply(&mut logits);
        prop_assert!(out.active);
        let allowed: Vec<u32> = (0..tok.vocab_size() as u32)
            .filter(|&i| logits[i as usize].is_finite())
            .collect();
        prop_assert!(!allowed.is_empty(), "mask must never be empty while active");
        if let Some(f) = cursor.next_forced() {
            prop_assert_eq!(
                &allowed,
                &vec![f],
                "forced token must be the unique allowed token"
            );
        }
        let t = allowed[rng.pick(allowed.len())];
        prop_assert!(cursor.advance(t), "mask-allowed token must advance");
        if t == tok.eot() {
            let text = format!("{prompt}{}", tok.decode(&picked));
            return Ok(text);
        }
        picked.push(t);
    }
    Err(TestCaseError::fail("walk did not reach EOS within budget"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ansible_token_walks_lint_clean(seed in any::<u64>()) {
        let (_, ansible, _) = fixture();
        let text = random_token_walk(ansible, seed, 72)?;
        prop_assert!(parse(&text).is_ok(), "must parse:\n{}", text);
        let violations = lint_str(&text, LintTarget::Auto);
        prop_assert!(violations.is_empty(), "must lint clean, got {:?}:\n{}", violations, text);
    }

    #[test]
    fn yaml_token_walks_parse(seed in any::<u64>()) {
        let (_, _, yaml) = fixture();
        let text = random_token_walk(yaml, seed, 72)?;
        prop_assert!(parse(&text).is_ok(), "must parse:\n{}", text);
    }
}

#[test]
fn stats_and_cache_account_for_work() {
    let (tok, ansible, _) = fixture();
    // Other tests share the fixture index; drop their cached masks so this
    // apply provably builds one.
    ansible.clear_cache();
    let before = ansible.stats();
    let prompt = tok.encode("- name: Stats probe\n");
    let cursor = GrammarCursor::new(Arc::clone(ansible), &prompt, 64);
    let mut logits = vec![0.0f32; tok.vocab_size()];
    let first = cursor.apply(&mut logits);
    assert!(first.active && first.masked > 0);
    // A cursor looks its position up once; a second sequence at the same
    // state is what the shared cache serves.
    let sibling = GrammarCursor::new(Arc::clone(ansible), &prompt, 64);
    let second = sibling.apply(&mut logits);
    assert!(second.built.is_none(), "same state must hit the mask cache");
    let after = ansible.stats();
    assert!(after.mask_builds > before.mask_builds);
    assert!(after.cache_hits > before.cache_hits);
    assert!(after.states_cached > 0);
}

// ---- completion scope ------------------------------------------------------

/// The fixture's tokenizer with completion-scoped indices.
fn scoped_fixture() -> &'static (Arc<GrammarIndex>, Arc<GrammarIndex>) {
    static F: OnceLock<(Arc<GrammarIndex>, Arc<GrammarIndex>)> = OnceLock::new();
    F.get_or_init(|| {
        let (tok, _, _) = fixture();
        (
            GrammarIndex::build_scoped(tok, Constraint::Ansible).expect("ansible index"),
            GrammarIndex::build_scoped(tok, Constraint::Yaml).expect("yaml index"),
        )
    })
}

/// Walks `continuation` token by token; returns how many tokens were
/// advanced past before one closed the completion.
fn tokens_until_close(cursor: &mut GrammarCursor, continuation: &[u32]) -> Option<usize> {
    for (i, &t) in continuation.iter().enumerate() {
        if cursor.closes(t) {
            return Some(i);
        }
        cursor.advance(t);
    }
    None
}

#[test]
fn scoped_cursor_closes_at_the_next_item_and_unscoped_never_does() {
    let (tok, unscoped, _) = fixture();
    let (scoped, scoped_yaml) = scoped_fixture();
    assert!(scoped.is_scoped() && !unscoped.is_scoped());
    for (prompt, first, rest) in [
        (
            "- name: Install nginx\n",
            "  ansible.builtin.apt:\n    name: nginx\n\n",
            "- name: Ping\n  ping:\n",
        ),
        (
            "- name: Site play\n  hosts: all\n  tasks:\n    - name: Ping\n",
            "      ping:\n",
            "    - name: Copy config\n      copy:\n        src: a\n",
        ),
    ] {
        let prompt_ids = tok.encode(prompt);
        let continuation = tok.encode(&format!("{first}{rest}"));
        for index in [scoped, scoped_yaml] {
            let mut cursor = GrammarCursor::new(Arc::clone(index), &prompt_ids, 128);
            let kept = tokens_until_close(&mut cursor, &continuation).expect("closes");
            // Everything kept is the first task, possibly plus the spaces
            // that indent the closing line.
            let text = tok.decode(&continuation[..kept]);
            assert_eq!(text.trim_end_matches(' '), first, "prompt {prompt:?}");
            assert_eq!(
                cursor.legal_prefix_len(&continuation[kept..]),
                0,
                "a draft may not start on the closing token"
            );
        }
        let mut cursor = GrammarCursor::new(Arc::clone(unscoped), &prompt_ids, 128);
        assert_eq!(tokens_until_close(&mut cursor, &continuation), None);
    }
}

#[test]
fn scope_outlives_bypass_and_drafts_stop_short_of_the_close() {
    let (tok, _, _) = fixture();
    let (scoped, _) = scoped_fixture();
    let prompt_ids = tok.encode("- name: T\n");
    // One token of budget cannot fit an Ansible close: the cursor starts in
    // bypass, masks nothing — and still knows where the task ends.
    let mut cursor = GrammarCursor::new(Arc::clone(scoped), &prompt_ids, 1);
    assert!(!cursor.is_active());
    let body = tok.encode("  not yaml at all {{\n");
    let next = tok.encode("- name: U\n");
    let draft: Vec<u32> = body.iter().chain(&next).copied().collect();
    assert_eq!(cursor.legal_prefix_len(&draft), body.len());
    assert_eq!(tokens_until_close(&mut cursor, &draft), Some(body.len()));
    // A prompt that does not end on a name line opens no scope.
    let cursor = GrammarCursor::new(Arc::clone(scoped), &tok.encode("- name: T\n  ping:\n"), 64);
    assert!(!cursor.closes(next[0]));
}

#[test]
fn token_straddling_a_newline_is_advanced_past_and_then_closes() {
    // Trained vocabularies never merge across '\n'; a loaded one may.
    // Byte ids are 3 + byte, so this adds token 259 = "\n-".
    let tok = BpeTokenizer::from_text("wisdom-bpe v1\n13 48\n").expect("tokenizer");
    let straddler = 259;
    assert_eq!(tok.token_bytes(straddler), Some(&b"\n-"[..]));
    let index = GrammarIndex::build_scoped(&tok, Constraint::Yaml).expect("index");
    let mut cursor = GrammarCursor::new(index, &tok.encode("- name: T\n"), 64);
    for t in tok.encode("  a: 1") {
        assert!(!cursor.closes(t));
        cursor.advance(t);
    }
    // Its newline belongs to a kept line, so it is emitted, not swallowed…
    assert!(!cursor.closes(straddler));
    cursor.advance(straddler);
    // …and whatever is picked next ends the sequence.
    assert!(cursor.closes(tok.encode(" ")[0]));
    assert!(cursor.closes(tok.eot()));
}
