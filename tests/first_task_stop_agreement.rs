//! Completion-scoped decoding must be invisible in the suggestion and
//! identical on every decode path.
//!
//! `Wisdom::grammar_for` hands out a completion-scoped grammar index: a
//! decode under it ends at the pick that would start the task *after* the
//! one the prompt's `- name:` line opened. The oracle is the unscoped
//! `GrammarIndex::build` the evaluation harness uses, followed by the
//! first-task truncation `Suggestion::from_raw` has always applied:
//!
//! * the scoped tokens are a prefix of the unscoped tokens — strictly
//!   shorter exactly when the sequence finished as `task_closed`;
//! * `Suggestion::from_raw` of both outputs is equal field for field, and
//!   is what `Wisdom::complete_constrained` returns;
//! * solo, batched, speculative (n-gram and self-draft), scheduled and
//!   streamed decodes under the scoped index agree token for token;
//! * over HTTP, the streamed token events concatenate to text whose
//!   first-task truncation is the final event's completion.

use std::sync::{Arc, OnceLock};

use ansible_wisdom::core::{
    truncate_first_task, BatchConfig, BatchTelemetry, CompletionRequest, Constraint, DecodeRequest,
    Suggestion, Wisdom, WisdomConfig,
};
use ansible_wisdom::model::{
    generate_batch, pretrain, BatchScheduler, DecodeBatch, FinishReason, GrammarIndex, ModelConfig,
    PretrainConfig, ReplicaTelemetry, SpeculativeConfig, SpeculativeDecoder, Strategy,
    TransformerLm,
};
use ansible_wisdom::prng::Prng;
use ansible_wisdom::server::{get, parse_json, post_sse, Json, ServerConfig, WisdomServer};
use ansible_wisdom::telemetry::{sample_value, Registry};
use ansible_wisdom::tokenizer::BpeTokenizer;

const TASKS: [&str; 6] = [
    "- name: Ping hosts\n  ansible.builtin.ping:\n",
    "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n    state: present\n",
    "- name: Start nginx\n  ansible.builtin.service:\n    name: nginx\n    state: started\n",
    "- name: Create user deploy\n  ansible.builtin.user:\n    name: deploy\n",
    "- name: Copy config\n  ansible.builtin.copy:\n    src: app.conf\n    dest: /etc/app.conf\n",
    "- name: Restart nginx\n  ansible.builtin.service:\n    name: nginx\n    state: restarted\n",
];

fn indented(text: &str, by: usize) -> String {
    text.lines()
        .map(|l| format!("{}{l}\n", " ".repeat(by)))
        .collect()
}

/// A tiny assistant that has only ever seen files of several short tasks,
/// as task lists and inside plays — so that, like the full-size model, it
/// writes task after task until something stops it. (The pipeline's own
/// `tiny()` model rambles inside its first task for the whole budget.)
fn wisdom() -> Arc<Wisdom> {
    static WISDOM: OnceLock<Arc<Wisdom>> = OnceLock::new();
    Arc::clone(WISDOM.get_or_init(|| {
        let mut docs = Vec::new();
        for first in 0..TASKS.len() {
            let three: String = (0..3).map(|k| TASKS[(first + k) % TASKS.len()]).collect();
            docs.push(format!(
                "---\n- hosts: all\n  tasks:\n{}",
                indented(&three, 4)
            ));
            docs.push(three);
        }
        let tokenizer = Arc::new(BpeTokenizer::train(docs.iter().map(String::as_str), 400));
        let config = WisdomConfig {
            context_window: 96,
            max_new_tokens: 48,
            ..WisdomConfig::tiny()
        };
        let mut model = TransformerLm::new(
            ModelConfig {
                vocab_size: tokenizer.vocab_size(),
                d_model: 32,
                n_layers: 2,
                n_heads: 2,
                context_window: config.context_window,
            },
            &mut Prng::seed_from_u64(5),
        );
        let mut stream = Vec::new();
        for _ in 0..6 {
            for doc in &docs {
                stream.extend(tokenizer.encode(doc));
                stream.push(tokenizer.eot());
            }
        }
        pretrain(
            &mut model,
            &stream,
            &PretrainConfig {
                epochs: 4,
                batch_size: 4,
                ..Default::default()
            },
            None,
        );
        Arc::new(Wisdom::from_parts(config, tokenizer, model))
    }))
}

const PLAYBOOK: &str = "---\n- hosts: all\n  tasks:\n";
const PLAYBOOK_WITH_TASK: &str =
    "---\n- hosts: web\n  tasks:\n    - name: Install nginx\n      ansible.builtin.apt:\n        name: nginx\n";

/// Name indent 0 (task file, empty buffer) and 4 (inside a play).
fn requests() -> Vec<CompletionRequest> {
    let mut out = Vec::new();
    for intent in [
        "Ping hosts",
        "Install nginx",
        "Create user deploy",
        "Frobnicate the widget",
    ] {
        out.push(CompletionRequest::new("", intent));
        out.push(CompletionRequest::new(PLAYBOOK, intent));
    }
    out.push(CompletionRequest::new(
        "- name: Install nginx\n  ansible.builtin.apt:\n    name: nginx\n",
        "Restart nginx",
    ));
    out.push(CompletionRequest::new(PLAYBOOK_WITH_TASK, "Restart nginx"));
    out
}

/// Greedy and seeded top-k at the assistant's budget, and greedy at a
/// budget too small for the grammar to close a task in: the cursor starts
/// in bypass, the model runs free — and the scope still applies.
fn settings() -> [(Strategy, Option<usize>); 3] {
    let top_k = Strategy::TopK {
        k: 4,
        temperature: 0.9,
    };
    [
        (Strategy::Greedy, None),
        (top_k, None),
        (Strategy::Greedy, Some(BYPASS_BUDGET)),
    ]
}

const BYPASS_BUDGET: usize = 10;

/// The decode request core builds for `request` (scoped grammar), with the
/// given strategy and budget and a seed drawn from the request so sampled
/// runs differ.
fn scoped_request(
    wisdom: &Wisdom,
    request: &CompletionRequest,
    constraint: Constraint,
    (strategy, budget): (Strategy, Option<usize>),
) -> DecodeRequest {
    let mut decode = wisdom.decode_request_constrained(request, constraint);
    decode.opts.strategy = strategy;
    decode.opts.seed = request.prompt.len() as u64 * 31 + request.context.len() as u64;
    decode.opts.max_new_tokens = budget.unwrap_or(decode.opts.max_new_tokens);
    assert!(decode.grammar.as_ref().is_some_and(|g| g.is_scoped()));
    decode
}

fn solo(wisdom: &Wisdom, decode: &DecodeRequest) -> Vec<u32> {
    wisdom.model().generate_constrained(
        &decode.prompt,
        &decode.stops,
        &decode.opts,
        decode.grammar.as_ref(),
    )
}

fn suggestion(wisdom: &Wisdom, request: &CompletionRequest, tokens: &[u32]) -> Suggestion {
    Suggestion::from_raw(request, &wisdom.tokenizer().decode(tokens))
}

#[test]
fn scoped_tokens_are_a_prefix_and_the_suggestion_is_unchanged() {
    let wisdom = wisdom();
    // Decodes that stopped early, by name indent.
    let mut shortened = [0, 0];
    let mut saved = 0;
    for constraint in [Constraint::Ansible, Constraint::Yaml] {
        let unscoped: Arc<GrammarIndex> =
            GrammarIndex::build(wisdom.tokenizer(), constraint).expect("active constraint");
        for request in requests() {
            for setting in settings() {
                let scoped = scoped_request(&wisdom, &request, constraint, setting);
                let oracle = DecodeRequest {
                    grammar: Some(Arc::clone(&unscoped)),
                    ..scoped.clone()
                };
                let (short, full) = (solo(&wisdom, &scoped), solo(&wisdom, &oracle));
                let label = format!("{constraint} {setting:?} {request:?}");
                assert!(full.starts_with(&short), "{label}: not a prefix");
                assert_eq!(
                    suggestion(&wisdom, &request, &short),
                    suggestion(&wisdom, &request, &full),
                    "{label}"
                );
                if short.len() < full.len() {
                    shortened[request.name_indent() / 4] += 1;
                    saved += full.len() - short.len();
                    // What was cut is what truncation discards: the kept
                    // text ends where the body does.
                    let kept = wisdom.tokenizer().decode(&short);
                    let body = truncate_first_task(&kept, request.name_indent());
                    assert_eq!(kept.trim_end_matches(' '), body, "{label}");
                }
                if setting == (Strategy::Greedy, None) {
                    assert_eq!(
                        wisdom.complete_constrained(&request, constraint),
                        suggestion(&wisdom, &request, &full),
                        "{label}: complete_constrained"
                    );
                }
            }
        }
    }
    assert!(
        shortened.iter().all(|&n| n > 0),
        "decodes that ran past their first task at name indent 0 / 4: {shortened:?} — \
         the suite is not exercising the stop"
    );
    println!("{shortened:?} decodes stopped early, {saved} tokens not decoded");
}

#[test]
fn every_decode_path_stops_on_the_same_token() {
    let wisdom = wisdom();
    let model = Arc::new(wisdom.model().clone());
    let registry = Registry::new();
    let telemetry = BatchTelemetry::register(&registry);
    let scheduler = BatchScheduler::spawn_with(
        Arc::clone(&model),
        BatchConfig {
            max_batch_size: 3,
            speculative: SpeculativeConfig::ngram(8),
            ..BatchConfig::default()
        },
        ReplicaTelemetry {
            batch: Some(telemetry.clone()),
            ..Default::default()
        },
    );
    let drafts = [
        SpeculativeConfig::ngram(8),
        SpeculativeConfig::self_draft(8),
    ];
    let mut closed = 0;
    for constraint in [Constraint::Ansible, Constraint::Yaml] {
        let unscoped =
            GrammarIndex::build(wisdom.tokenizer(), constraint).expect("active constraint");
        for setting in settings() {
            let decodes: Vec<DecodeRequest> = requests()
                .iter()
                .map(|r| scoped_request(&wisdom, r, constraint, setting))
                .collect();
            let want: Vec<Vec<u32>> = decodes.iter().map(|d| solo(&wisdom, d)).collect();
            closed += decodes
                .iter()
                .zip(&want)
                .filter(|(d, short)| {
                    let oracle = DecodeRequest {
                        grammar: Some(Arc::clone(&unscoped)),
                        ..(*d).clone()
                    };
                    solo(&wisdom, &oracle).len() > short.len()
                })
                .count() as u64;
            let label = format!("{constraint} {setting:?}");

            assert_eq!(generate_batch(&model, decodes.clone(), 3), want, "{label}");
            for draft in drafts {
                let mut engine = DecodeBatch::new(&model);
                engine.set_speculation(draft);
                assert_eq!(
                    engine.run(decodes.clone(), 3),
                    want,
                    "{label} batched {draft:?}"
                );
                let decoder = SpeculativeDecoder::new(&model, draft);
                for (d, want) in decodes.iter().zip(&want) {
                    let (got, _) = decoder.generate(d);
                    assert_eq!(&got, want, "{label} solo {draft:?}");
                }
            }
            // Scheduled, plain and streamed, all in flight together.
            let pending: Vec<_> = decodes
                .iter()
                .map(|d| scheduler.submit(d.clone()).expect("queue holds the list"))
                .collect();
            for (pending, want) in pending.into_iter().zip(&want) {
                assert_eq!(&pending.wait(), want, "{label} scheduler");
            }
            let streams: Vec<_> = decodes
                .iter()
                .map(|d| scheduler.submit_streaming(d.clone()).expect("queued"))
                .collect();
            for (stream, want) in streams.into_iter().zip(&want) {
                let streamed: Vec<u32> = stream.tokens.iter().collect();
                assert_eq!(&streamed, want, "{label} streamed tokens");
                assert_eq!(&stream.result.wait(), want, "{label} streamed result");
            }
        }
    }
    // Attribution: a sequence finished `task_closed` exactly when the
    // unscoped decode would have run on (each list went through the
    // scheduler twice).
    assert!(closed > 0);
    assert_eq!(
        telemetry.finished(FinishReason::TaskClosed).get(),
        2 * closed
    );
    let by_reason: u64 = FinishReason::ALL
        .iter()
        .map(|&r| telemetry.finished(r).get())
        .sum();
    assert_eq!(by_reason, telemetry.completed.get());
    assert_eq!(telemetry.finished(FinishReason::Cancelled).get(), 0);
}

#[test]
fn an_intent_with_its_own_line_break_falls_back_to_the_unscoped_index() {
    // The scope column is read off the prompt's last line; truncation uses
    // the indent the context implies. An intent that smuggles in a deeper
    // `- name:` line would make the two disagree, so core decodes it the
    // old way — and the suggestion is still the oracle's.
    let wisdom = wisdom();
    for intent in ["Install nginx\n    - name: and more", "two\nlines"] {
        let request = CompletionRequest::new("", intent);
        for constraint in [Constraint::Ansible, Constraint::Yaml] {
            let decode = wisdom.decode_request_constrained(&request, constraint);
            assert!(decode.grammar.as_ref().is_some_and(|g| !g.is_scoped()));
            assert_eq!(
                wisdom.complete_constrained(&request, constraint),
                suggestion(&wisdom, &request, &solo(&wisdom, &decode)),
                "{intent:?} {constraint}"
            );
        }
    }
}

#[test]
fn streamed_events_truncate_to_the_final_body() {
    let wisdom = wisdom();
    let server = WisdomServer::bind_with(
        Arc::clone(&wisdom),
        "127.0.0.1:0",
        ServerConfig {
            constraint: Constraint::Ansible,
            speculative: SpeculativeConfig::ngram(8),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.handle();
    let addr = handle.addr();
    let serving = std::thread::spawn(move || server.serve());

    let mut expected_closed = 0.0;
    for request in requests() {
        let body = Json::obj(vec![
            ("prompt", Json::Str(request.prompt.clone())),
            ("context", Json::Str(request.context.clone())),
            ("stream", Json::Bool(true)),
        ])
        .to_text();
        let (status, events) = post_sse(addr, "/v1/completions", &body).expect("stream");
        assert_eq!(status, 200);
        let (last, tokens) = events.split_last().expect("final event");
        let streamed: String = tokens
            .iter()
            .map(|event| {
                let event = parse_json(event).expect("token event");
                event
                    .get("token")
                    .and_then(Json::as_str)
                    .expect("token text")
                    .to_string()
            })
            .collect();
        let last = parse_json(last).expect("final event");
        let completion = last.get("completion").and_then(Json::as_str);
        assert_eq!(
            Some(truncate_first_task(&streamed, request.name_indent()).as_str()),
            completion,
            "{request:?}"
        );
        // And the final event is the in-process suggestion.
        let direct = wisdom.complete_constrained(&request, Constraint::Ansible);
        assert_eq!(completion, Some(direct.body.as_str()));
        assert_eq!(
            last.get("snippet").and_then(Json::as_str),
            Some(direct.snippet.as_str())
        );
        let decode = wisdom.decode_request_constrained(&request, Constraint::Ansible);
        let unscoped = GrammarIndex::build(wisdom.tokenizer(), Constraint::Ansible);
        let full = solo(
            &wisdom,
            &DecodeRequest {
                grammar: unscoped,
                ..decode.clone()
            },
        );
        if solo(&wisdom, &decode).len() < full.len() {
            expected_closed += 1.0;
        }
    }
    let (_, metrics) = get(addr, "/metrics").expect("metrics");
    assert_eq!(
        sample_value(
            &metrics,
            "wisdom_decode_finished_total{reason=\"task_closed\"}"
        ),
        Some(expected_closed),
        "{metrics}"
    );
    handle.stop();
    serving.join().expect("server thread");
}
