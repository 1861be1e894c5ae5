//! The two serving workloads: the real `WisdomServer` on a loopback
//! socket, driven by closed-loop clients (an editor waits for its
//! suggestion before the user types on). The host has two cores, so there
//! are never more than two client threads or two open connections.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ansible_wisdom::core::{
    CompletionRequest, Constraint, Precision, SpeculativeConfig, Suggestion, Wisdom,
};
use ansible_wisdom::prng::Prng;
use ansible_wisdom::server::{
    parse_json, Json, RoutePolicy, ServerConfig, ServerHandle, WisdomServer,
};

use crate::client::{post_stream, AckMode, ClientError, KeepAlive};
use crate::fixture::{self, Fixture};
use crate::report::Outcome;
use crate::stats::{median, quantile, share, RssAt};
use crate::workload;

/// Closed-loop clients (= open connections) per serving workload.
pub const CLIENTS: usize = 2;
/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Every `CHECK_EVERY`-th response is compared with the in-process
/// reference, up to `CHECK_CAP` per run.
const CHECK_EVERY: usize = 10;
const CHECK_CAP: usize = 120;
/// Every run serves for this long before its measured window opens, so the
/// window sees the server's steady state: the grammar builds its token
/// masks lazily, per automaton state, and the first hundred requests of a
/// process pay for most of them.
pub const WARM_UP: Duration = Duration::from_secs(3);
/// Upper end of a client's think time before each request, drawn uniformly
/// from the run's seed. Two deterministic closed-loop clients otherwise
/// lock into a phase — always or never decoding side by side on one
/// replica — that a run keeps once it has found it, and that moves every
/// latency quantile of the run by a fifth; a few milliseconds of jitter
/// make each run sample all phases.
const THINK_TIME_MS: f64 = 4.0;
/// Streamed responses additionally compared with the plain HTTP body.
const PLAIN_CHECKS: usize = 8;
/// `peak_rss_mb` is read when this many requests have been served.
const RSS_AT_REQUESTS: usize = 300;

/// ROADMAP's production default, pinned.
pub fn production() -> ServerConfig {
    ServerConfig {
        precision: Precision::Int8,
        speculative: SpeculativeConfig::ngram(8),
        constraint: Constraint::Ansible,
        replicas: 2,
        route_policy: RoutePolicy::PrefixAffinity,
        ..ServerConfig::default()
    }
}

/// A server running on its own thread; dropping it stops the server and
/// waits for its threads.
pub struct Running {
    handle: ServerHandle,
    thread: Option<JoinHandle<()>>,
}

impl Running {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.handle.stop();
        if self.thread.take().is_some_and(|t| t.join().is_err()) {
            eprintln!("server thread panicked");
        }
    }
}

/// Binds `config` on an ephemeral loopback port, serves on a new thread,
/// and returns once `/readyz` answers 200.
pub fn start(wisdom: Arc<Wisdom>, config: ServerConfig) -> Running {
    let server = WisdomServer::bind_with(wisdom, "127.0.0.1:0", config).expect("bind loopback");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve());
    let mut probe = KeepAlive::new(handle.addr());
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if probe.get("/readyz").is_ok_and(|r| r.status == 200) {
            break;
        }
        assert!(Instant::now() < deadline, "server did not become ready");
        std::thread::sleep(Duration::from_millis(1));
    }
    Running {
        handle,
        thread: Some(thread),
    }
}

/// What an operator pays per start: checkpoint load, pool spawn (int8 pack
/// per replica), bind, and warm-up requests (the first one builds the
/// grammar index). Returns the running server and the seconds it took.
pub fn set_up(
    fixture: &Fixture,
    config: ServerConfig,
    streamed: bool,
) -> ((Running, Arc<Wisdom>), f64) {
    let started = Instant::now();
    let wisdom = Arc::new(fixture::load(fixture));
    let running = start(Arc::clone(&wisdom), config);
    // Not drawn from the workload, so warm-up never seeds its prefixes.
    for intent in ["warm the first replica up", "and then the second one"] {
        let request = CompletionRequest::new("", intent);
        let shot = shot(&mut KeepAlive::new(running.addr()), streamed, &request);
        assert!(shot.payload.is_some(), "warm-up request failed");
    }
    ((running, wisdom), started.elapsed().as_secs_f64())
}

/// Runs `set_up` (which returns what it built and how long it took)
/// `repeats` times, dropping each product before building the next; returns
/// the last product and the median time.
pub fn median_set_up<T>(repeats: usize, mut set_up: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..repeats {
        drop(kept.take());
        let (product, seconds) = set_up();
        times.push(seconds);
        kept = Some(product);
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// The traffic of one serving workload.
pub enum Traffic {
    /// `editor_sessions`: streamed; client `c` walks sessions `c`,
    /// `c + CLIENTS`, … in order.
    Editor(Vec<Vec<CompletionRequest>>),
    /// `cold_prompts`: plain keep-alive; request `i` is unique (intents,
    /// number of the first pass over them).
    Cold(Vec<String>, usize),
}

impl Traffic {
    pub fn for_workload(name: &str, seed: u64) -> Traffic {
        let files = workload::galaxy_samples(seed);
        match name {
            "editor_sessions" => Traffic::Editor(workload::editor_sessions(&files)),
            "cold_prompts" => Traffic::Cold(workload::cold_intents(&files), 0),
            other => panic!("{other} is not a serving workload"),
        }
    }

    pub fn streamed(&self) -> bool {
        matches!(self, Traffic::Editor(_))
    }

    /// Traffic of the same kind that shares no request with the head of
    /// this one: sessions from the far end of the list, or the intents
    /// under pass numbers no run reaches. The traced pass warms the server's
    /// lazy state (the grammar's mask cache above all) with it before it
    /// times its slice.
    pub fn warm_up(&self) -> Traffic {
        match self {
            Traffic::Editor(sessions) => Traffic::Editor(sessions.iter().rev().cloned().collect()),
            Traffic::Cold(intents, first_pass) => Traffic::Cold(intents.clone(), first_pass + 500),
        }
    }

    /// The request list client `client` walks, in order. Cold lists are
    /// cut at `limit` (they are endless otherwise).
    pub fn plan(&self, client: usize, limit: usize) -> Vec<CompletionRequest> {
        match self {
            Traffic::Editor(sessions) => sessions
                .iter()
                .skip(client)
                .step_by(CLIENTS)
                .flatten()
                .cloned()
                .collect(),
            Traffic::Cold(intents, first_pass) => (0..limit)
                .map(|step| workload::cold_request(intents, *first_pass, step * CLIENTS + client))
                .collect(),
        }
    }
}

/// One request as its client saw it.
pub struct Shot {
    pub request: CompletionRequest,
    /// When the request was sent, in seconds since its closed loop began
    /// (0 outside a loop).
    pub sent_s: f64,
    /// Request written → full response / `[DONE]`.
    pub latency_ms: f64,
    /// Request written → first `data:` event (streamed) or first response
    /// byte (plain).
    pub ttft_ms: f64,
    /// (last token event − first token event) / (token events − 1).
    pub tpot_ms: Option<f64>,
    /// Token events received (streamed only).
    pub token_events: usize,
    /// The completion JSON object (plain body / final streamed event);
    /// `None` when the request failed.
    pub payload: Option<String>,
}

fn request_body(request: &CompletionRequest, stream: bool) -> String {
    let mut fields = vec![
        ("prompt", Json::Str(request.prompt.clone())),
        ("context", Json::Str(request.context.clone())),
    ];
    if stream {
        fields.push(("stream", Json::Bool(true)));
    }
    Json::obj(fields).to_text()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn failed_shot(request: &CompletionRequest, error: &ClientError) -> Shot {
    eprintln!("request failed: {error}");
    Shot {
        request: request.clone(),
        sent_s: 0.0,
        latency_ms: 0.0,
        ttft_ms: 0.0,
        tpot_ms: None,
        token_events: 0,
        payload: None,
    }
}

/// One completion the way the workload sends it: streamed on a fresh
/// connection (to `connection`'s server, acknowledging like it), or plain
/// on `connection` itself.
pub fn shot(connection: &mut KeepAlive, streamed: bool, request: &CompletionRequest) -> Shot {
    if streamed {
        stream_shot(connection.addr(), request, connection.ack())
    } else {
        plain_shot(connection, request)
    }
}

fn stream_shot(addr: SocketAddr, request: &CompletionRequest, ack: AckMode) -> Shot {
    let response = match post_stream(addr, "/v1/completions", &request_body(request, true), ack) {
        Ok(r) => r,
        Err(e) => return failed_shot(request, &e),
    };
    let n = response.events.len();
    // Token events, then the final object, then `[DONE]`.
    let well_formed = response.status == 200 && n >= 2 && response.events[n - 1].1 == "[DONE]";
    if !well_formed {
        eprintln!(
            "bad streamed response: status {} {}",
            response.status, response.error_body
        );
        return Shot {
            payload: None,
            ..failed_shot(request, &ClientError::Malformed("stream shape"))
        };
    }
    let token_events = n - 2;
    let tpot_ms = (token_events >= 2).then(|| {
        ms(response.events[token_events - 1].0 - response.events[0].0) / (token_events - 1) as f64
    });
    Shot {
        request: request.clone(),
        sent_s: 0.0,
        latency_ms: ms(response.total),
        ttft_ms: ms(response.events[0].0),
        tpot_ms,
        token_events,
        payload: Some(response.events[n - 2].1.clone()),
    }
}

fn plain_shot(connection: &mut KeepAlive, request: &CompletionRequest) -> Shot {
    match connection.post("/v1/completions", &request_body(request, false)) {
        Ok(r) => Shot {
            request: request.clone(),
            sent_s: 0.0,
            latency_ms: ms(r.total),
            ttft_ms: ms(r.first_byte),
            tpot_ms: None,
            token_events: 0,
            payload: (r.status == 200).then_some(r.body),
        },
        Err(e) => failed_shot(request, &e),
    }
}

/// When a closed loop ends.
#[derive(Clone, Copy)]
pub enum Until {
    /// Stop issuing requests after this long (in-flight ones finish).
    Elapsed(Duration),
    /// Each client sends this many requests.
    Requests(usize),
}

/// Runs `CLIENTS` closed-loop clients against `addr`; returns every shot
/// (client 0's first, each in send order) and the wall time.
pub fn closed_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    seed: u64,
    until: Until,
    rss: &RssAt,
) -> (Vec<Vec<Shot>>, f64) {
    // Cold plans are generated up front; 4096 requests per client outlast
    // a 60 s run at ten times the seed commit's speed.
    let limit = match until {
        Until::Requests(n) => n,
        Until::Elapsed(_) => 4096,
    };
    let plans: Vec<Vec<CompletionRequest>> = (0..CLIENTS).map(|c| traffic.plan(c, limit)).collect();
    let streamed = traffic.streamed();
    let started = Instant::now();
    let shots = std::thread::scope(|scope| {
        let clients: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(client, plan)| {
                scope.spawn(move || {
                    let mut think = Prng::seed_from_u64(seed ^ (client as u64 + 1));
                    let mut connection = KeepAlive::new(addr);
                    let mut shots = Vec::new();
                    for step in 0.. {
                        let done = match until {
                            Until::Elapsed(d) => started.elapsed() >= d,
                            Until::Requests(n) => step >= n,
                        };
                        if done {
                            break;
                        }
                        // A list shorter than the run wraps around.
                        let request = &plan[step % plan.len()];
                        std::thread::sleep(Duration::from_secs_f64(
                            think.range_f64(0.0, THINK_TIME_MS) / 1e3,
                        ));
                        let sent_s = started.elapsed().as_secs_f64();
                        let shot = shot(&mut connection, streamed, request);
                        shots.push(Shot { sent_s, ..shot });
                        rss.tick();
                    }
                    shots
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (shots, started.elapsed().as_secs_f64())
}

/// The `/v1/completions` response object for `suggestion`, rendered the way
/// the server renders it (same fields, same JSON writer).
pub fn payload_text(suggestion: &Suggestion) -> String {
    let lint = suggestion
        .lint
        .iter()
        .map(|v| Json::Str(v.to_string()))
        .collect();
    Json::obj(vec![
        ("completion", Json::Str(suggestion.body.clone())),
        ("snippet", Json::Str(suggestion.snippet.clone())),
        ("schema_correct", Json::Bool(suggestion.schema_correct)),
        ("lint", Json::Arr(lint)),
        ("model", Json::Str("wisdom".to_string())),
    ])
    .to_text()
}

/// The in-process oracle for served output: the same assistant with its
/// weights packed the way the pool's replicas pack theirs, decoding solo.
/// Batched, speculative and prefix-cached decode are pinned bit-for-bit to
/// this path, so a served response must equal it byte for byte.
pub fn reference_assistant(wisdom: &Wisdom, precision: Precision) -> Wisdom {
    Wisdom::from_parts(
        *wisdom.config(),
        Arc::clone(wisdom.tokenizer()),
        wisdom.model().clone().with_precision(precision),
    )
}

fn schema_correct(payload: &str) -> Option<bool> {
    parse_json(payload).ok()?.get("schema_correct")?.as_bool()
}

/// Runs one serving workload end to end with tracing off.
pub fn run(name: &str, seed: u64, seconds: u64, fixture: &Fixture) -> Outcome {
    let traffic = Traffic::for_workload(name, seed);
    let ((running, wisdom), setup_s) = median_set_up(SETUP_REPEATS, || {
        set_up(fixture, production(), traffic.streamed())
    });
    let rss = RssAt::new(RSS_AT_REQUESTS);
    let (shots, wall_s) = closed_loop(
        running.addr(),
        &traffic,
        seed,
        Until::Elapsed(WARM_UP + Duration::from_secs(seconds)),
        &rss,
    );
    let wall_s = wall_s - WARM_UP.as_secs_f64();
    let shots: Vec<Shot> = shots
        .into_iter()
        .flatten()
        .filter(|s| s.sent_s >= WARM_UP.as_secs_f64())
        .collect();

    let mut outcome = Outcome {
        attempted: shots.len() as u64,
        ..Outcome::default()
    };
    let served: Vec<&Shot> = shots.iter().filter(|s| s.payload.is_some()).collect();
    outcome.failed += (shots.len() - served.len()) as u64;

    // Output checks, after the timed window.
    let reference = reference_assistant(&wisdom, production().precision);
    let mut plain = KeepAlive::new(running.addr());
    let checked = served.iter().step_by(CHECK_EVERY).take(CHECK_CAP);
    for (i, shot) in checked.enumerate() {
        let payload = shot.payload.as_deref().expect("served");
        let expected = reference.complete_constrained(&shot.request, production().constraint);
        let mut ok = payload == payload_text(&expected);
        if traffic.streamed() && i < PLAIN_CHECKS {
            // The streamed final event must be the plain body.
            ok &= plain_shot(&mut plain, &shot.request).payload.as_deref() == Some(payload);
        }
        if !ok {
            eprintln!("output check failed for prompt {:?}", shot.request.prompt);
            outcome.failed += 1;
        }
    }
    drop((plain, running));

    let latencies: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();
    let accepted = served
        .iter()
        .filter(|s| schema_correct(s.payload.as_deref().expect("served")) == Some(true))
        .count();
    outcome.set("latency_ms_p50", quantile(&latencies, 0.50));
    outcome.set("ops_per_s", served.len() as f64 / wall_s);
    outcome.set(
        "accepted_pct",
        100.0 * share(accepted as f64, served.len() as f64),
    );
    outcome.set("peak_rss_mb", rss.mb());
    outcome.set("setup_s", setup_s);
    outcome
}
