//! The completions REST API: the offline counterpart of the paper's
//! GRPC/REST inference service behind the VS Code plugin.
//!
//! Endpoints:
//!
//! * `POST /v1/completions` with `{"prompt": "...", "context": "..."}` →
//!   `{"completion", "snippet", "schema_correct", "lint", "model"}`;
//! * `GET /v1/stats` → queue depth, in-flight batch size, and prefix-cache
//!   counters as JSON;
//! * `GET /metrics` → the full serving-stack registry in Prometheus text
//!   exposition format;
//! * `GET /healthz` → `ok` (liveness: never touches the model or a lock);
//! * `GET /readyz` → `ready`, or 503 until the decode worker is up.
//!
//! Completions accept `"stream": true` to switch the response to
//! server-sent events over chunked transfer encoding: one `data:` event
//! per decoded token, then a final event carrying the exact JSON object a
//! non-streaming request would have returned, then `data: [DONE]`.
//!
//! Completions also accept `"constraint": "none" | "yaml" | "ansible"` to
//! pick the grammar the decode is masked through per request
//! (unrecognized values get a 400); requests without the field decode
//! under [`ServerConfig::constraint`]. `GET /v1/stats` echoes the default
//! and the pool's grammar counters.
//!
//! Every completion is decoded by a replica pool behind a cache-aware
//! [`Router`] (one replica by default, `ServerConfig::replicas` for more):
//! each replica owns its own decode worker and prefix KV cache, and requests
//! are placed on the replica already holding the longest prefix of their
//! prompt.
//!
//! Connections are keep-alive when the client asks for it
//! (`Connection: keep-alive`), bounded by
//! `ServerConfig::keepalive_max_requests`; legacy read-to-EOF clients that
//! omit the header keep the old close-per-request behavior.

use std::io::Write;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wisdom_core::{
    BatchConfig, CompletionRequest, Constraint, Precision, ReplicaTelemetry, SpeculativeConfig,
    StreamingPending, SubmitError, Suggestion, Wisdom,
};

use crate::http::{
    push_sse_event, read_request_opt, Request, Response, CHUNKED_END, MAX_BODY_BYTES, SSE_HEAD,
};
use crate::json::{parse_json, Json};
use crate::router::{RoutePolicy, Router, RouterConfig, RouterTelemetry};
use crate::telemetry::{ServerTelemetry, METRICS_CONTENT_TYPE};

/// Server sizing and limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Connection-handler threads (fixed pool; a flood of connections
    /// queues instead of exhausting threads).
    pub worker_threads: usize,
    /// Sequences decoded together by each replica's batch scheduler (`1`
    /// is a batch of one on the same path).
    pub max_batch_size: usize,
    /// Bounded decode-queue depth; beyond it, completions get 503.
    pub queue_depth: usize,
    /// Request-body cap in bytes (over it: 413).
    pub max_body_bytes: usize,
    /// Socket read/write timeout per connection.
    pub io_timeout: Duration,
    /// `Retry-After` seconds advertised on 503 responses.
    pub retry_after_secs: u64,
    /// Byte budget for the scheduler's shared prefix KV cache; `0` disables
    /// prompt-prefix reuse across requests.
    pub prefix_cache_bytes: usize,
    /// Speculative-decoding sizing for greedy requests; disabled by default
    /// (`max_draft` 0).
    pub speculative: SpeculativeConfig,
    /// Weight precision this replica serves at ([`Precision::Int8`] packs
    /// the scheduler's model copy to per-block int8 at startup); echoed in
    /// `GET /v1/stats`.
    pub precision: Precision,
    /// Default grammar constraint completions decode under; individual
    /// requests override it with a `"constraint"` field. Echoed in
    /// `GET /v1/stats`.
    pub constraint: Constraint,
    /// Independent scheduler replicas behind the router, each with its own
    /// decode worker and prefix KV cache sized by `prefix_cache_bytes`;
    /// clamped to ≥ 1.
    pub replicas: usize,
    /// How the router places completions over the replicas.
    pub route_policy: RoutePolicy,
    /// Requests served per keep-alive connection before the server answers
    /// with `connection: close` (bounds how long one client can pin a
    /// handler thread).
    pub keepalive_max_requests: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            worker_threads: 8,
            max_batch_size: 8,
            queue_depth: 32,
            max_body_bytes: MAX_BODY_BYTES,
            io_timeout: Duration::from_secs(10),
            retry_after_secs: 1,
            prefix_cache_bytes: 64 << 20,
            speculative: SpeculativeConfig::disabled(),
            precision: Precision::F32,
            constraint: Constraint::None,
            replicas: 1,
            route_policy: RoutePolicy::PrefixAffinity,
            keepalive_max_requests: 32,
        }
    }
}

/// The inference server: owns a trained [`Wisdom`] assistant and serves
/// completion requests over HTTP. Connections are handled by a fixed
/// worker pool; completions are multiplexed onto the continuous-batching
/// schedulers of a replica pool behind a [`Router`].
pub struct WisdomServer {
    wisdom: Arc<Wisdom>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
    router: Arc<Router>,
    /// Per-replica telemetry bundles the pool's schedulers record into;
    /// `/v1/stats` sums quantization gauges across them.
    bundles: Arc<Vec<ReplicaTelemetry>>,
    telemetry: Arc<ServerTelemetry>,
    /// Test hook: while set, `GET /readyz` reports 503 regardless of the
    /// decode worker's actual state.
    forced_unready: Arc<AtomicBool>,
}

/// Handle for stopping a running server from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    router: Arc<Router>,
    telemetry: Arc<ServerTelemetry>,
    forced_unready: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Asks the serving loop to stop (takes effect on the next connection).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop.
        let _ = std::net::TcpStream::connect(self.addr);
    }

    /// The server's metric registry and access log.
    pub fn telemetry(&self) -> &ServerTelemetry {
        &self.telemetry
    }

    /// Test hook: pause/resume admission from the decode queue into the
    /// running batch, making queue-overflow (503) behavior deterministic.
    #[doc(hidden)]
    pub fn set_admission_paused(&self, paused: bool) {
        self.router.pool().set_admission_paused(paused);
    }

    /// Test hook: force `GET /readyz` to 503 (`false`) or restore normal
    /// worker-derived readiness (`true`).
    #[doc(hidden)]
    pub fn set_ready(&self, ready: bool) {
        self.forced_unready.store(!ready, Ordering::SeqCst);
    }
}

impl WisdomServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) with default
    /// [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind(wisdom: Arc<Wisdom>, addr: impl ToSocketAddrs) -> std::io::Result<WisdomServer> {
        Self::bind_with(wisdom, addr, ServerConfig::default())
    }

    /// Binds with explicit sizing/limits. The scheduler and its prefix
    /// cache record into the same registry `GET /metrics` renders.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind_with(
        wisdom: Arc<Wisdom>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<WisdomServer> {
        let telemetry = ServerTelemetry::new();
        let (router, bundles) = build_router(&wisdom, &config, &telemetry);
        Ok(WisdomServer {
            wisdom,
            listener: TcpListener::bind(addr)?,
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
            router: Arc::new(router),
            bundles: Arc::new(bundles),
            telemetry: Arc::new(telemetry),
            forced_unready: Arc::new(AtomicBool::new(false)),
        })
    }

    /// A handle for stopping the server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.listener.local_addr().expect("bound listener"),
            shutdown: Arc::clone(&self.shutdown),
            router: Arc::clone(&self.router),
            telemetry: Arc::clone(&self.telemetry),
            forced_unready: Arc::clone(&self.forced_unready),
        }
    }

    /// Serves until [`ServerHandle::stop`] is called. Connections are
    /// dispatched to a fixed pool of `worker_threads` handlers; in-flight
    /// requests finish before `serve` returns.
    pub fn serve(self) {
        let WisdomServer {
            wisdom,
            listener,
            shutdown,
            config,
            router,
            bundles,
            telemetry,
            forced_unready,
        } = self;
        let workers = config.worker_threads.max(1);
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = Arc::clone(&rx);
                let wisdom = &wisdom;
                let router = &router;
                let bundles = &bundles;
                let telemetry = &telemetry;
                let forced_unready = &forced_unready;
                scope.spawn(move || loop {
                    // Hold the receiver lock only while dequeuing.
                    let conn = rx.lock().expect("worker queue lock").recv();
                    let Ok(mut conn) = conn else { break };
                    handle_connection(
                        wisdom,
                        router,
                        bundles,
                        &config,
                        telemetry,
                        forced_unready,
                        &mut conn,
                    );
                });
            }
            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                // Responses leave in whole pieces (see `http`), so there is
                // nothing for Nagle to coalesce — only SSE events to delay.
                let _ = conn.set_nodelay(true);
                let _ = tx.send(conn);
            }
            // Disconnect the channel: workers drain queued connections and
            // exit, then the scope joins them.
            drop(tx);
        });
        router.pool().shutdown();
    }
}

/// The replica pool `config` describes, spawned over `wisdom`'s model and
/// recording into `telemetry`'s registry, behind its router; with the
/// per-replica bundles the pool records into.
fn build_router(
    wisdom: &Wisdom,
    config: &ServerConfig,
    telemetry: &ServerTelemetry,
) -> (Router, Vec<ReplicaTelemetry>) {
    let replicas = config.replicas.max(1);
    let bundles = telemetry.replica_bundles(replicas);
    let pool = wisdom.replica_pool(
        BatchConfig {
            max_batch_size: config.max_batch_size,
            queue_depth: config.queue_depth,
            prefix_cache_bytes: config.prefix_cache_bytes,
            speculative: config.speculative,
            precision: config.precision,
            constraint: config.constraint,
        },
        replicas,
        &bundles,
    );
    let label = match config.route_policy {
        RoutePolicy::PrefixAffinity => "prefix_affinity",
        RoutePolicy::RoundRobin => "round_robin",
        RoutePolicy::Rendezvous => "rendezvous",
    };
    let router_telemetry = RouterTelemetry::register(telemetry.registry(), label);
    let router = Router::new(
        Arc::new(pool),
        RouterConfig {
            policy: config.route_policy,
            ..RouterConfig::default()
        },
        Some(router_telemetry),
    );
    (router, bundles)
}

/// Serves one connection: a keep-alive loop when the client asks for it
/// (bounded by `keepalive_max_requests`), one request otherwise. Streaming
/// completions take over the socket (SSE commits the connection to chunked
/// encoding) and always close afterwards.
fn handle_connection(
    wisdom: &Wisdom,
    router: &Router,
    bundles: &[ReplicaTelemetry],
    config: &ServerConfig,
    telemetry: &ServerTelemetry,
    forced_unready: &AtomicBool,
    conn: &mut TcpStream,
) {
    let _ = conn.set_read_timeout(Some(config.io_timeout));
    let _ = conn.set_write_timeout(Some(config.io_timeout));
    let mut served = 0usize;
    loop {
        let started = Instant::now();
        match read_request_opt(conn, config.max_body_bytes) {
            // Clean EOF between requests: the client is done.
            Ok(None) => break,
            Ok(Some(request)) => {
                served += 1;
                let ready = !forced_unready.load(Ordering::SeqCst) && router.pool().worker_ready();
                let reply = respond(wisdom, router, bundles, config, telemetry, ready, &request);
                let (status, keep) = match reply {
                    Reply::Whole(response) => {
                        let keep = wants_keep_alive(&request)
                            && served < config.keepalive_max_requests.max(1);
                        let _ = response.write_to_with(conn, keep);
                        (response.status, keep)
                    }
                    Reply::Stream(completion, stream) => {
                        forward_stream(wisdom, telemetry, conn, &completion, stream);
                        (200, false)
                    }
                };
                telemetry.observe_request(
                    &request.method,
                    &request.path,
                    status,
                    started.elapsed().as_secs_f64(),
                );
                if !keep {
                    break;
                }
            }
            Err(e) => {
                let response = Response::text(e.status, e.to_string());
                let _ = response.write_to(conn);
                // No parsed path to attribute: folds into the "other" route.
                telemetry.observe_request("-", "-", e.status, started.elapsed().as_secs_f64());
                telemetry.logger.info(
                    "http",
                    &[("error", &e.to_string()), ("status", &e.status.to_string())],
                );
                break;
            }
        }
    }
}

/// Whether the client explicitly asked to reuse the connection. Absent
/// header means close — the pre-keep-alive clients read bodies to EOF and
/// would hang on a held-open socket.
fn wants_keep_alive(request: &Request) -> bool {
    request
        .headers
        .get("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
}

/// What a request is answered with.
enum Reply {
    /// An ordinary content-length framed response.
    Whole(Response),
    /// An accepted `"stream": true` completion: the decode is in flight and
    /// its tokens are forwarded as server-sent events.
    Stream(CompletionRequest, StreamingPending),
}

/// Routes one request — the server's one way of answering. `ready` is what
/// `GET /readyz` reports (the caller derives it from the decode workers, so
/// a probe never touches the model or a scheduler lock).
fn respond(
    wisdom: &Wisdom,
    router: &Router,
    bundles: &[ReplicaTelemetry],
    config: &ServerConfig,
    telemetry: &ServerTelemetry,
    ready: bool,
    request: &Request,
) -> Reply {
    Reply::Whole(match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok"),
        ("GET", "/readyz") => {
            if ready {
                Response::text(200, "ready")
            } else {
                Response::text(503, "decode worker is not ready")
                    .with_header("retry-after", config.retry_after_secs.to_string())
            }
        }
        ("GET", "/metrics") => {
            Response::text(200, telemetry.render()).with_content_type(METRICS_CONTENT_TYPE)
        }
        ("GET", "/v1/stats") => stats(wisdom, router, bundles, config),
        ("POST", "/v1/completions") => return completions(wisdom, router, config, request),
        ("POST", "/v1/lint") => lint(request),
        ("POST", _) | ("GET", _) => Response::text(404, "unknown endpoint"),
        _ => Response::text(405, "method not allowed"),
    })
}

/// Lint-as-a-service: `{"content": "<yaml>"}` → schema findings. The same
/// strict checker that gates suggestions, exposed for editor integrations.
fn lint(request: &Request) -> Response {
    let payload = match parse_json(&request.body_text()) {
        Ok(p) => p,
        Err(e) => return Response::text(400, e.to_string()),
    };
    let Some(content) = payload.get("content").and_then(Json::as_str) else {
        return Response::text(400, "missing required field 'content'");
    };
    let violations = wisdom_core::lint_document(content);
    let findings = violations
        .iter()
        .map(|v| Json::Str(v.to_string()))
        .collect();
    Response::json(
        Json::obj(vec![
            ("schema_correct", Json::Bool(violations.is_empty())),
            ("findings", Json::Arr(findings)),
        ])
        .to_text(),
    )
}

/// The `/v1/completions` response object. Shared by the non-streaming
/// response body and the final SSE event, which is what makes streamed and
/// non-streamed responses byte-identical.
fn completion_payload(suggestion: &Suggestion) -> Json {
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
}

/// A parsed `POST /v1/completions` body.
struct CompletionCall {
    request: CompletionRequest,
    /// The optional `"constraint"` field, resolved against the server's
    /// configured default.
    constraint: Constraint,
    /// Whether the client asked for server-sent events (`"stream": true`).
    stream: bool,
}

/// Parses a completion body (once per request), or the 400 explaining what
/// was wrong with it.
fn parse_completion(
    request: &Request,
    default_constraint: Constraint,
) -> Result<CompletionCall, Response> {
    let payload =
        parse_json(&request.body_text()).map_err(|e| Response::text(400, e.to_string()))?;
    let Some(prompt) = payload.get("prompt").and_then(Json::as_str) else {
        return Err(Response::text(400, "missing required field 'prompt'"));
    };
    let context = payload.get("context").and_then(Json::as_str).unwrap_or("");
    let constraint = match payload.get("constraint") {
        None => default_constraint,
        Some(json) => {
            let Some(name) = json.as_str() else {
                return Err(Response::text(400, "field 'constraint' must be a string"));
            };
            name.parse::<Constraint>()
                .map_err(|e| Response::text(400, e))?
        }
    };
    Ok(CompletionCall {
        request: CompletionRequest::new(context, prompt),
        constraint,
        stream: payload.get("stream").and_then(Json::as_bool) == Some(true),
    })
}

/// Router-placed completions: submit to the replica the router picks,
/// spill to others on overflow, 503 with an estimated `Retry-After` when
/// every replica is full. A plain request blocks for the suggestion; a
/// streaming one returns as soon as it is queued. Validation failures and
/// sheds are ordinary responses either way — no SSE byte has committed the
/// connection yet.
fn completions(
    wisdom: &Wisdom,
    router: &Router,
    config: &ServerConfig,
    request: &Request,
) -> Reply {
    let call = match parse_completion(request, config.constraint) {
        Ok(call) => call,
        Err(response) => return Reply::Whole(response),
    };
    let decode = wisdom.decode_request_constrained(&call.request, call.constraint);
    let shed = |e: SubmitError| {
        Reply::Whole(Response::text(503, e.to_string()).with_header(
            "retry-after",
            router.retry_after_secs(config.retry_after_secs).to_string(),
        ))
    };
    if call.stream {
        return match router.submit_streaming(decode) {
            Ok(stream) => Reply::Stream(call.request, stream),
            Err(e) => shed(e),
        };
    }
    match router.submit(decode) {
        Ok(pending) => {
            let suggestion = wisdom.suggestion_from_tokens(&call.request, &pending.wait());
            Reply::Whole(Response::json(completion_payload(&suggestion).to_text()))
        }
        Err(e) => shed(e),
    }
}

/// Forwards an accepted streaming completion as server-sent events, writing
/// directly to the socket: one `{"token": …}` event per decoded token, the
/// exact non-streaming JSON object as the final data event, then `[DONE]`.
///
/// Writes leave in bursts: every wake drains the token channel and sends
/// what it found in one write — the response head with the first of them,
/// the final object, `[DONE]` and the terminating chunk with the last — so
/// a forced run the engine emitted in one round costs one write, not one
/// per token. The bytes are those of one write per event: each event is
/// still an HTTP chunk of its own.
///
/// The first write commits the connection to a chunked 200. A failed write
/// means the client hung up: returning drops `stream`, and the token
/// receiver going away is what tells the decode worker to cancel the
/// sequence instead of decoding on for nobody.
fn forward_stream(
    wisdom: &Wisdom,
    telemetry: &ServerTelemetry,
    conn: &mut impl Write,
    completion: &CompletionRequest,
    stream: StreamingPending,
) {
    let started = Instant::now();
    let mut wire = SSE_HEAD.to_vec();
    // Events appended to `wire` since the last write.
    let mut unsent = 0usize;
    let mut previous: Option<Instant> = None;
    loop {
        let token = match stream.tokens.try_recv() {
            Ok(token) => token,
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                if unsent > 0 {
                    if conn.write_all(&wire).and_then(|()| conn.flush()).is_err() {
                        return;
                    }
                    wire.clear();
                    unsent = 0;
                }
                match stream.tokens.recv() {
                    Ok(token) => token,
                    Err(_) => break,
                }
            }
        };
        let now = Instant::now();
        match previous {
            None => telemetry
                .stream_ttft
                .observe(started.elapsed().as_secs_f64()),
            Some(p) => telemetry
                .stream_token
                .observe(now.duration_since(p).as_secs_f64()),
        }
        previous = Some(now);
        let event = Json::obj(vec![("token", Json::Str(wisdom.token_text(token)))]).to_text();
        push_sse_event(&mut wire, &event);
        unsent += 1;
    }
    let suggestion = wisdom.suggestion_from_tokens(completion, &stream.result.wait());
    push_sse_event(&mut wire, &completion_payload(&suggestion).to_text());
    push_sse_event(&mut wire, "[DONE]");
    wire.extend_from_slice(CHUNKED_END);
    let _ = conn.write_all(&wire).and_then(|()| conn.flush());
}

/// `/v1/stats`: serving/load counters for dashboards and tests — queue
/// depth, in-flight batch size and the prefix KV cache's counters summed
/// over the pool, the configured speculation (with how often its break-even
/// gate let a verify pass run and how often it closed) / precision /
/// constraint with their counters, plus `replica_count` and a per-replica
/// breakdown.
fn stats(
    wisdom: &Wisdom,
    router: &Router,
    bundles: &[ReplicaTelemetry],
    config: &ServerConfig,
) -> Response {
    let agg = router.pool().aggregate();
    // The mask caches are the process's, shared by every replica: read
    // them, do not sum the replicas' gauges of them.
    let index = wisdom.grammar_stats();
    let num = |n: usize| Json::Num(n as f64);
    let count = |n: u64| Json::Num(n as f64);
    let pc = agg.prefix_cache.unwrap_or_default();
    let quant_bundles = || bundles.iter().filter_map(|b| b.quant.as_ref());
    let grammar_bundles = || bundles.iter().filter_map(|b| b.grammar.as_ref());
    let speculative_bundles = || bundles.iter().filter_map(|b| b.speculative.as_ref());
    let replicas = agg
        .replicas
        .iter()
        .map(|s| {
            let rpc = s.prefix_cache.unwrap_or_default();
            Json::obj(vec![
                ("queue_depth", num(s.queue_depth)),
                ("in_flight", num(s.in_flight)),
                ("wakeups", count(s.wakeups)),
                ("prefix_cache_hits", count(rpc.hits)),
                ("prefix_cache_bytes", num(rpc.bytes)),
            ])
        })
        .collect();
    Response::json(
        Json::obj(vec![
            ("queue_depth", num(agg.queue_depth)),
            ("in_flight", num(agg.in_flight)),
            ("max_batch_size", num(config.max_batch_size)),
            ("queue_capacity", num(config.queue_depth)),
            (
                "prefix_cache",
                Json::obj(vec![
                    ("enabled", Json::Bool(agg.prefix_cache.is_some())),
                    ("hits", count(pc.hits)),
                    ("misses", count(pc.misses)),
                    ("hit_tokens", count(pc.hit_tokens)),
                    ("evicted_segments", count(pc.evicted_segments)),
                    ("bytes", num(pc.bytes)),
                    ("segments", num(pc.segments)),
                    ("budget_bytes", num(pc.budget_bytes)),
                ]),
            ),
            (
                "speculative",
                Json::obj(vec![
                    ("enabled", Json::Bool(config.speculative.enabled())),
                    ("k", num(config.speculative.max_draft)),
                    (
                        "draft",
                        Json::Str(config.speculative.draft_label().to_string()),
                    ),
                    (
                        "verify_passes",
                        count(speculative_bundles().map(|s| s.verify_passes.get()).sum()),
                    ),
                    (
                        "gate_closed",
                        count(speculative_bundles().map(|s| s.gate_closed.get()).sum()),
                    ),
                ]),
            ),
            (
                "precision",
                Json::Str(config.precision.as_str().to_string()),
            ),
            (
                "quant",
                Json::obj(vec![
                    (
                        "weight_bytes",
                        num(quant_bundles().map(|q| q.weight_bytes.get()).sum::<f64>() as usize),
                    ),
                    (
                        "weight_bytes_saved",
                        num(quant_bundles()
                            .map(|q| q.weight_bytes_saved.get())
                            .sum::<f64>() as usize),
                    ),
                    (
                        "matmuls_int8",
                        count(quant_bundles().map(|q| q.matmuls_int8.get()).sum()),
                    ),
                    (
                        "matmuls_f32",
                        count(quant_bundles().map(|q| q.matmuls_f32.get()).sum()),
                    ),
                ]),
            ),
            (
                "grammar",
                Json::obj(vec![
                    (
                        "constraint",
                        Json::Str(config.constraint.as_str().to_string()),
                    ),
                    (
                        "masked_tokens",
                        count(grammar_bundles().map(|g| g.masked_tokens.get()).sum()),
                    ),
                    (
                        "forced_tokens",
                        count(grammar_bundles().map(|g| g.forced_fast_path.get()).sum()),
                    ),
                    (
                        "fused_tokens",
                        count(grammar_bundles().map(|g| g.fused_tokens.get()).sum()),
                    ),
                    ("states_cached", count(index.states_cached)),
                    ("mask_builds", count(index.mask_builds)),
                    ("cache_hits", count(index.cache_hits)),
                    ("derived_masks", count(index.derived_masks)),
                    ("generations_dropped", count(index.generations_dropped)),
                ]),
            ),
            ("replica_count", num(router.pool().len())),
            ("replicas", Json::Arr(replicas)),
        ])
        .to_text(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::OnceLock;
    use wisdom_core::WisdomConfig;

    /// A tiny assistant behind a one-replica pool, as `bind_with` builds it.
    struct Fixture {
        wisdom: Wisdom,
        router: Router,
        bundles: Vec<ReplicaTelemetry>,
        config: ServerConfig,
        telemetry: ServerTelemetry,
    }

    fn fixture() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let wisdom = Wisdom::train(&WisdomConfig::tiny(), None);
            let config = ServerConfig {
                retry_after_secs: 2,
                ..ServerConfig::default()
            };
            let telemetry = ServerTelemetry::with_logger(wisdom_telemetry::Logger::default());
            let (router, bundles) = build_router(&wisdom, &config, &telemetry);
            Fixture {
                wisdom,
                router,
                bundles,
                config,
                telemetry,
            }
        })
    }

    fn route_ready(ready: bool, request: &Request) -> Response {
        let f = fixture();
        let reply = respond(
            &f.wisdom,
            &f.router,
            &f.bundles,
            &f.config,
            &f.telemetry,
            ready,
            request,
        );
        match reply {
            Reply::Whole(response) => response,
            Reply::Stream(..) => panic!("no test here asks for a stream"),
        }
    }

    fn route(request: &Request) -> Response {
        route_ready(true, request)
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: HashMap::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            headers: HashMap::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn healthz_works() {
        let r = route(&get("/healthz"));
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn completions_endpoint_returns_json() {
        let r = route(&post("/v1/completions", r#"{"prompt":"install nginx"}"#));
        assert_eq!(r.status, 200);
        let j = parse_json(&String::from_utf8(r.body).unwrap()).unwrap();
        assert!(j.get("completion").is_some());
        assert!(j.get("schema_correct").and_then(Json::as_bool).is_some());
        let snippet = j.get("snippet").and_then(Json::as_str).unwrap();
        assert!(snippet.starts_with("- name: install nginx"));
    }

    #[test]
    fn lint_endpoint_reports_findings() {
        let good = route(&post(
            "/v1/lint",
            r#"{"content":"- name: ok\n  ansible.builtin.ping: {}\n"}"#,
        ));
        assert_eq!(good.status, 200);
        let j = parse_json(&String::from_utf8(good.body).unwrap()).unwrap();
        assert_eq!(j.get("schema_correct").and_then(Json::as_bool), Some(true));

        let bad = route(&post(
            "/v1/lint",
            r#"{"content":"- name: bad\n  not_a_module: {}\n"}"#,
        ));
        let j = parse_json(&String::from_utf8(bad.body).unwrap()).unwrap();
        assert_eq!(j.get("schema_correct").and_then(Json::as_bool), Some(false));
        assert!(matches!(j.get("findings"), Some(Json::Arr(items)) if !items.is_empty()));
    }

    #[test]
    fn readyz_reflects_the_ready_flag() {
        assert_eq!(route(&get("/readyz")).status, 200);
        let not_ready = route_ready(false, &get("/readyz"));
        assert_eq!(not_ready.status, 503);
        assert!(not_ready
            .headers
            .iter()
            .any(|(k, v)| k == "retry-after" && v == "2"));
    }

    #[test]
    fn metrics_renders_exposition() {
        fixture()
            .telemetry
            .observe_request("GET", "/healthz", 200, 0.001);
        let r = route(&get("/metrics"));
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, METRICS_CONTENT_TYPE);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("# TYPE wisdom_request_duration_seconds histogram"));
        assert!(body.contains("# TYPE wisdom_ttft_seconds histogram"));
        assert!(body.contains("# TYPE wisdom_queue_wait_seconds histogram"));
        assert!(body.contains("# TYPE wisdom_batch_occupancy gauge"));
        assert!(body.contains("# TYPE wisdom_prefix_cache_hits_total counter"));
    }

    /// Keeps the bytes of each `write` call apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn burst_writes_carry_the_bytes_of_one_write_per_event() {
        use crate::http::{finish_chunked, write_sse_event, write_sse_head};

        let f = fixture();
        let request = CompletionRequest::new("", "install nginx");
        // Constrained, so the stream has a forced run in it: several
        // tokens leaving one decode round.
        let submit = || {
            let decode = f
                .wisdom
                .decode_request_constrained(&request, Constraint::Ansible);
            f.router.submit_streaming(decode).expect("queue has room")
        };
        let forward = |stream: StreamingPending| {
            let mut writes = Writes::default();
            forward_stream(&f.wisdom, &f.telemetry, &mut writes, &request, stream);
            writes.0
        };

        // The reference: head, every event and the end in a write each.
        let stream = submit();
        let tokens: Vec<u32> = stream.tokens.iter().collect();
        let suggestion = f
            .wisdom
            .suggestion_from_tokens(&request, &stream.result.wait());
        let mut reference = Vec::new();
        write_sse_head(&mut reference).unwrap();
        for &token in &tokens {
            let event = Json::obj(vec![("token", Json::Str(f.wisdom.token_text(token)))]);
            write_sse_event(&mut reference, &event.to_text()).unwrap();
        }
        write_sse_event(&mut reference, &completion_payload(&suggestion).to_text()).unwrap();
        write_sse_event(&mut reference, "[DONE]").unwrap();
        finish_chunked(&mut reference).unwrap();
        let grammar = f.bundles[0].grammar.as_ref().expect("grammar telemetry");
        assert!(
            grammar.fused_tokens.get() > 0,
            "no forced run in the stream"
        );

        // Decoded to the end before forwarding starts: the channel holds
        // every token and has hung up, so the whole response is one write.
        let stream = submit();
        while f.router.pool().replica(0).load() > 0 {
            std::thread::yield_now();
        }
        let writes = forward(stream);
        assert_eq!(writes.len(), 1);
        assert_eq!(writes.concat(), reference);

        // Forwarded while it decodes: however the wakes fall, the same
        // bytes, every write ending on a chunk boundary, never more writes
        // than one per token plus the closing one.
        let writes = forward(submit());
        assert_eq!(writes.concat(), reference);
        assert!(writes.iter().all(|w| w.ends_with(b"\r\n")));
        assert!(writes.len() <= tokens.len() + 1, "{} writes", writes.len());
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert_eq!(route(&post("/v1/completions", "not json")).status, 400);
        assert_eq!(route(&post("/v1/completions", "{}")).status, 400);
        assert_eq!(route(&post("/nope", "{}")).status, 404);
        assert_eq!(route(&get("/nope")).status, 404);
        let delete = Request {
            method: "DELETE".to_string(),
            ..get("/v1/completions")
        };
        assert_eq!(route(&delete).status, 405);
    }
}
