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
//! With `ServerConfig::replicas` > 1, completions are spread over a
//! [`ReplicaPool`] by a cache-aware [`Router`]: each replica owns its own
//! decode worker and prefix KV cache, and requests are placed on the
//! replica already holding the longest prefix of their prompt.
//!
//! Connections are keep-alive when the client asks for it
//! (`Connection: keep-alive`), bounded by
//! `ServerConfig::keepalive_max_requests`; legacy read-to-EOF clients that
//! omit the header keep the old close-per-request behavior.

use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use wisdom_core::{
    BatchConfig, BatchScheduler, CompletionRequest, Constraint, Precision, ReplicaTelemetry,
    SchedulerStats, SpeculativeConfig, SubmitError, Suggestion, Wisdom,
};

use crate::http::{
    finish_chunked, read_request_opt, write_sse_event, write_sse_head, Request, Response,
    MAX_BODY_BYTES,
};
use crate::json::{parse_json, Json};
use crate::router::{estimate_retry_after, RoutePolicy, Router, RouterConfig, RouterTelemetry};
use crate::telemetry::{ServerTelemetry, METRICS_CONTENT_TYPE};

/// Server sizing and limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Connection-handler threads (fixed pool; a flood of connections
    /// queues instead of exhausting threads).
    pub worker_threads: usize,
    /// Sequences decoded together by the batch scheduler. `1` disables the
    /// scheduler and decodes directly on the handler thread.
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
    /// Speculative-decoding sizing for greedy requests on the batched path;
    /// disabled by default (`max_draft` 0).
    pub speculative: SpeculativeConfig,
    /// Weight precision this replica serves at ([`Precision::Int8`] packs
    /// the scheduler's model copy to per-block int8 at startup); echoed in
    /// `GET /v1/stats`. Requires the batched path (`max_batch_size` > 1).
    pub precision: Precision,
    /// Default grammar constraint completions decode under; individual
    /// requests override it with a `"constraint"` field. Echoed in
    /// `GET /v1/stats`.
    pub constraint: Constraint,
    /// Independent scheduler replicas behind the router, each with its own
    /// decode worker and prefix KV cache sized by `prefix_cache_bytes`.
    /// Requires the batched path (`max_batch_size` > 1); clamped to ≥ 1.
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
/// worker pool; completions are multiplexed onto a continuous-batching
/// [`BatchScheduler`] (unless `max_batch_size` is 1).
pub struct WisdomServer {
    wisdom: Arc<Wisdom>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
    router: Option<Arc<Router>>,
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
    router: Option<Arc<Router>>,
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
        if let Some(r) = &self.router {
            r.pool().set_admission_paused(paused);
        }
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

    /// Binds with explicit sizing/limits.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind_with(
        wisdom: Arc<Wisdom>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<WisdomServer> {
        Self::bind_with_telemetry(wisdom, addr, config, ServerTelemetry::new())
    }

    /// [`Self::bind_with`] with an explicit [`ServerTelemetry`] (tests
    /// inject one with a capturing logger). The scheduler and its prefix
    /// cache record into the same registry `GET /metrics` renders.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn bind_with_telemetry(
        wisdom: Arc<Wisdom>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        telemetry: ServerTelemetry,
    ) -> std::io::Result<WisdomServer> {
        let mut bundles = Vec::new();
        let router = (config.max_batch_size > 1).then(|| {
            let replicas = config.replicas.max(1);
            bundles = telemetry.replica_bundles(replicas);
            if !config.speculative.enabled() {
                // Match the single-scheduler server: no speculative series
                // movement when speculation is off.
                for bundle in &mut bundles {
                    bundle.speculative = None;
                }
            }
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
            Arc::new(Router::new(
                Arc::new(pool),
                RouterConfig {
                    policy: config.route_policy,
                    ..RouterConfig::default()
                },
                Some(router_telemetry),
            ))
        });
        Ok(WisdomServer {
            wisdom,
            listener: TcpListener::bind(addr)?,
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
            router,
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
            router: self.router.clone(),
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
                let router = router.as_deref();
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
        if let Some(r) = &router {
            r.pool().shutdown();
        }
    }
}

/// Serves one connection: a keep-alive loop when the client asks for it
/// (bounded by `keepalive_max_requests`), one request otherwise. Streaming
/// completions take over the socket (SSE commits the connection to chunked
/// encoding) and always close afterwards.
fn handle_connection(
    wisdom: &Wisdom,
    router: Option<&Router>,
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
                let ready = !forced_unready.load(Ordering::SeqCst)
                    && router.is_none_or(|r| r.pool().worker_ready());
                if wants_streaming(&request) {
                    let status = stream_completion(
                        wisdom,
                        router,
                        config.retry_after_secs,
                        config.constraint,
                        telemetry,
                        conn,
                        &request,
                    );
                    telemetry.observe_request(
                        &request.method,
                        &request.path,
                        status,
                        started.elapsed().as_secs_f64(),
                    );
                    break;
                }
                let keep =
                    wants_keep_alive(&request) && served < config.keepalive_max_requests.max(1);
                let response = respond(
                    wisdom,
                    router,
                    bundles,
                    config,
                    Some(telemetry),
                    ready,
                    &request,
                );
                let _ = response.write_to_with(conn, keep);
                telemetry.observe_request(
                    &request.method,
                    &request.path,
                    response.status,
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

/// Whether this is a completion request with `"stream": true`.
fn wants_streaming(request: &Request) -> bool {
    request.method == "POST"
        && request.path == "/v1/completions"
        && parse_json(&request.body_text())
            .ok()
            .and_then(|p| p.get("stream").and_then(Json::as_bool))
            == Some(true)
}

/// Routes one request for the serving loop: pool-aware completions and
/// stats when a router is present, everything else via [`route_full`].
fn respond(
    wisdom: &Wisdom,
    router: Option<&Router>,
    bundles: &[ReplicaTelemetry],
    config: &ServerConfig,
    telemetry: Option<&ServerTelemetry>,
    ready: bool,
    request: &Request,
) -> Response {
    match (request.method.as_str(), request.path.as_str(), router) {
        ("POST", "/v1/completions", Some(router)) => completions_pooled(
            wisdom,
            router,
            config.retry_after_secs,
            config.constraint,
            request,
        ),
        ("GET", "/v1/stats", Some(router)) => pool_stats(router, bundles, config),
        _ => route_constrained(
            wisdom,
            None,
            config.retry_after_secs,
            config.constraint,
            telemetry,
            ready,
            request,
        ),
    }
}

/// Routes one request on the direct (unbatched) decode path.
pub fn route(wisdom: &Wisdom, request: &Request) -> Response {
    route_with(wisdom, None, 1, request)
}

/// Routes one request; completions go through `scheduler` when given, and a
/// full decode queue answers 503 with `Retry-After: retry_after_secs`.
pub fn route_with(
    wisdom: &Wisdom,
    scheduler: Option<&BatchScheduler>,
    retry_after_secs: u64,
    request: &Request,
) -> Response {
    let ready = scheduler.is_none_or(BatchScheduler::worker_ready);
    route_full(wisdom, scheduler, retry_after_secs, None, ready, request)
}

/// [`route_full`] with a default grammar constraint: completions without a
/// `"constraint"` field decode under `default_constraint` instead of
/// unconstrained.
fn route_constrained(
    wisdom: &Wisdom,
    scheduler: Option<&BatchScheduler>,
    retry_after_secs: u64,
    default_constraint: Constraint,
    telemetry: Option<&ServerTelemetry>,
    ready: bool,
    request: &Request,
) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok"),
        ("GET", "/readyz") => {
            if ready {
                Response::text(200, "ready")
            } else {
                Response::text(503, "decode worker is not ready")
                    .with_header("retry-after", retry_after_secs.to_string())
            }
        }
        ("GET", "/metrics") => match telemetry {
            Some(t) => Response::text(200, t.render()).with_content_type(METRICS_CONTENT_TYPE),
            None => Response::text(404, "metrics are not enabled on this server"),
        },
        ("GET", "/v1/stats") => stats(scheduler, telemetry, default_constraint),
        ("POST", "/v1/completions") => completions(
            wisdom,
            scheduler,
            retry_after_secs,
            default_constraint,
            request,
        ),
        ("POST", "/v1/lint") => lint(request),
        ("POST", _) | ("GET", _) => Response::text(404, "unknown endpoint"),
        _ => Response::text(405, "method not allowed"),
    }
}

/// The full router: [`route_with`] plus the observability surface. With a
/// [`ServerTelemetry`], `GET /metrics` renders the registry and
/// `GET /v1/stats` is served from the same registry handles; `ready` is
/// what `GET /readyz` reports (the caller derives it from the decode
/// worker, so a probe never touches the model or the scheduler lock).
pub fn route_full(
    wisdom: &Wisdom,
    scheduler: Option<&BatchScheduler>,
    retry_after_secs: u64,
    telemetry: Option<&ServerTelemetry>,
    ready: bool,
    request: &Request,
) -> Response {
    route_constrained(
        wisdom,
        scheduler,
        retry_after_secs,
        Constraint::None,
        telemetry,
        ready,
        request,
    )
}

/// Serving/load counters for dashboards and tests: scheduler queue depth
/// and in-flight batch size plus the prefix KV cache's hit/miss/evicted/
/// bytes counters. On the direct (scheduler-less) path everything reads as
/// idle/disabled. With a [`ServerTelemetry`], the numbers come from the
/// same registry handles `GET /metrics` renders (the JSON shape is
/// unchanged); without one, from the scheduler's internal snapshot.
fn stats(
    scheduler: Option<&BatchScheduler>,
    telemetry: Option<&ServerTelemetry>,
    default_constraint: Constraint,
) -> Response {
    let snapshot = match telemetry {
        // The registry handles are the instrumented sites' own updates;
        // reading them back keeps /v1/stats and /metrics telling one story.
        Some(t) => SchedulerStats {
            queue_depth: t.batch.queue_depth.get() as usize,
            in_flight: t.batch.batch_occupancy.get() as usize,
            wakeups: t.batch.wakeups.get(),
            prefix_cache: scheduler
                .is_some_and(|s| s.prefix_cache().is_some())
                .then(|| wisdom_core::PrefixCacheStats {
                    hits: t.prefix_cache.hits.get(),
                    misses: t.prefix_cache.misses.get(),
                    hit_tokens: t.prefix_cache.hit_tokens.get(),
                    evicted_segments: t.prefix_cache.evicted_segments.get(),
                    bytes: t.prefix_cache.bytes.get() as usize,
                    segments: t.prefix_cache.segments.get() as usize,
                    budget_bytes: t.prefix_cache.budget_bytes.get() as usize,
                }),
        },
        None => scheduler.map_or_else(SchedulerStats::default, BatchScheduler::stats),
    };
    let (max_batch_size, queue_capacity) = scheduler.map_or((1, 0), |s| {
        (s.config().max_batch_size, s.config().queue_depth)
    });
    let num = |n: usize| Json::Num(n as f64);
    let count = |n: u64| Json::Num(n as f64);
    let pc = snapshot.prefix_cache.unwrap_or_default();
    // The direct (scheduler-less) path never speculates.
    let spec = scheduler.map_or_else(SpeculativeConfig::disabled, |s| s.config().speculative);
    // The direct path always serves the assistant's own f32 weights.
    let precision = scheduler.map_or(Precision::F32, |s| s.config().precision);
    // The scheduler's configured default constraint wins when one exists
    // (it is what `bind_with` set from the `ServerConfig`).
    let constraint = scheduler.map_or(default_constraint, |s| s.config().constraint);
    let grammar = Json::obj(vec![
        ("constraint", Json::Str(constraint.as_str().to_string())),
        (
            "masked_tokens",
            count(telemetry.map_or(0, |t| t.grammar.masked_tokens.get())),
        ),
        (
            "forced_tokens",
            count(telemetry.map_or(0, |t| t.grammar.forced_fast_path.get())),
        ),
        (
            "states_cached",
            num(telemetry.map_or(0.0, |t| t.grammar.states_cached.get()) as usize),
        ),
    ]);
    let quant = Json::obj(match telemetry {
        Some(t) => vec![
            ("weight_bytes", num(t.quant.weight_bytes.get() as usize)),
            (
                "weight_bytes_saved",
                num(t.quant.weight_bytes_saved.get() as usize),
            ),
            ("matmuls_int8", count(t.quant.matmuls_int8.get())),
            ("matmuls_f32", count(t.quant.matmuls_f32.get())),
        ],
        None => vec![
            ("weight_bytes", num(0)),
            ("weight_bytes_saved", num(0)),
            ("matmuls_int8", count(0)),
            ("matmuls_f32", count(0)),
        ],
    });
    Response::json(
        Json::obj(vec![
            ("queue_depth", num(snapshot.queue_depth)),
            ("in_flight", num(snapshot.in_flight)),
            ("max_batch_size", num(max_batch_size)),
            ("queue_capacity", num(queue_capacity)),
            (
                "prefix_cache",
                Json::obj(vec![
                    ("enabled", Json::Bool(snapshot.prefix_cache.is_some())),
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
                    ("enabled", Json::Bool(spec.enabled())),
                    ("k", num(spec.max_draft)),
                    ("draft", Json::Str(spec.draft_label().to_string())),
                ]),
            ),
            ("precision", Json::Str(precision.as_str().to_string())),
            ("quant", quant),
            ("grammar", grammar),
        ])
        .to_text(),
    )
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

/// Parses the completion payload shared by all decode paths — including
/// the optional `"constraint"` field, resolved against the server's
/// configured default — or the 400 explaining what was wrong with it.
fn parse_completion(
    request: &Request,
    default_constraint: Constraint,
) -> Result<(CompletionRequest, Constraint), Response> {
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
    Ok((CompletionRequest::new(context, prompt), constraint))
}

fn completions(
    wisdom: &Wisdom,
    scheduler: Option<&BatchScheduler>,
    retry_after_secs: u64,
    default_constraint: Constraint,
    request: &Request,
) -> Response {
    let (completion_request, constraint) = match parse_completion(request, default_constraint) {
        Ok(r) => r,
        Err(response) => return response,
    };
    let suggestion = match scheduler {
        Some(s) => {
            match wisdom.try_complete_batched_constrained(&completion_request, s, constraint) {
                Ok(suggestion) => suggestion,
                Err(e @ (SubmitError::QueueFull | SubmitError::ShutDown)) => {
                    let secs = estimate_retry_after(
                        s.stats().queue_depth,
                        s.decode_token_p50(),
                        retry_after_secs,
                        RouterConfig::default().retry_after_max_secs,
                    );
                    return Response::text(503, e.to_string())
                        .with_header("retry-after", secs.to_string());
                }
            }
        }
        None => wisdom.complete_constrained(&completion_request, constraint),
    };
    Response::json(completion_payload(&suggestion).to_text())
}

/// Router-placed completions: submit to the replica the router picks,
/// spill to others on overflow, 503 with an estimated `Retry-After` when
/// every replica is full.
fn completions_pooled(
    wisdom: &Wisdom,
    router: &Router,
    retry_after_fallback: u64,
    default_constraint: Constraint,
    request: &Request,
) -> Response {
    let (completion_request, constraint) = match parse_completion(request, default_constraint) {
        Ok(r) => r,
        Err(response) => return response,
    };
    match router.submit(wisdom.decode_request_constrained(&completion_request, constraint)) {
        Ok(pending) => {
            let suggestion = wisdom.suggestion_from_tokens(&completion_request, &pending.wait());
            Response::json(completion_payload(&suggestion).to_text())
        }
        Err(e) => Response::text(503, e.to_string()).with_header(
            "retry-after",
            router.retry_after_secs(retry_after_fallback).to_string(),
        ),
    }
}

/// Streams a completion as server-sent events, writing directly to the
/// socket: one `{"token": …}` event per decoded token, the exact
/// non-streaming JSON object as the final data event, then `[DONE]`.
/// Returns the status to log. Validation failures are written as ordinary
/// (non-chunked) responses before any SSE bytes commit the stream.
fn stream_completion(
    wisdom: &Wisdom,
    router: Option<&Router>,
    retry_after_fallback: u64,
    default_constraint: Constraint,
    telemetry: &ServerTelemetry,
    conn: &mut TcpStream,
    request: &Request,
) -> u16 {
    let reject = |conn: &mut TcpStream, response: Response| {
        let status = response.status;
        let _ = response.write_to(conn);
        status
    };
    let (completion_request, constraint) = match parse_completion(request, default_constraint) {
        Ok(r) => r,
        Err(response) => return reject(conn, response),
    };
    let Some(router) = router else {
        return reject(
            conn,
            Response::text(
                501,
                "streaming requires the batched scheduler (max_batch_size > 1)",
            ),
        );
    };
    let stream = match router
        .submit_streaming(wisdom.decode_request_constrained(&completion_request, constraint))
    {
        Ok(stream) => stream,
        Err(e) => {
            return reject(
                conn,
                Response::text(503, e.to_string()).with_header(
                    "retry-after",
                    router.retry_after_secs(retry_after_fallback).to_string(),
                ),
            );
        }
    };
    // From here the head has committed the connection to a chunked 200. A
    // failed write means the client hung up: returning drops `stream`, and
    // the token receiver going away is what tells the decode worker to
    // cancel the sequence instead of decoding on for nobody.
    let started = Instant::now();
    if write_sse_head(conn).is_err() {
        return 200;
    }
    let mut previous: Option<Instant> = None;
    for token in stream.tokens.iter() {
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
        if write_sse_event(conn, &event).is_err() {
            return 200;
        }
    }
    let suggestion = wisdom.suggestion_from_tokens(&completion_request, &stream.result.wait());
    let _ = write_sse_event(conn, &completion_payload(&suggestion).to_text());
    let _ = write_sse_event(conn, "[DONE]");
    let _ = finish_chunked(conn);
    200
}

/// `/v1/stats` over a replica pool: the single-scheduler JSON shape with
/// pool-summed values, plus `replica_count` and a per-replica breakdown.
fn pool_stats(router: &Router, bundles: &[ReplicaTelemetry], config: &ServerConfig) -> Response {
    let agg = router.pool().aggregate();
    let num = |n: usize| Json::Num(n as f64);
    let count = |n: u64| Json::Num(n as f64);
    let pc = agg.prefix_cache.unwrap_or_default();
    let quant_bundles = || bundles.iter().filter_map(|b| b.quant.as_ref());
    let grammar_bundles = || bundles.iter().filter_map(|b| b.grammar.as_ref());
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
                        "states_cached",
                        num(grammar_bundles()
                            .map(|g| g.states_cached.get())
                            .sum::<f64>() as usize),
                    ),
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

    fn tiny_wisdom() -> Arc<Wisdom> {
        static WISDOM: OnceLock<Arc<Wisdom>> = OnceLock::new();
        WISDOM
            .get_or_init(|| Arc::new(Wisdom::train(&WisdomConfig::tiny(), None)))
            .clone()
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            headers: HashMap::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn healthz_works() {
        let w = tiny_wisdom();
        let r = route(
            &w,
            &Request {
                method: "GET".to_string(),
                path: "/healthz".to_string(),
                headers: HashMap::new(),
                body: Vec::new(),
            },
        );
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn completions_endpoint_returns_json() {
        let w = tiny_wisdom();
        let r = route(
            &w,
            &post("/v1/completions", r#"{"prompt":"install nginx"}"#),
        );
        assert_eq!(r.status, 200);
        let j = parse_json(&String::from_utf8(r.body).unwrap()).unwrap();
        assert!(j.get("completion").is_some());
        assert!(j.get("schema_correct").and_then(Json::as_bool).is_some());
        let snippet = j.get("snippet").and_then(Json::as_str).unwrap();
        assert!(snippet.starts_with("- name: install nginx"));
    }

    #[test]
    fn lint_endpoint_reports_findings() {
        let w = tiny_wisdom();
        let good = route(
            &w,
            &post(
                "/v1/lint",
                r#"{"content":"- name: ok\n  ansible.builtin.ping: {}\n"}"#,
            ),
        );
        assert_eq!(good.status, 200);
        let j = parse_json(&String::from_utf8(good.body).unwrap()).unwrap();
        assert_eq!(j.get("schema_correct").and_then(Json::as_bool), Some(true));

        let bad = route(
            &w,
            &post(
                "/v1/lint",
                r#"{"content":"- name: bad\n  not_a_module: {}\n"}"#,
            ),
        );
        let j = parse_json(&String::from_utf8(bad.body).unwrap()).unwrap();
        assert_eq!(j.get("schema_correct").and_then(Json::as_bool), Some(false));
        assert!(matches!(j.get("findings"), Some(Json::Arr(items)) if !items.is_empty()));
    }

    #[test]
    fn stats_endpoint_reports_idle_direct_path() {
        let w = tiny_wisdom();
        let r = route(
            &w,
            &Request {
                method: "GET".to_string(),
                path: "/v1/stats".to_string(),
                headers: HashMap::new(),
                body: Vec::new(),
            },
        );
        assert_eq!(r.status, 200);
        let j = parse_json(&String::from_utf8(r.body).unwrap()).unwrap();
        assert_eq!(j.get("queue_depth").and_then(Json::as_f64), Some(0.0));
        assert_eq!(j.get("in_flight").and_then(Json::as_f64), Some(0.0));
        assert_eq!(j.get("max_batch_size").and_then(Json::as_f64), Some(1.0));
        let pc = j.get("prefix_cache").expect("prefix_cache object");
        assert_eq!(pc.get("enabled").and_then(Json::as_bool), Some(false));
        let spec = j.get("speculative").expect("speculative object");
        assert_eq!(spec.get("enabled").and_then(Json::as_bool), Some(false));
        assert_eq!(spec.get("k").and_then(Json::as_f64), Some(0.0));
        assert_eq!(spec.get("draft").and_then(Json::as_str), Some("off"));
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
    fn readyz_reflects_the_ready_flag() {
        let w = tiny_wisdom();
        // The direct path (no scheduler) is ready as soon as it's routable.
        assert_eq!(route(&w, &get("/readyz")).status, 200);
        let not_ready = route_full(&w, None, 2, None, false, &get("/readyz"));
        assert_eq!(not_ready.status, 503);
        assert!(not_ready
            .headers
            .iter()
            .any(|(k, v)| k == "retry-after" && v == "2"));
    }

    #[test]
    fn metrics_renders_exposition_with_telemetry_and_404s_without() {
        let w = tiny_wisdom();
        assert_eq!(route(&w, &get("/metrics")).status, 404);
        let telemetry = ServerTelemetry::with_logger(wisdom_telemetry::Logger::default());
        telemetry.observe_request("GET", "/healthz", 200, 0.001);
        let r = route_full(&w, None, 1, Some(&telemetry), true, &get("/metrics"));
        assert_eq!(r.status, 200);
        assert_eq!(r.content_type, METRICS_CONTENT_TYPE);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("# TYPE wisdom_request_duration_seconds histogram"));
        assert!(body.contains("# TYPE wisdom_ttft_seconds histogram"));
        assert!(body.contains("# TYPE wisdom_queue_wait_seconds histogram"));
        assert!(body.contains("# TYPE wisdom_batch_occupancy gauge"));
        assert!(body.contains("# TYPE wisdom_prefix_cache_hits_total counter"));
    }

    #[test]
    fn stats_from_registry_keeps_the_json_shape() {
        let w = tiny_wisdom();
        let telemetry = ServerTelemetry::with_logger(wisdom_telemetry::Logger::default());
        telemetry.batch.queue_depth.set(3.0);
        telemetry.batch.batch_occupancy.set(2.0);
        let r = route_full(&w, None, 1, Some(&telemetry), true, &get("/v1/stats"));
        assert_eq!(r.status, 200);
        let j = parse_json(&String::from_utf8(r.body).unwrap()).unwrap();
        assert_eq!(j.get("queue_depth").and_then(Json::as_f64), Some(3.0));
        assert_eq!(j.get("in_flight").and_then(Json::as_f64), Some(2.0));
        // Scheduler-less: the prefix cache reads disabled even though the
        // registry has the (idle) family registered.
        let pc = j.get("prefix_cache").expect("prefix_cache object");
        assert_eq!(pc.get("enabled").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn bad_requests_are_rejected() {
        let w = tiny_wisdom();
        assert_eq!(route(&w, &post("/v1/completions", "not json")).status, 400);
        assert_eq!(route(&w, &post("/v1/completions", "{}")).status, 400);
        assert_eq!(route(&w, &post("/nope", "{}")).status, 404);
    }
}
