//! Full-socket integration test of the inference service: trains a tiny
//! assistant, serves it over HTTP, and drives it like the editor plugin.

use std::sync::{Arc, OnceLock};

use ansible_wisdom::core::{Wisdom, WisdomConfig};
use ansible_wisdom::server::{
    get, parse_json, post, post_raw, request_completion, Json, ServerConfig, WisdomServer,
};

fn tiny_wisdom() -> Arc<Wisdom> {
    static WISDOM: OnceLock<Arc<Wisdom>> = OnceLock::new();
    Arc::clone(WISDOM.get_or_init(|| Arc::new(Wisdom::train(&WisdomConfig::tiny(), None))))
}

fn spawn_server_with(
    config: ServerConfig,
) -> (ansible_wisdom::server::ServerHandle, std::net::SocketAddr) {
    let server = WisdomServer::bind_with(tiny_wisdom(), "127.0.0.1:0", config).expect("bind");
    let handle = server.handle();
    let addr = handle.addr();
    std::thread::spawn(move || server.serve());
    (handle, addr)
}

fn spawn_server() -> (ansible_wisdom::server::ServerHandle, std::net::SocketAddr) {
    spawn_server_with(ServerConfig::default())
}

#[test]
fn completion_round_trip_over_http() {
    let (handle, addr) = spawn_server();

    // Health check.
    let (status, body) = post(addr, "/healthz-wrong", "{}").expect("post");
    assert_eq!(status, 404, "{body}");

    // A real completion request.
    let response = request_completion(addr, "", "install nginx").expect("completion");
    assert!(
        response.snippet.starts_with("- name: install nginx"),
        "{}",
        response.snippet
    );
    // Body and snippet agree.
    assert!(response.snippet.ends_with(&response.completion) || response.completion.is_empty());

    // With playbook context, the suggestion is nested.
    let response = request_completion(addr, "---\n- hosts: web\n  tasks:\n", "start nginx service")
        .expect("completion");
    assert!(
        response
            .snippet
            .starts_with("    - name: start nginx service"),
        "{}",
        response.snippet
    );

    // Malformed request is a 400, not a crash.
    let (status, _) = post(addr, "/v1/completions", "{\"nope\":1}").expect("post");
    assert_eq!(status, 400);
    let (status, _) = post(addr, "/v1/completions", "garbage").expect("post");
    assert_eq!(status, 400);

    // Concurrent requests are served.
    let mut threads = Vec::new();
    for i in 0..4 {
        threads.push(std::thread::spawn(move || {
            request_completion(addr, "", &format!("create user number{i}")).expect("completion")
        }));
    }
    for t in threads {
        let r = t.join().expect("thread");
        assert!(r.snippet.starts_with("- name: create user"));
    }

    handle.stop();
}

#[test]
fn concurrent_load_is_batched_and_deterministic() {
    // ≥8 parallel clients through the continuous-batching scheduler: every
    // request gets the completion the direct (unbatched) path would return.
    let (handle, addr) = spawn_server_with(ServerConfig {
        worker_threads: 12,
        max_batch_size: 4,
        queue_depth: 32,
        ..ServerConfig::default()
    });
    let wisdom = tiny_wisdom();
    let mut threads = Vec::new();
    for i in 0..10 {
        threads.push(std::thread::spawn(move || {
            let prompt = format!("install package number{i}");
            (
                prompt.clone(),
                request_completion(addr, "", &prompt).expect("completion"),
            )
        }));
    }
    for t in threads {
        let (prompt, got) = t.join().expect("client thread");
        let direct = wisdom.complete_task("", &prompt);
        assert_eq!(got.snippet, direct.snippet, "prompt {prompt:?}");
        assert_eq!(got.completion, direct.body, "prompt {prompt:?}");
    }
    handle.stop();
}

#[test]
fn stats_endpoint_reports_prefix_cache_hits() {
    // Two identical completions through the batched path share their whole
    // prompt window, so the second must hit the radix prefix cache — and
    // /v1/stats must say so.
    let (handle, addr) = spawn_server_with(ServerConfig {
        worker_threads: 4,
        max_batch_size: 4,
        queue_depth: 16,
        ..ServerConfig::default()
    });
    for _ in 0..2 {
        request_completion(addr, "", "install nginx").expect("completion");
    }
    let (status, body) = get(addr, "/v1/stats").expect("get stats");
    assert_eq!(status, 200, "{body}");
    let j = parse_json(&body).expect("stats json");
    assert_eq!(j.get("queue_depth").and_then(Json::as_f64), Some(0.0));
    assert_eq!(j.get("max_batch_size").and_then(Json::as_f64), Some(4.0));
    let pc = j.get("prefix_cache").expect("prefix_cache object");
    assert_eq!(pc.get("enabled").and_then(Json::as_bool), Some(true));
    let hits = pc.get("hits").and_then(Json::as_f64).expect("hits");
    assert!(
        hits >= 1.0,
        "repeat prompt must hit the prefix cache: {body}"
    );
    let bytes = pc.get("bytes").and_then(Json::as_f64).expect("bytes");
    let budget = pc
        .get("budget_bytes")
        .and_then(Json::as_f64)
        .expect("budget");
    assert!(bytes <= budget, "cache over budget: {body}");
    handle.stop();
}

#[test]
fn stats_endpoint_reports_speculation_config() {
    use ansible_wisdom::core::SpeculativeConfig;

    // Speculation off (the default): /v1/stats still carries the object.
    let (handle, addr) = spawn_server();
    let (status, body) = get(addr, "/v1/stats").expect("get stats");
    assert_eq!(status, 200, "{body}");
    let j = parse_json(&body).expect("stats json");
    let spec = j.get("speculative").expect("speculative object");
    assert_eq!(spec.get("enabled").and_then(Json::as_bool), Some(false));
    assert_eq!(spec.get("k").and_then(Json::as_f64), Some(0.0));
    assert_eq!(spec.get("draft").and_then(Json::as_str), Some("off"));
    handle.stop();

    // Speculation on: config echoed back, and completions through the
    // speculating scheduler stay identical to the direct path.
    let (handle, addr) = spawn_server_with(ServerConfig {
        worker_threads: 4,
        max_batch_size: 4,
        queue_depth: 16,
        speculative: SpeculativeConfig::ngram(4),
        ..ServerConfig::default()
    });
    let wisdom = tiny_wisdom();
    for prompt in ["install nginx", "install nginx", "start nginx service"] {
        let got = request_completion(addr, "", prompt).expect("completion");
        assert_eq!(got.snippet, wisdom.complete_task("", prompt).snippet);
    }
    let (status, body) = get(addr, "/v1/stats").expect("get stats");
    assert_eq!(status, 200, "{body}");
    let j = parse_json(&body).expect("stats json");
    let spec = j.get("speculative").expect("speculative object");
    assert_eq!(spec.get("enabled").and_then(Json::as_bool), Some(true));
    assert_eq!(spec.get("k").and_then(Json::as_f64), Some(4.0));
    assert_eq!(spec.get("draft").and_then(Json::as_str), Some("ngram"));
    // The break-even gate's state rides along: a verify pass ran only
    // where a sequence's drafts were paying, and every closure is counted.
    let passes = spec.get("verify_passes").and_then(Json::as_f64);
    let closed = spec.get("gate_closed").and_then(Json::as_f64);
    assert!(passes.is_some_and(|p| p >= 1.0), "{body}");
    assert!(closed.is_some_and(|c| c <= passes.unwrap()), "{body}");
    // The metric family shares the scrape with the rest of the stack.
    let (status, metrics) = get(addr, "/metrics").expect("get metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("# TYPE wisdom_speculative_verify_passes_total counter"),
        "{metrics}"
    );
    handle.stop();
}

#[test]
fn int8_server_reports_precision_and_stays_deterministic() {
    use ansible_wisdom::core::Precision;

    let (handle, addr) = spawn_server_with(ServerConfig {
        worker_threads: 4,
        max_batch_size: 4,
        queue_depth: 16,
        precision: Precision::Int8,
        ..ServerConfig::default()
    });

    // Deterministic-output lane: repeated and concurrent completions of the
    // same prompt agree bit-for-bit (batched int8 decode is deterministic at
    // any batch composition, exactly like f32).
    let first = request_completion(addr, "", "install nginx").expect("completion");
    let again = request_completion(addr, "", "install nginx").expect("completion");
    assert_eq!(first.snippet, again.snippet);
    let mut threads = Vec::new();
    for _ in 0..4 {
        threads.push(std::thread::spawn(move || {
            request_completion(addr, "", "install nginx").expect("completion")
        }));
    }
    for t in threads {
        assert_eq!(t.join().expect("thread").snippet, first.snippet);
    }

    // /v1/stats echoes the precision and the quant gauges/counters.
    let (status, body) = get(addr, "/v1/stats").expect("get stats");
    assert_eq!(status, 200, "{body}");
    let j = parse_json(&body).expect("stats json");
    assert_eq!(j.get("precision").and_then(Json::as_str), Some("int8"));
    let quant = j.get("quant").expect("quant object");
    let field = |k: &str| quant.get(k).and_then(Json::as_f64).expect("quant field");
    assert!(field("weight_bytes") > 0.0, "{body}");
    assert!(field("weight_bytes_saved") > 0.0, "{body}");
    assert!(field("matmuls_int8") > 0.0, "{body}");
    assert_eq!(field("matmuls_f32"), 0.0, "{body}");

    // The wisdom_quant_* family shares the /metrics scrape.
    let (status, metrics) = get(addr, "/metrics").expect("get metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("# TYPE wisdom_quant_weight_bytes gauge"),
        "{metrics}"
    );
    assert!(
        metrics.contains("# TYPE wisdom_quant_matmuls_int8_total counter"),
        "{metrics}"
    );
    handle.stop();

    // The default server still reports f32.
    let (handle, addr) = spawn_server();
    let (_, body) = get(addr, "/v1/stats").expect("get stats");
    let j = parse_json(&body).expect("stats json");
    assert_eq!(j.get("precision").and_then(Json::as_str), Some("f32"));
    handle.stop();
}

#[test]
fn queue_overflow_returns_503_with_retry_after() {
    let (handle, addr) = spawn_server_with(ServerConfig {
        worker_threads: 8,
        max_batch_size: 2,
        queue_depth: 2,
        retry_after_secs: 3,
        ..ServerConfig::default()
    });
    // Freeze admission: submissions pile up in the bounded queue, so
    // exactly `queue_depth` of the clients below park and the rest are
    // shed with 503 — no timing dependence.
    handle.set_admission_paused(true);

    let (tx, rx) = std::sync::mpsc::channel();
    let mut threads = Vec::new();
    for _ in 0..6 {
        let tx = tx.clone();
        threads.push(std::thread::spawn(move || {
            let result =
                post_raw(addr, "/v1/completions", r#"{"prompt":"install nginx"}"#).expect("post");
            tx.send(result.0).expect("send status");
            result
        }));
    }
    drop(tx);
    // 4 of 6 must be rejected immediately (2 fit in the queue). Unpause
    // only once all rejections are in, then the parked 2 decode normally.
    let mut rejected = 0;
    while rejected < 4 {
        let status = rx.recv().expect("a client finished");
        assert_eq!(status, 503, "only overflowing clients finish while paused");
        rejected += 1;
    }
    handle.set_admission_paused(false);

    let mut ok = 0;
    let mut shed = 0;
    for t in threads {
        let (status, headers, body) = t.join().expect("client thread");
        match status {
            200 => {
                assert!(body.contains("completion"), "{body}");
                ok += 1;
            }
            503 => {
                let retry = headers
                    .iter()
                    .find(|(k, _)| k == "retry-after")
                    .map(|(_, v)| v.as_str());
                assert_eq!(retry, Some("3"), "503 must advertise Retry-After");
                shed += 1;
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert_eq!((ok, shed), (2, 4));
    handle.stop();
}

#[test]
fn health_and_readiness_endpoints() {
    let (handle, addr) = spawn_server();

    // Liveness: always 200, never touches the model or a lock.
    let (status, body) = get(addr, "/healthz").expect("get healthz");
    assert_eq!((status, body.as_str()), (200, "ok"));

    // Readiness: 200 once the decode worker thread is up (it starts at
    // bind time, so this converges quickly).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let (status, body) = get(addr, "/readyz").expect("get readyz");
        if status == 200 {
            assert_eq!(body, "ready");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "decode worker never became ready: {status} {body}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // Forced-unready flips readiness to 503 but leaves liveness at 200.
    handle.set_ready(false);
    let (status, _) = get(addr, "/readyz").expect("get readyz");
    assert_eq!(status, 503);
    let (status, _) = get(addr, "/healthz").expect("get healthz");
    assert_eq!(status, 200);
    handle.set_ready(true);
    let (status, _) = get(addr, "/readyz").expect("get readyz");
    assert_eq!(status, 200);

    handle.stop();
}

#[test]
fn metrics_scrape_mid_load_counts_requests() {
    use ansible_wisdom::telemetry::sample_value;

    let (handle, addr) = spawn_server_with(ServerConfig {
        worker_threads: 8,
        max_batch_size: 4,
        queue_depth: 32,
        ..ServerConfig::default()
    });
    let scrape = || {
        let (status, body) = get(addr, "/metrics").expect("get metrics");
        assert_eq!(status, 200, "{body}");
        body
    };
    // Counters we hold monotonic across every scrape below.
    const MONOTONIC: &[&str] = &[
        "wisdom_http_requests_total",
        "wisdom_requests_admitted_total",
        "wisdom_requests_completed_total",
        "wisdom_scheduler_wakeups_total",
        "wisdom_request_duration_seconds_count{route=\"/v1/completions\"}",
    ];
    let counters = |text: &str| -> Vec<f64> {
        MONOTONIC
            .iter()
            .map(|series| sample_value(text, series).unwrap_or_else(|| panic!("missing {series}")))
            .collect()
    };

    let first = scrape();
    // The whole serving stack shares one exposition.
    for family in [
        "# TYPE wisdom_request_duration_seconds histogram",
        "# TYPE wisdom_ttft_seconds histogram",
        "# TYPE wisdom_queue_wait_seconds histogram",
        "# TYPE wisdom_batch_occupancy gauge",
        "# TYPE wisdom_prefix_cache_hits_total counter",
    ] {
        assert!(first.contains(family), "missing {family:?} in:\n{first}");
    }
    let baseline = counters(&first);

    for i in 0..3 {
        request_completion(addr, "", &format!("install package number{i}")).expect("completion");
    }
    let settled = scrape();
    let after_three = counters(&settled);
    for (series, (before, after)) in MONOTONIC.iter().zip(baseline.iter().zip(&after_three)) {
        assert!(
            after >= before,
            "{series} went backwards: {before} -> {after}"
        );
    }
    // Histogram counts equal completed requests, per route and end to end.
    assert_eq!(
        sample_value(
            &settled,
            "wisdom_request_duration_seconds_count{route=\"/v1/completions\"}"
        ),
        Some(3.0),
        "{settled}"
    );
    assert_eq!(
        sample_value(&settled, "wisdom_requests_completed_total"),
        Some(3.0)
    );
    assert_eq!(
        sample_value(&settled, "wisdom_ttft_seconds_count"),
        Some(3.0)
    );

    // Mid-load: freeze admission so two requests sit in the decode queue,
    // then scrape while they are provably in flight.
    handle.set_admission_paused(true);
    let mut clients = Vec::new();
    for i in 0..2 {
        clients.push(std::thread::spawn(move || {
            request_completion(addr, "", &format!("create user midload{i}")).expect("completion")
        }));
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mid = loop {
        let text = scrape();
        if sample_value(&text, "wisdom_queue_depth") == Some(2.0) {
            break text;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "queued requests never showed up in wisdom_queue_depth:\n{text}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    let mid_counters = counters(&mid);
    for (series, (before, after)) in MONOTONIC.iter().zip(after_three.iter().zip(&mid_counters)) {
        assert!(
            after >= before,
            "{series} went backwards: {before} -> {after}"
        );
    }
    // Paused admission: both requests are queued, none admitted yet.
    assert_eq!(
        sample_value(&mid, "wisdom_requests_admitted_total"),
        Some(3.0),
        "{mid}"
    );

    handle.set_admission_paused(false);
    for c in clients {
        c.join().expect("client thread");
    }
    let fin = scrape();
    let final_counters = counters(&fin);
    for (series, (before, after)) in MONOTONIC
        .iter()
        .zip(mid_counters.iter().zip(&final_counters))
    {
        assert!(
            after >= before,
            "{series} went backwards: {before} -> {after}"
        );
    }
    assert_eq!(
        sample_value(&fin, "wisdom_requests_completed_total"),
        Some(5.0),
        "{fin}"
    );
    assert_eq!(
        sample_value(
            &fin,
            "wisdom_request_duration_seconds_count{route=\"/v1/completions\"}"
        ),
        Some(5.0)
    );
    assert_eq!(sample_value(&fin, "wisdom_ttft_seconds_count"), Some(5.0));
    assert_eq!(sample_value(&fin, "wisdom_queue_depth"), Some(0.0));

    handle.stop();
}

#[test]
fn keep_alive_connection_reuses_one_socket_for_sequential_requests() {
    use ansible_wisdom::server::HttpConnection;

    let (handle, addr) = spawn_server();
    let mut conn = HttpConnection::connect(addr).expect("connect");

    let (status, headers, body) = conn
        .post("/v1/completions", r#"{"prompt":"install nginx"}"#)
        .expect("first request");
    assert_eq!(status, 200, "{body}");
    assert!(
        headers
            .iter()
            .any(|(k, v)| k == "connection" && v == "keep-alive"),
        "server must advertise keep-alive back: {headers:?}"
    );

    let (status, _, body) = conn
        .post("/v1/completions", r#"{"prompt":"start nginx service"}"#)
        .expect("second request");
    assert_eq!(status, 200, "{body}");
    let (status, _, body) = conn.get("/v1/stats").expect("third request");
    assert_eq!(status, 200, "{body}");

    // All three rode the socket opened by `connect` — the server never
    // closed it between requests.
    assert_eq!(conn.connects(), 1, "requests must reuse one TCP socket");
    handle.stop();
}

#[test]
fn keep_alive_connections_are_bounded_per_socket() {
    use ansible_wisdom::server::HttpConnection;

    let (handle, addr) = spawn_server_with(ServerConfig {
        keepalive_max_requests: 2,
        ..ServerConfig::default()
    });
    let mut conn = HttpConnection::connect(addr).expect("connect");
    for _ in 0..4 {
        let (status, _, body) = conn.get("/healthz").expect("request");
        assert_eq!(status, 200, "{body}");
    }
    // 2 requests per socket → 4 requests need 2 sockets; the client
    // reconnected transparently when the server said `connection: close`.
    assert_eq!(conn.connects(), 2);
    handle.stop();
}

#[test]
fn streaming_completion_is_bit_identical_to_the_plain_response() {
    use ansible_wisdom::server::post_sse;
    use ansible_wisdom::telemetry::sample_value;

    let (handle, addr) = spawn_server();
    let body = r#"{"prompt":"install nginx"}"#;
    let (status, _, plain) = post_raw(addr, "/v1/completions", body).expect("plain");
    assert_eq!(status, 200, "{plain}");

    let streamed = r#"{"prompt":"install nginx","stream":true}"#;
    let (status, events) = post_sse(addr, "/v1/completions", streamed).expect("stream");
    assert_eq!(status, 200);
    assert!(
        events.len() >= 2,
        "want at least one token event plus the final object: {events:?}"
    );
    // Every event before the last is a single-token object.
    for event in &events[..events.len() - 1] {
        let token = parse_json(event).expect("token event json");
        assert!(
            token.get("token").and_then(Json::as_str).is_some(),
            "bad token event: {event}"
        );
    }
    // The final event is byte-for-byte the non-streaming response body.
    assert_eq!(events.last().map(String::as_str), Some(plain.as_str()));

    // Stream latency histograms saw the stream.
    let (_, metrics) = get(addr, "/metrics").expect("metrics");
    let ttft = sample_value(&metrics, "wisdom_stream_ttft_seconds_count").expect("ttft series");
    assert!(ttft >= 1.0, "{metrics}");
    assert!(
        sample_value(&metrics, "wisdom_stream_token_seconds_count").is_some(),
        "{metrics}"
    );
    handle.stop();
}

#[test]
fn streaming_rejects_bad_payloads_without_starting_a_stream() {
    use ansible_wisdom::server::post_sse;

    let (handle, addr) = spawn_server();
    let (status, events) =
        post_sse(addr, "/v1/completions", r#"{"stream":true}"#).expect("missing prompt");
    assert_eq!(status, 400);
    assert_eq!(events.len(), 1, "plain error body, no SSE events");
    handle.stop();
}

#[test]
fn multi_replica_server_is_deterministic_and_reports_per_replica_stats() {
    let (handle, addr) = spawn_server_with(ServerConfig {
        worker_threads: 6,
        max_batch_size: 2,
        queue_depth: 16,
        replicas: 2,
        ..ServerConfig::default()
    });
    let wisdom = tiny_wisdom();
    // Enough distinct prompts that the rendezvous fallback exercises both
    // replicas; every completion must match the direct path bit-for-bit.
    let mut threads = Vec::new();
    for i in 0..6 {
        threads.push(std::thread::spawn(move || {
            let prompt = format!("install package number{i}");
            (
                prompt.clone(),
                request_completion(addr, "", &prompt).expect("completion"),
            )
        }));
    }
    for t in threads {
        let (prompt, got) = t.join().expect("client thread");
        assert_eq!(
            got.snippet,
            wisdom.complete_task("", &prompt).snippet,
            "prompt {prompt:?}"
        );
    }

    let (status, body) = get(addr, "/v1/stats").expect("stats");
    assert_eq!(status, 200, "{body}");
    let j = parse_json(&body).expect("stats json");
    assert_eq!(j.get("replica_count").and_then(Json::as_f64), Some(2.0));
    let Some(Json::Arr(replicas)) = j.get("replicas") else {
        panic!("{body}")
    };
    assert_eq!(replicas.len(), 2, "{body}");
    // Each replica decodes on its share of the cores, at most one worker
    // per sequence of its batch.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let share = (cores / 2).clamp(1, 2) as f64;
    for replica in replicas {
        let workers = replica.get("decode_workers").and_then(Json::as_f64);
        assert_eq!(workers, Some(share), "{body}");
    }
    // The pool aggregate keeps the legacy shape.
    assert_eq!(j.get("queue_depth").and_then(Json::as_f64), Some(0.0));
    let pc = j.get("prefix_cache").expect("prefix_cache object");
    assert_eq!(pc.get("enabled").and_then(Json::as_bool), Some(true));

    // Per-replica series are labeled; router counters carry the policy.
    let (status, metrics) = get(addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("replica=\"0\""), "{metrics}");
    assert!(metrics.contains("replica=\"1\""), "{metrics}");
    assert!(
        metrics.contains("wisdom_router_requests_total{policy=\"prefix_affinity\"}"),
        "{metrics}"
    );

    // Metric hygiene: every family this scrape exposes has a row in the
    // README's metric tables (first cell, spelled out in full).
    let documented: Vec<&str> = include_str!("../README.md")
        .lines()
        .filter(|line| line.starts_with("| `wisdom_"))
        .filter_map(|line| line.split('|').nth(1))
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .map(|name| name.split('{').next().unwrap_or(name))
        .collect();
    let undocumented: Vec<&str> = metrics
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split(' ').next())
        .filter(|family| !documented.contains(family))
        .collect();
    assert!(
        undocumented.is_empty(),
        "families missing from README.md's metric tables: {undocumented:?}"
    );
    handle.stop();
}

#[test]
fn a_multi_replica_scrape_has_no_unlabeled_decode_series() {
    use ansible_wisdom::model::DecodeTelemetry;
    use ansible_wisdom::telemetry::{sample_value, Registry};

    // The decode families, read off one bundle's own exposition.
    let registry = Registry::new();
    DecodeTelemetry::register(&registry, &[]);
    let decode_families: Vec<String> = registry
        .render()
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split(' ').next())
        .map(str::to_string)
        .collect();
    assert!(decode_families.len() >= 30, "{decode_families:?}");

    let (handle, addr) = spawn_server_with(ServerConfig {
        replicas: 2,
        ..ServerConfig::default()
    });
    request_completion(addr, "", "install nginx").expect("completion");
    let (status, metrics) = get(addr, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    // Every sample of a decode family belongs to a replica: an unlabeled
    // series next to the labeled ones would never move.
    let phantoms: Vec<&str> = metrics
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter(|line| {
            let name = line.split(['{', ' ']).next().unwrap_or(line);
            decode_families.iter().any(|family| {
                name.strip_prefix(family.as_str())
                    .is_some_and(|rest| ["", "_bucket", "_sum", "_count"].contains(&rest))
            })
        })
        .filter(|line| !line.contains("replica=\""))
        .collect();
    assert!(phantoms.is_empty(), "unlabeled decode series: {phantoms:?}");
    assert_eq!(
        sample_value(&metrics, "wisdom_requests_admitted_total"),
        None
    );
    assert_eq!(
        sample_value(&metrics, "wisdom_prefix_cache_budget_bytes"),
        None
    );
    let admitted = |i: usize| {
        sample_value(
            &metrics,
            &format!("wisdom_requests_admitted_total{{replica=\"{i}\"}}"),
        )
    };
    assert_eq!(
        admitted(0).zip(admitted(1)).map(|(a, b)| a + b),
        Some(1.0),
        "{metrics}"
    );
    handle.stop();
}

#[test]
fn a_burst_of_unique_prompts_moves_both_replicas() {
    use ansible_wisdom::server::HttpConnection;
    use ansible_wisdom::telemetry::sample_value;

    let (handle, addr) = spawn_server_with(ServerConfig {
        replicas: 2,
        ..ServerConfig::default()
    });
    let admitted = || {
        let (_, metrics) = get(addr, "/metrics").expect("metrics");
        [0, 1].map(|i| {
            let series = format!("wisdom_requests_admitted_total{{replica=\"{i}\"}}");
            sample_value(&metrics, &series).unwrap_or_else(|| panic!("missing {series}"))
        })
    };
    // One replica now holds the head every prompt shares (`- name: `).
    request_completion(addr, "", "install nginx").expect("completion");
    let before = admitted();
    assert_eq!(before[0] + before[1], 1.0);

    // Two closed-loop clients on keep-alive connections, no prompt twice
    // and no two alike from the start: each opens with two letters of its
    // own and fits the tiny model's 24-token window whole (20 tokens; a
    // longer one is cut down to its tail, which they all share), so what
    // any pair has in common — the head and a letter at most — stays far
    // under half a window and placement is by load, not by affinity.
    let clients: Vec<_> = (0..2u8)
        .map(|client| {
            std::thread::spawn(move || {
                let mut conn = HttpConnection::connect(addr).expect("connect");
                for i in 0..24u8 {
                    let (a, b) = ((b'a' + i) as char, (b'y' + client) as char);
                    let body = format!(r#"{{"prompt":"{a}{b} package install and start"}}"#);
                    let (status, _, body) = conn.post("/v1/completions", &body).expect("post");
                    assert_eq!(status, 200, "{body}");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    let after = admitted();
    let moved = [after[0] - before[0], after[1] - before[1]];
    // `scripts/check.sh` greps this line into its log.
    println!("e2e burst admitted per replica: {moved:?}");
    assert_eq!(moved[0] + moved[1], 48.0);
    assert!(
        moved.iter().all(|&m| m > 0.0),
        "a replica sat out the burst: {moved:?}"
    );
    handle.stop();
}

#[test]
fn a_batch_of_one_streams_and_reports_the_pool_shape() {
    use ansible_wisdom::server::post_sse;

    // `max_batch_size: 1` is a batch of one on the same path, not a second
    // server: it streams, and its stats have the pool's shape.
    let (handle, addr) = spawn_server_with(ServerConfig {
        max_batch_size: 1,
        ..ServerConfig::default()
    });
    let (status, _, plain) =
        post_raw(addr, "/v1/completions", r#"{"prompt":"install nginx"}"#).expect("plain");
    assert_eq!(status, 200, "{plain}");
    let streamed = r#"{"prompt":"install nginx","stream":true}"#;
    let (status, events) = post_sse(addr, "/v1/completions", streamed).expect("stream");
    assert_eq!(status, 200, "{events:?}");
    assert!(events.len() >= 2, "token events, then the body: {events:?}");
    assert_eq!(events.last().map(String::as_str), Some(plain.as_str()));
    assert_eq!(
        request_completion(addr, "", "install nginx")
            .expect("completion")
            .snippet,
        tiny_wisdom().complete_task("", "install nginx").snippet
    );

    let (status, body) = get(addr, "/v1/stats").expect("stats");
    assert_eq!(status, 200, "{body}");
    let j = parse_json(&body).expect("stats json");
    assert_eq!(j.get("max_batch_size").and_then(Json::as_f64), Some(1.0));
    assert_eq!(j.get("replica_count").and_then(Json::as_f64), Some(1.0));
    // A batch of one decodes on one worker, however many cores there are.
    assert!(
        matches!(j.get("replicas"), Some(Json::Arr(items)) if items.len() == 1
            && items[0].get("decode_workers").and_then(Json::as_f64) == Some(1.0)),
        "{body}"
    );
    let pc = j.get("prefix_cache").expect("prefix_cache object");
    assert_eq!(pc.get("enabled").and_then(Json::as_bool), Some(true));
    handle.stop();
}

/// Sends raw bytes and reads the reply to EOF; the status line's code.
fn raw_status(addr: std::net::SocketAddr, request: &[u8]) -> u16 {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    // The server may answer and close before it has read everything.
    let _ = stream.write_all(request);
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"))
}

#[test]
fn oversized_request_head_is_refused_with_431_and_the_next_connection_served() {
    use ansible_wisdom::server::{MAX_HEADERS, MAX_LINE_BYTES};

    let (handle, addr) = spawn_server();
    // A header line past the cap with no end in sight: refused as soon as
    // the cap is read, not when the client finally gives up. (Barely past
    // it, so the server has drained the socket and closing it cannot reset
    // the connection under the reply.)
    let endless = format!(
        "GET /healthz HTTP/1.1\r\nx-pad: {}",
        "a".repeat(MAX_LINE_BYTES + 100)
    );
    assert_eq!(raw_status(addr, endless.as_bytes()), 431);
    // More header lines than any client sends.
    let flood: String = (0..=MAX_HEADERS).map(|i| format!("x-{i}: 1\r\n")).collect();
    let flood = format!("GET /healthz HTTP/1.1\r\n{flood}\r\n");
    assert_eq!(raw_status(addr, flood.as_bytes()), 431);
    // Neither took anything down.
    let (status, body) = get(addr, "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok"));
    let (_, metrics) = get(addr, "/metrics").expect("metrics");
    assert!(
        metrics.contains("wisdom_http_responses_total{route=\"other\",status=\"431\"} 2"),
        "{metrics}"
    );
    handle.stop();
}

#[test]
fn a_megabyte_of_brackets_is_a_400_or_a_finding_never_a_crash() {
    let (handle, addr) = spawn_server();
    // As the JSON body itself, to both endpoints that parse one: at the
    // parent commit the recursive parser overflows the handler's stack,
    // which aborts the whole process.
    let brackets = "[".repeat((1 << 20) - 1);
    for path in ["/v1/completions", "/v1/lint"] {
        let (status, body) = post(addr, path, &brackets).expect("post");
        assert_eq!(status, 400, "{path}: {body}");
        assert!(body.contains("nesting"), "{path}: {body}");
    }
    // As YAML for the linter, flow and block style: the document is
    // reported as unparseable, like any other syntax error.
    for content in ["[".repeat(1 << 19), "- ".repeat(1 << 18)] {
        let body = Json::obj(vec![("content", Json::Str(content))]).to_text();
        let (status, reply) = post(addr, "/v1/lint", &body).expect("lint");
        assert_eq!(status, 200, "{reply}");
        let j = parse_json(&reply).expect("lint json");
        assert_eq!(j.get("schema_correct").and_then(Json::as_bool), Some(false));
        assert!(reply.contains("nesting deeper than"), "{reply}");
    }
    // As editor context: a completion comes back regardless.
    let body = Json::obj(vec![
        ("prompt", Json::Str("install nginx".to_string())),
        ("context", Json::Str("[".repeat(1 << 16))),
    ])
    .to_text();
    let (status, reply) = post(addr, "/v1/completions", &body).expect("completion");
    assert_eq!(status, 200, "{reply}");
    let (status, body) = get(addr, "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok"));
    handle.stop();
}

#[test]
fn under_indented_block_scalars_are_findings_and_every_handler_survives() {
    // A block-scalar line indented less than its explicit indentation
    // indicator, holding multi-byte text: the owned-tree parser sliced it
    // inside a character and panicked the handler thread linting it, so
    // `worker_threads` such posts left a server that accepted connections
    // nobody served.
    let config = ServerConfig::default();
    let workers = config.worker_threads;
    let (handle, addr) = spawn_server_with(config);
    let inputs = ["a: |2\n éé\n", "- |3\n  éé\n", "a: >2\n é\n"];
    for content in inputs.iter().cycle().take(workers + 1) {
        let body = Json::obj(vec![("content", Json::Str(content.to_string()))]).to_text();
        let (status, reply) = post(addr, "/v1/lint", &body).expect("lint");
        assert_eq!(status, 200, "{content:?}: {reply}");
        let j = parse_json(&reply).expect("lint json");
        assert!(
            matches!(j.get("findings"), Some(Json::Arr(items)) if !items.is_empty()),
            "{content:?}: {reply}"
        );
    }
    let (status, body) = get(addr, "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok"));
    handle.stop();
}

#[test]
fn oversized_request_body_is_rejected_with_413() {
    use std::io::{Read, Write};
    let (handle, addr) = spawn_server();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    // Claim a body far over the 1 MiB cap; the server must answer 413
    // without waiting for the bytes.
    write!(
        stream,
        "POST /v1/completions HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n"
    )
    .expect("write");
    stream.flush().expect("flush");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(
        response.starts_with("HTTP/1.1 413"),
        "expected 413, got: {response}"
    );
    handle.stop();
}

#[test]
fn constrained_completion_round_trip_and_stats_echo() {
    use ansible_wisdom::core::Constraint;

    // The server-wide default constraint is echoed by /v1/stats and applied
    // to requests that don't name one.
    let (handle, addr) = spawn_server_with(ServerConfig {
        constraint: Constraint::Ansible,
        ..ServerConfig::default()
    });
    let (status, body) = post(addr, "/v1/completions", r#"{"prompt":"install nginx"}"#)
        .expect("default-constrained completion");
    assert_eq!(status, 200, "{body}");

    // An explicit per-request constraint is accepted and deterministic.
    let request = r#"{"prompt":"install nginx","constraint":"ansible"}"#;
    let (status, first) = post(addr, "/v1/completions", request).expect("constrained");
    assert_eq!(status, 200, "{first}");
    let (_, second) = post(addr, "/v1/completions", request).expect("constrained again");
    assert_eq!(first, second, "constrained decode must be deterministic");

    // Opting out per request is accepted too.
    let (status, body) = post(
        addr,
        "/v1/completions",
        r#"{"prompt":"install nginx","constraint":"none"}"#,
    )
    .expect("unconstrained override");
    assert_eq!(status, 200, "{body}");

    let (status, stats) = get(addr, "/v1/stats").expect("stats");
    assert_eq!(status, 200, "{stats}");
    let j = parse_json(&stats).expect("stats json");
    let grammar = j.get("grammar").expect("grammar object");
    assert_eq!(
        grammar.get("constraint").and_then(Json::as_str),
        Some("ansible"),
        "{stats}"
    );
    assert!(grammar
        .get("masked_tokens")
        .and_then(Json::as_f64)
        .is_some());
    assert!(grammar
        .get("forced_tokens")
        .and_then(Json::as_f64)
        .is_some());
    handle.stop();
}

#[test]
fn stats_read_the_shared_mask_cache_once_not_once_per_replica() {
    use ansible_wisdom::core::Constraint;

    let (handle, addr) = spawn_server_with(ServerConfig {
        constraint: Constraint::Ansible,
        replicas: 2,
        max_batch_size: 2,
        ..ServerConfig::default()
    });
    // The indices are the process's (other tests of this file decode under
    // them too), so the cache is bracketed rather than predicted: it only
    // grows at this size.
    let wisdom = tiny_wisdom();
    let before = wisdom.grammar_stats();
    for i in 0..6 {
        let body = format!(r#"{{"prompt":"configure service number{i}"}}"#);
        let (status, reply) = post(addr, "/v1/completions", &body).expect("completion");
        assert_eq!(status, 200, "{reply}");
    }
    let (status, stats) = get(addr, "/v1/stats").expect("stats");
    assert_eq!(status, 200, "{stats}");
    let after = wisdom.grammar_stats();
    let j = parse_json(&stats).expect("stats json");
    assert_eq!(j.get("replica_count").and_then(Json::as_f64), Some(2.0));
    let grammar = j.get("grammar").expect("grammar object");
    let field = |name: &str| {
        grammar
            .get(name)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("grammar.{name} missing: {stats}")) as u64
    };
    let cached = field("states_cached");
    assert!(cached > 0, "{stats}");
    assert!(
        (before.states_cached..=after.states_cached).contains(&cached),
        "states_cached {cached} outside {}..={}",
        before.states_cached,
        after.states_cached
    );
    assert!((before.mask_builds..=after.mask_builds).contains(&field("mask_builds")));
    assert!(
        field("mask_builds") >= cached,
        "every cached state was built"
    );
    assert!(field("cache_hits") > 0);
    assert!(field("derived_masks") <= after.derived_masks);
    assert_eq!(field("generations_dropped"), 0, "far under one generation");

    // The rotation counter is exposed per replica (and zero).
    let (_, metrics) = get(addr, "/metrics").expect("metrics");
    assert_eq!(
        ansible_wisdom::telemetry::sample_value(
            &metrics,
            "wisdom_grammar_mask_cache_rotations_total{replica=\"0\"}"
        ),
        Some(0.0),
        "{metrics}"
    );
    handle.stop();
}

#[test]
fn invalid_constraint_is_rejected_with_400() {
    let (handle, addr) = spawn_server();
    let (status, body) = post(
        addr,
        "/v1/completions",
        r#"{"prompt":"install nginx","constraint":"json"}"#,
    )
    .expect("post");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("constraint"), "{body}");
    let (status, body) = post(
        addr,
        "/v1/completions",
        r#"{"prompt":"install nginx","constraint":5}"#,
    )
    .expect("post");
    assert_eq!(status, 400, "{body}");

    // The default config leaves decodes unconstrained, and /v1/stats says so.
    let (_, stats) = get(addr, "/v1/stats").expect("stats");
    let j = parse_json(&stats).expect("stats json");
    assert_eq!(
        j.get("grammar")
            .and_then(|g| g.get("constraint"))
            .and_then(Json::as_str),
        Some("none"),
        "{stats}"
    );
    handle.stop();
}

#[test]
fn streaming_constrained_completion_matches_the_plain_constrained_response() {
    use ansible_wisdom::server::post_sse;

    let (handle, addr) = spawn_server();
    let body = r#"{"prompt":"install nginx","constraint":"ansible"}"#;
    let (status, _, plain) = post_raw(addr, "/v1/completions", body).expect("plain");
    assert_eq!(status, 200, "{plain}");

    let streamed = r#"{"prompt":"install nginx","constraint":"ansible","stream":true}"#;
    let (status, events) = post_sse(addr, "/v1/completions", streamed).expect("stream");
    assert_eq!(status, 200);
    assert!(
        events.len() >= 2,
        "token events plus final object: {events:?}"
    );
    // The final event is byte-for-byte the non-streaming constrained body.
    assert_eq!(events.last().map(String::as_str), Some(plain.as_str()));
    handle.stop();
}

#[test]
fn abandoned_stream_is_cancelled_long_before_its_budget() {
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    use ansible_wisdom::model::{FinishReason, ModelConfig, TransformerLm};
    use ansible_wisdom::prng::Prng;
    use ansible_wisdom::server::post_sse;

    // An untrained model behind a long window: its tokens are noise, but
    // there are hundreds of them, so a hang-up mid-stream leaves most of a
    // decode to be saved.
    let tokenizer = Arc::clone(tiny_wisdom().tokenizer());
    let config = WisdomConfig {
        context_window: 512,
        max_new_tokens: 400,
        ..WisdomConfig::tiny()
    };
    let model = TransformerLm::new(
        ModelConfig {
            vocab_size: tokenizer.vocab_size(),
            d_model: 64,
            n_layers: 2,
            n_heads: 2,
            context_window: config.context_window,
        },
        &mut Prng::seed_from_u64(3),
    );
    let wisdom = Arc::new(Wisdom::from_parts(config, tokenizer, model));
    let server =
        WisdomServer::bind_with(wisdom, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let handle = server.handle();
    let addr = handle.addr();
    std::thread::spawn(move || server.serve());
    let batch = &handle.decode_telemetry(0).batch;

    // A stream read to the end: what the whole budget costs.
    let body = r#"{"prompt":"install nginx","stream":true}"#;
    let started = Instant::now();
    let (status, events) = post_sse(addr, "/v1/completions", body).expect("stream");
    let full = started.elapsed();
    assert_eq!(status, 200);
    assert!(
        events.len() > 200,
        "the untrained model stopped after {} events; pick another seed",
        events.len()
    );
    assert_eq!(batch.finished(FinishReason::Cancelled).get(), 0);

    // The same request, hung up on after the first event.
    let started = Instant::now();
    let mut socket = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        socket,
        "POST /v1/completions HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut seen = Vec::new();
    let mut byte = [0u8; 1];
    while !seen.ends_with(b"\"}\n\n") {
        socket.read_exact(&mut byte).expect("first event");
        seen.push(byte[0]);
    }
    assert!(String::from_utf8_lossy(&seen).contains("data: {\"token\":"));
    drop(socket);

    // The write that fails drops the token receiver; the decode worker
    // retires the sequence in the round that notices.
    let deadline = Instant::now() + Duration::from_secs(20);
    while batch.finished(FinishReason::Cancelled).get() == 0 {
        assert!(
            Instant::now() < deadline,
            "the sequence was never cancelled"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let idle_after = started.elapsed();
    assert!((batch.batch_occupancy.get() - 0.0).abs() < f64::EPSILON);
    assert_eq!(batch.finished(FinishReason::Cancelled).get(), 1);
    assert_eq!(batch.completed.get(), 2);
    assert!(
        idle_after < full / 2,
        "replica idle {idle_after:?} after the hang-up; a full decode takes {full:?}"
    );
    handle.stop();
}
