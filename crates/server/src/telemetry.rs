//! Server-side observability: one registry for the whole serving stack,
//! per-route request metrics, and the structured access log.
//!
//! [`ServerTelemetry`] is created at bind time and threaded through every
//! connection handler. It owns the [`Registry`] that `GET /metrics` renders
//! and registers there the [`DecodeTelemetry`] bundle each replica's
//! scheduler, engine and prefix cache record into, so one scrape sees the
//! whole stack: HTTP, scheduler, decode engine, and cache.

use std::sync::Arc;

use wisdom_core::DecodeTelemetry;
use wisdom_telemetry::{Counter, Histogram, Logger, Registry};

/// The Prometheus text exposition content type served by `GET /metrics`.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Routes that get their own `route` label. Anything else is folded into
/// `"other"` so a path-scanning client cannot blow up label cardinality.
const KNOWN_ROUTES: &[&str] = &[
    "/v1/completions",
    "/v1/lint",
    "/v1/stats",
    "/metrics",
    "/healthz",
    "/readyz",
];

/// Canonical `route` label for a request path.
fn route_label(path: &str) -> &'static str {
    KNOWN_ROUTES
        .iter()
        .find(|r| **r == path)
        .copied()
        .unwrap_or("other")
}

/// All metric handles and the access log for one server instance. Cloning
/// is cheap and shares the underlying registry.
#[derive(Debug, Clone)]
pub struct ServerTelemetry {
    registry: Arc<Registry>,
    /// Structured access/error log (`WISDOM_LOG=info|debug`).
    pub logger: Logger,
    /// `wisdom_request_duration_seconds{route=…}`, pre-resolved per known
    /// route (last entry is `"other"`).
    request_duration: Vec<(&'static str, Arc<Histogram>)>,
    /// `wisdom_http_requests_total` — every request, any route or status.
    pub requests_total: Arc<Counter>,
    /// Time to first streamed SSE token, measured at the HTTP layer
    /// (includes queueing and prefill — what the editor user feels).
    pub stream_ttft: Arc<Histogram>,
    /// Gap between consecutive streamed SSE tokens of one response.
    pub stream_token: Arc<Histogram>,
}

impl ServerTelemetry {
    /// A fresh registry with the HTTP-layer metric families registered,
    /// logging per the `WISDOM_LOG` environment variable. The decode
    /// families arrive with [`Self::replica_bundles`].
    pub fn new() -> ServerTelemetry {
        ServerTelemetry::with_logger(Logger::from_env())
    }

    /// [`ServerTelemetry::new`] with an explicit logger (tests use a
    /// capturing one).
    pub fn with_logger(logger: Logger) -> ServerTelemetry {
        let registry = Arc::new(Registry::new());
        let buckets = Histogram::latency_buckets();
        let request_duration = KNOWN_ROUTES
            .iter()
            .chain(std::iter::once(&"other"))
            .map(|route| {
                (
                    *route,
                    registry.histogram_with(
                        "wisdom_request_duration_seconds",
                        "End-to-end HTTP request latency by route.",
                        &[("route", route)],
                        &buckets,
                    ),
                )
            })
            .collect();
        let requests_total = registry.counter(
            "wisdom_http_requests_total",
            "HTTP requests handled, any route or status.",
        );
        let stream_ttft = registry.histogram(
            "wisdom_stream_ttft_seconds",
            "Time to first streamed token, measured at the HTTP layer.",
            &buckets,
        );
        let stream_token = registry.histogram(
            "wisdom_stream_token_seconds",
            "Gap between consecutive streamed tokens of one response.",
            &buckets,
        );
        ServerTelemetry {
            registry,
            logger,
            request_duration,
            requests_total,
            stream_ttft,
            stream_token,
        }
    }

    /// One [`DecodeTelemetry`] per replica of an `n`-replica pool,
    /// registered in this registry. A single replica's series are
    /// unlabeled; with more than one, every series carries its replica's
    /// `replica="i"` label and no unlabeled series exists, so one scrape
    /// shows per-replica and (summed by the scraper) aggregate behavior.
    pub fn replica_bundles(&self, n: usize) -> Vec<DecodeTelemetry> {
        (0..n.max(1))
            .map(|i| {
                let replica = i.to_string();
                let labels: &[(&str, &str)] = if n > 1 { &[("replica", &replica)] } else { &[] };
                DecodeTelemetry::register(&self.registry, labels)
            })
            .collect()
    }

    /// The registry backing `GET /metrics`.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one handled request: duration histogram (by route), status
    /// counter (by route and status class), the total counter, and an
    /// info-level access-log line.
    pub fn observe_request(&self, method: &str, path: &str, status: u16, seconds: f64) {
        let route = route_label(path);
        self.requests_total.inc();
        let histogram = self
            .request_duration
            .iter()
            .find(|(r, _)| *r == route)
            .map(|(_, h)| h)
            .expect("every label folds into a pre-resolved route");
        histogram.observe(seconds);
        self.registry
            .counter_with(
                "wisdom_http_responses_total",
                "HTTP responses by route and status code.",
                &[("route", route), ("status", &status.to_string())],
            )
            .inc();
        self.logger.info(
            "http",
            &[
                ("method", method),
                ("path", path),
                ("route", route),
                ("status", &status.to_string()),
                ("duration_s", &format!("{seconds:.6}")),
            ],
        );
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

impl Default for ServerTelemetry {
    fn default() -> ServerTelemetry {
        ServerTelemetry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisdom_telemetry::{sample_value, LogLevel};

    #[test]
    fn observe_request_records_by_route_and_status() {
        let t = ServerTelemetry::with_logger(Logger::capture(LogLevel::Info));
        t.observe_request("POST", "/v1/completions", 200, 0.01);
        t.observe_request("POST", "/v1/completions", 503, 0.001);
        t.observe_request("GET", "/secret-probe", 404, 0.0001);
        let text = t.render();
        assert_eq!(
            sample_value(
                &text,
                "wisdom_request_duration_seconds_count{route=\"/v1/completions\"}"
            ),
            Some(2.0)
        );
        assert_eq!(
            sample_value(
                &text,
                "wisdom_http_responses_total{route=\"/v1/completions\",status=\"503\"}"
            ),
            Some(1.0)
        );
        // Unknown paths fold into "other" instead of minting new series.
        assert_eq!(
            sample_value(
                &text,
                "wisdom_http_responses_total{route=\"other\",status=\"404\"}"
            ),
            Some(1.0)
        );
        assert!(!text.contains("secret-probe"));
        assert_eq!(sample_value(&text, "wisdom_http_requests_total"), Some(3.0));

        let lines = t.logger.captured();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("component=http method=POST path=/v1/completions"));
        assert!(lines[1].contains("status=503"));
    }

    #[test]
    fn scheduler_and_cache_families_share_the_registry() {
        let t = ServerTelemetry::with_logger(Logger::capture(LogLevel::Off));
        let replica = t.replica_bundles(1).remove(0);
        replica.batch.admitted.inc();
        replica.prefix_cache.hits.inc();
        replica.speculative.accepted.add(3);
        let text = t.render();
        assert_eq!(
            sample_value(&text, "wisdom_requests_admitted_total"),
            Some(1.0)
        );
        assert_eq!(
            sample_value(&text, "wisdom_prefix_cache_hits_total"),
            Some(1.0)
        );
        assert_eq!(
            sample_value(&text, "wisdom_speculative_accepted_tokens_total"),
            Some(3.0)
        );
    }
}
