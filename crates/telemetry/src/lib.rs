//! `wisdom-telemetry` — the observability subsystem of the serving stack.
//!
//! Production LLM serving is tuned off per-request latency distributions
//! (queue wait, time-to-first-token, inter-token latency) and cache/batch
//! counters, not aggregate averages printed after the fact. This crate is
//! the dependency-free substrate those signals flow through:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic scalars;
//! * [`Histogram`] — log-bucketed latency distribution with p50/p90/p99
//!   estimation and mergeable [`HistogramSnapshot`]s;
//! * [`Registry`] — a label-aware metric registry with get-or-create
//!   semantics, shared via `Arc` handles;
//! * [`Timer`] — a drop guard that records a scoped duration into a
//!   histogram;
//! * Prometheus text exposition ([`Registry::render`]) for `GET /metrics`;
//! * [`Logger`] — an opt-in structured access/error log filtered by the
//!   `WISDOM_LOG` environment variable (`info` | `debug`).
//!
//! Everything is thread-safe and `std`-only: recording a sample is one or
//! two relaxed atomic operations, so instrumentation can sit on the decode
//! hot path (the `telemetry` criterion bench in `wisdom-bench` times plain
//! against instrumented batched decode).
//!
//! # Examples
//!
//! ```
//! use wisdom_telemetry::{Histogram, Registry};
//!
//! let registry = Registry::new();
//! let requests = registry.counter("demo_requests_total", "Requests served.");
//! let latency = registry.histogram(
//!     "demo_latency_seconds",
//!     "Request latency.",
//!     &Histogram::latency_buckets(),
//! );
//! requests.inc();
//! latency.observe(0.012);
//! let text = registry.render();
//! assert!(text.contains("# TYPE demo_latency_seconds histogram"));
//! assert!(text.contains("demo_requests_total 1"));
//! ```

mod histogram;
mod log;
mod metric;
mod registry;

pub use histogram::{Histogram, HistogramSnapshot};
pub use log::{LogLevel, Logger};
pub use metric::{Counter, Gauge, Timer};
pub use registry::{sample_value, Registry};
