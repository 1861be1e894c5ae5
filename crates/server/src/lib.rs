//! REST inference service for Ansible Wisdom.
//!
//! The paper exposes the model behind a GRPC/REST API consumed by a VS Code
//! plugin. This crate is that serving layer, self-contained on `std::net`:
//! a minimal HTTP/1.1 server ([`WisdomServer`]), a tiny JSON codec, and a
//! blocking client ([`request_completion`]) playing the editor's role.
//!
//! # Examples
//!
//! ```no_run
//! use std::sync::Arc;
//! use wisdom_core::{Wisdom, WisdomConfig};
//! use wisdom_server::{request_completion, WisdomServer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let wisdom = Arc::new(Wisdom::train(&WisdomConfig::tiny(), None));
//! let server = WisdomServer::bind(wisdom, "127.0.0.1:0")?;
//! let handle = server.handle();
//! std::thread::spawn(move || server.serve());
//! let response = request_completion(handle.addr(), "", "install nginx")?;
//! println!("{}", response.snippet);
//! handle.stop();
//! # Ok(())
//! # }
//! ```

mod api;
mod client;
mod http;
mod json;
mod router;
mod telemetry;

pub use api::{ServerConfig, ServerHandle, WisdomServer};
pub use client::{
    get, post, post_raw, post_sse, request_completion, ClientError, CompletionResponse,
    HttpConnection,
};
pub use http::{
    read_request, read_request_opt, ParseHttpError, Request, Response, MAX_BODY_BYTES, MAX_HEADERS,
    MAX_LINE_BYTES,
};
pub use json::{parse_json, Json, ParseJsonError, MAX_JSON_DEPTH};
pub use router::{
    estimate_retry_after, rendezvous_pick, Placement, RoutePolicy, Router, RouterConfig,
    RouterTelemetry,
};
pub use telemetry::{ServerTelemetry, METRICS_CONTENT_TYPE};
