#!/usr/bin/env bash
# Repo lint gate: formatting, clippy (warnings are errors), a compile pass
# over every test and bench target so bench-only breakage is caught without
# running criterion, the fast decode-agreement suites (the bit-for-bit
# guarantees behind prefill, batching, the prefix KV cache, speculative
# decoding, and int8 quantization), the tensor-kernel unit + property tests
# (including the quantized GEBP's dequant-oracle identity), doc tests, the
# telemetry substrate's unit + property tests, the router agreement suite
# (rendezvous stability + multi-replica/single-replica bit-identity), and
# the grammar crate's automaton unit + property tests, the grammar
# agreement suite (constrained decodes parse + lint clean, bit-identity
# with unconstrained whenever the unconstrained argmax is legal, across
# the solo/batched/speculative paths), and
# the observability/serving e2e tests (/metrics scrape, /healthz, /readyz,
# SSE streaming vs plain bit-identity, constrained completions over HTTP
# incl. SSE, keep-alive socket reuse — all over real sockets), and the
# curation crate's unit + property + determinism suites (MinHash estimator
# tolerance and LSH recall/no-false-drop properties, plus the end-to-end
# byte-identical-shards-across-worker-counts contract), the first-task
# stop agreement suite (completion-scoped decode: prefix of the unscoped
# oracle, equal suggestions, token identity across every decode path, SSE
# events truncating to the final body), and a build + unit-test pass of the
# standalone benchmark package, so a change to a public type it compiles
# against (`DecodeRequest`'s four-field literal, `GenerationOptions { ..,
# ..default() }`, `DecodeBatch::admit/step`, `GrammarCursor::new/apply/
# advance`) fails here instead of in the benchmark driver. Run from
# the repository root before sending a change.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace --no-run
cargo bench --workspace --no-run
cargo test -q -p wisdom-model \
  --test prefill_agreement \
  --test batch_agreement \
  --test prefix_cache_agreement \
  --test speculative_agreement \
  --test quant_agreement \
  --test grammar_agreement
cargo test -q -p wisdom-grammar
cargo test -q -p wisdom-tensor
cargo test --doc -q
cargo test -q -p wisdom-telemetry
cargo test -q -p wisdom-server --test router_props
cargo test -q -p wisdom-curation
cargo test -q --test server_e2e -- \
  metrics_scrape_mid_load_counts_requests \
  health_and_readiness_endpoints \
  streaming_completion_is_bit_identical_to_the_plain_response \
  keep_alive_connection_reuses_one_socket_for_sequential_requests \
  constrained_completion_round_trip_and_stats_echo \
  invalid_constraint_is_rejected_with_400 \
  streaming_constrained_completion_matches_the_plain_constrained_response \
  abandoned_stream_is_cancelled_long_before_its_budget
cargo test -q --test first_task_stop_agreement
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
