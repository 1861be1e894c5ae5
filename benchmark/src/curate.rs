//! `curate_corpus`: the offline data funnel. The model does nothing here;
//! YAML parse, strict lint and MinHash do everything, so this is where a
//! parser or linter change must show and where no serving change may move
//! anything.

use std::time::{Duration, Instant};

use ansible_wisdom::curation::{curate, CurationConfig, CurationReport, InputDoc};

use crate::report::Outcome;
use crate::serving::{median_set_up, WARM_UP};
use crate::stats::{fnv1a, quantile, share, RssAt, FNV_OFFSET};
use crate::workload;

/// Parse/lint/score workers, one per core of the host.
pub const WORKERS: usize = 2;
/// `peak_rss_mb` is read when this many passes have completed.
const RSS_AT_PASSES: usize = 60;
/// Corpus generations timed per run (they take hundredths of a second, so
/// more of them than the model workloads' set-ups).
const SETUP_REPEATS: usize = 15;

pub fn config(workers: usize) -> CurationConfig {
    CurationConfig {
        workers,
        // Shard bytes are the output; a second copy of the texts is not.
        keep_texts: false,
        ..CurationConfig::default()
    }
}

/// One digest over every shard's bytes, in shard order.
pub fn shard_digest(report: &CurationReport) -> u64 {
    report
        .shards
        .iter()
        .fold(FNV_OFFSET, |state, shard| fnv1a(state, &shard.bytes))
}

/// Corpus generation (plus duplicate injection): the set-up an operator
/// pays before the first pass.
pub fn set_up(seed: u64) -> (Vec<InputDoc>, f64) {
    let started = Instant::now();
    let docs = workload::curation_docs(seed);
    (docs, started.elapsed().as_secs_f64())
}

/// Runs the workload end to end with tracing off.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let (docs, setup_s) = median_set_up(SETUP_REPEATS, || set_up(seed));

    let budget = WARM_UP + Duration::from_secs(seconds);
    let started = Instant::now();
    let mut latencies = Vec::new();
    let mut outcome = Outcome::default();
    let mut first: Option<(usize, u64)> = None;
    let mut accepted_share = 0.0;
    let rss = RssAt::new(RSS_AT_PASSES);
    while started.elapsed() < budget {
        let warm = started.elapsed() >= WARM_UP;
        let input = docs.clone();
        let pass = Instant::now();
        let report = curate(input, &config(WORKERS));
        if warm {
            latencies.push(pass.elapsed().as_secs_f64() * 1e3);
        }
        outcome.attempted += 1;
        // Every pass sees the same input, so it must keep the same
        // documents and frame the same bytes; nothing in a generated
        // corpus may fail to parse.
        let signature = (report.kept, shard_digest(&report));
        let same = *first.get_or_insert(signature) == signature;
        if !same || report.parse_failed > 0 || report.kept == 0 {
            eprintln!(
                "curation pass {} diverged: kept {} parse_failed {}",
                outcome.attempted, report.kept, report.parse_failed
            );
            outcome.failed += 1;
        }
        accepted_share = share(report.kept as f64, report.ingested as f64);
        rss.tick();
    }
    let busy_s: f64 = latencies.iter().sum::<f64>() / 1e3;

    // One worker must frame the very bytes two workers framed.
    let solo = curate(docs.clone(), &config(1));
    if first != Some((solo.kept, shard_digest(&solo))) {
        eprintln!("1-worker shards differ from {WORKERS}-worker shards");
        outcome.failed += 1;
    }

    outcome.set("latency_ms_p50", quantile(&latencies, 0.50));
    outcome.set("ops_per_s", (docs.len() * latencies.len()) as f64 / busy_s);
    outcome.set("accepted_pct", 100.0 * accepted_share);
    outcome.set("peak_rss_mb", rss.mb());
    outcome.set("setup_s", setup_s);
    outcome
}
