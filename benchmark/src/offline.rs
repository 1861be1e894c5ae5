//! `offline_eval`: the evaluation harness's use of the model — no sockets,
//! samples pushed eight at a time from one thread through one
//! `BatchScheduler`, every completion scored against gold.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ansible_wisdom::core::{
    BatchConfig, BatchScheduler, CompletionRequest, Constraint, Precision, SpeculativeConfig,
    Suggestion, Wisdom,
};
use ansible_wisdom::corpus::Sample;
use ansible_wisdom::metrics::{score_sample, SampleScores};

use crate::fixture::{self, Fixture};
use crate::report::Outcome;
use crate::serving::{median_set_up, reference_assistant, SETUP_REPEATS, WARM_UP};
use crate::stats::{quantile, share, RssAt};
use crate::workload::{self, request_for};

/// Samples in flight together.
pub const BATCH: usize = 8;
/// Samples re-decoded solo after the run and compared with the batch.
const SOLO_CHECKS: usize = 16;
/// `peak_rss_mb` is read when this many batches have been scored.
const RSS_AT_BATCHES: usize = 80;

/// The serving stack's decode settings at evaluation batch size.
pub fn eval_config() -> BatchConfig {
    BatchConfig {
        max_batch_size: BATCH,
        precision: Precision::Int8,
        speculative: SpeculativeConfig::ngram(8),
        constraint: Constraint::Ansible,
        ..BatchConfig::default()
    }
}

/// Scores one suggestion against its sample's gold completion.
pub fn score(sample: &Sample, suggestion: &Suggestion) -> SampleScores {
    score_sample(
        &sample.expected,
        &suggestion.body,
        &sample.scoring_document(&sample.expected),
        &sample.scoring_document(&suggestion.body),
    )
}

/// Decodes `batch` together and scores it. Returns the suggestions, their
/// scores, and how long the batch took from first submit to last score.
pub fn decode_and_score(
    wisdom: &Wisdom,
    scheduler: &BatchScheduler,
    batch: &[Sample],
) -> (Vec<Suggestion>, Vec<SampleScores>, Duration) {
    let started = Instant::now();
    let requests: Vec<CompletionRequest> = batch.iter().map(request_for).collect();
    let pending: Vec<_> = requests
        .iter()
        .map(|r| {
            scheduler
                .submit(wisdom.decode_request_constrained(r, Constraint::Ansible))
                .expect("queue holds a batch")
        })
        .collect();
    let suggestions: Vec<Suggestion> = requests
        .iter()
        .zip(pending)
        .map(|(request, pending)| wisdom.suggestion_from_tokens(request, &pending.wait()))
        .collect();
    let scores = batch
        .iter()
        .zip(&suggestions)
        .map(|(sample, suggestion)| score(sample, suggestion))
        .collect();
    (suggestions, scores, started.elapsed())
}

/// Checkpoint load, scheduler spawn (int8 pack), grammar index build and a
/// warm-up batch.
pub fn set_up(fixture: &Fixture) -> ((Arc<Wisdom>, BatchScheduler), f64) {
    let started = Instant::now();
    let wisdom = Arc::new(fixture::load(fixture));
    let scheduler = wisdom.scheduler(eval_config());
    let warm = CompletionRequest::new("", "warm the scheduler up");
    let suggestion = wisdom
        .try_complete_batched_constrained(&warm, &scheduler, Constraint::Ansible)
        .expect("warm-up decodes");
    assert!(!suggestion.snippet.is_empty());
    ((wisdom, scheduler), started.elapsed().as_secs_f64())
}

/// Runs the workload end to end with tracing off.
pub fn run(seed: u64, seconds: u64, fixture: &Fixture) -> Outcome {
    let samples = workload::eval_samples(&workload::galaxy_samples(seed));
    let ((wisdom, scheduler), setup_s) = median_set_up(SETUP_REPEATS, || set_up(fixture));

    let budget = WARM_UP + Duration::from_secs(seconds);
    let started = Instant::now();
    let mut measured_from = None;
    let mut latencies = Vec::new();
    let mut accepted = 0usize;
    let mut done = 0usize;
    let mut first_bodies: Vec<String> = Vec::new();
    let rss = RssAt::new(RSS_AT_BATCHES);
    // A list shorter than the run wraps around.
    for batch in samples.chunks(BATCH).cycle() {
        if started.elapsed() >= budget {
            break;
        }
        let warm = started.elapsed() >= WARM_UP;
        if warm {
            measured_from.get_or_insert_with(Instant::now);
        }
        let (suggestions, scores, total) = decode_and_score(&wisdom, &scheduler, batch);
        rss.tick();
        if first_bodies.len() < SOLO_CHECKS {
            first_bodies.extend(suggestions.into_iter().map(|s| s.body));
        }
        if !warm {
            continue;
        }
        latencies.push(total.as_secs_f64() * 1e3);
        accepted += scores.iter().filter(|s| s.schema_correct).count();
        done += batch.len();
    }
    let wall_s = measured_from.map_or(0.0, |at| at.elapsed().as_secs_f64());

    let mut outcome = Outcome {
        attempted: done as u64,
        ..Outcome::default()
    };
    // Batched output must equal the same samples decoded alone.
    let reference = reference_assistant(&wisdom, eval_config().precision);
    for (sample, body) in samples.iter().zip(&first_bodies).take(SOLO_CHECKS) {
        let solo = reference.complete_constrained(&request_for(sample), Constraint::Ansible);
        if &solo.body != body {
            eprintln!("batched output differs from solo for {:?}", sample.nl);
            outcome.failed += 1;
        }
    }
    outcome.set("latency_ms_p50", quantile(&latencies, 0.50));
    outcome.set("ops_per_s", done as f64 / wall_s);
    outcome.set("accepted_pct", 100.0 * share(accepted as f64, done as f64));
    outcome.set("peak_rss_mb", rss.mb());
    outcome.set("setup_s", setup_s);
    outcome
}
