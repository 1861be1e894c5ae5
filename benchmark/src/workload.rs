//! Workload inputs: the program under test only ever receives the requests
//! built here.
//!
//! Prompts come from held-out Galaxy files of a corpus generated with the
//! benchmark's own content seed (never the fixture's training seed), walked
//! the way an editor walks a file: the first task from its name alone,
//! every later task with the file so far as context.
//!
//! `--seed` decides the order — which files are walked first, which two
//! sessions run side by side, which intents a cold client asks for and how
//! they are disambiguated, in which order documents reach the curator —
//! but not the content pool. A request's cost here is heavy-tailed and
//! clusters by file (a completion that runs into its token budget is
//! several times dearer than one that does not), so two corpora drawn from
//! two seeds differ in total work by a tenth; a benchmark whose runs differ
//! by a tenth before the program changes cannot hold a bound of a tenth.
//! One pool in a seed-chosen order keeps every run on the same work.

use ansible_wisdom::core::CompletionRequest;
use ansible_wisdom::corpus::{extract_samples, Corpus, CorpusSpec, GenType, Sample};
use ansible_wisdom::curation::{corpus_docs, DocKind, InputDoc};
use ansible_wisdom::prng::Prng;

use crate::stats::{fnv1a, FNV_OFFSET};

/// Seed of the content pool (the ISSUE's default workload seed).
const CONTENT_SEED: u64 = 0xF00D;
/// Corpus divisor for prompt generation: 224 Galaxy files. Request lists
/// are walked for a fixed time, not a fixed count, and wrap around when
/// they run out; at the seed commit a run gets through most of one pass.
const PROMPT_SCALE: usize = 500;
/// Corpus divisor for the curation workload (about 3.5k documents, so one
/// pass takes under a tenth of a second and a run yields a usable p90).
const CURATION_SCALE: usize = 1000;
/// Exact and near duplicates injected into the curation corpus.
const INJECTED_EXACT: usize = 24;
const INJECTED_NEAR: usize = 24;

/// The completion request an editor sends for `sample`: the file so far as
/// context, the task's name as the intent.
pub fn request_for(sample: &Sample) -> CompletionRequest {
    CompletionRequest::new(sample.context.clone(), sample.nl.clone())
}

/// Samples of every held-out Galaxy file, grouped by file, files in the
/// order `seed` shuffles them into.
pub fn galaxy_samples(seed: u64) -> Vec<Vec<Sample>> {
    let mut spec = CorpusSpec::scaled(CONTENT_SEED, PROMPT_SCALE);
    // Only the Galaxy channel feeds prompts; keep the rest at their floor.
    let floor = CorpusSpec::scaled(CONTENT_SEED, usize::MAX);
    spec.gitlab_files = floor.gitlab_files;
    spec.github_ansible_files = floor.github_ansible_files;
    spec.generic_files = floor.generic_files;
    spec.pile_docs = floor.pile_docs;
    spec.bigquery_docs = floor.bigquery_docs;
    spec.bigpython_docs = floor.bigpython_docs;
    let mut files: Vec<Vec<Sample>> = Corpus::build(&spec)
        .galaxy
        .iter()
        .map(|file| extract_samples(file))
        .filter(|samples| !samples.is_empty())
        .collect();
    Prng::seed_from_u64(seed).shuffle(&mut files);
    files
}

/// `editor_sessions`: one session per file — its samples in file order, so
/// the context grows by one task per request — with every third request
/// followed by an identical re-trigger.
pub fn editor_sessions(files: &[Vec<Sample>]) -> Vec<Vec<CompletionRequest>> {
    files
        .iter()
        .map(|samples| {
            let mut session = Vec::new();
            for (i, sample) in samples.iter().enumerate() {
                session.push(request_for(sample));
                if i % 3 == 2 {
                    session.push(request_for(sample));
                }
            }
            session
        })
        .collect()
}

/// `cold_prompts`: the distinct context-free intents (NL→T, NL→PB) of the
/// corpus. [`cold_request`] makes request `i` unique.
pub fn cold_intents(files: &[Vec<Sample>]) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    files
        .iter()
        .flatten()
        .filter(|s| matches!(s.gen_type, GenType::NlToT | GenType::NlToPb))
        .filter(|s| seen.insert(s.nl.as_str()))
        .map(|s| s.nl.clone())
        .collect()
}

/// The `i`-th cold request: intent `i mod n`, led by a three-letter tag made
/// from the intent's own hash and the number of the pass over the intents.
/// No two requests of a run share a prompt, and because the tag comes first
/// and its first letter already differs between most requests, few share
/// more of one than `- name: `. The tag does not depend on the seed: the
/// same intent under the same tag costs the same in every run, whatever
/// order the seed chose.
pub fn cold_request(intents: &[String], first_pass: usize, i: usize) -> CompletionRequest {
    let (intent, pass) = (&intents[i % intents.len()], first_pass + i / intents.len());
    let mut n = fnv1a(FNV_OFFSET, intent.as_bytes()) as usize + pass;
    let tag: String = (0..3)
        .map(|_| {
            let letter = char::from(b'a' + (n % 26) as u8);
            n /= 26;
            letter
        })
        .collect();
    CompletionRequest::new("", format!("{tag}: {intent}"))
}

/// `offline_eval`: every sample, flattened in file order.
pub fn eval_samples(files: &[Vec<Sample>]) -> Vec<Sample> {
    files.iter().flatten().cloned().collect()
}

/// `curate_corpus`: the YAML channels of the content corpus plus injected
/// exact and near duplicates of its own Ansible documents, the list rotated
/// to start where `seed` says.
pub fn curation_docs(seed: u64) -> Vec<InputDoc> {
    let corpus = Corpus::build(&CorpusSpec::scaled(CONTENT_SEED, CURATION_SCALE));
    let mut docs = corpus_docs(&corpus);
    let mut rng = Prng::seed_from_u64(CONTENT_SEED ^ 0xd0c5);
    let originals = docs.len();
    for _ in 0..INJECTED_EXACT {
        let copy = docs[rng.range_usize(0, originals)].clone();
        docs.push(copy);
    }
    let mut injected = 0;
    let mut at = 0;
    while injected < INJECTED_NEAR && at < originals {
        let doc = &docs[at];
        at += 1;
        // Long Ansible documents only: a one-line edit must leave the
        // shingle sets overwhelmingly shared.
        if doc.kind != DocKind::Ansible || doc.text.len() < 600 {
            continue;
        }
        let mut text = doc.text.clone();
        text.push_str(&format!("# mirrored copy {}\n", rng.range_usize(10, 99)));
        docs.push(InputDoc {
            source: "injected".to_string(),
            kind: DocKind::Ansible,
            text,
        });
        injected += 1;
    }
    // Rotated, not shuffled: how much the dedup stages do depends on which
    // of two similar documents arrives first, and a shuffle moves a pass's
    // cost by a quarter from seed to seed. A rotation changes who is first
    // only at the seam.
    let pivot = Prng::seed_from_u64(seed).range_usize(0, docs.len());
    docs.rotate_left(pivot);
    docs
}
