//! The borrowing parser against the owned-tree oracle on every document of
//! the curation benchmark's corpus: the same trees (or the same error line
//! and message) and byte-identical `emit` output.

mod oracle;

use wisdom_corpus::{Corpus, CorpusSpec};

#[test]
fn every_benchmark_corpus_document_parses_as_the_oracle_does() {
    let corpus = Corpus::build(&CorpusSpec::scaled(0xF00D, 1000));
    let channels = [
        &corpus.galaxy,
        &corpus.gitlab,
        &corpus.github_ansible,
        &corpus.generic,
    ];
    let mut checked = 0;
    for doc in channels.into_iter().flatten() {
        oracle::assert_agrees(doc);
        checked += 1;
    }
    assert!(checked > 1500, "only {checked} documents");
}
