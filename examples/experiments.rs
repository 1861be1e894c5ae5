//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release --example experiments -- all quick
//! cargo run --release --example experiments -- table3 test
//! cargo run --release --example experiments -- throughput
//! ```
//!
//! Targets: `table1`, `table2`, `table3`, `table4`, `table5`, `tables45`,
//! `throughput`, `decoding`, `quant`, `grammar`, `all`.
//! Profiles: `test` (seconds), `fast`, `quick` (default), `paper`.
//!
//! The `grammar` target additionally writes its measurements to
//! `BENCH_grammar.json` in the working directory. Serving-speed numbers
//! (batching, prefix cache, speculation, int8 decode speed, replicas,
//! curation) come from the composed benchmark under `benchmark/`.

use std::time::Instant;

use ansible_wisdom::corpus::{Corpus, CorpusStats};
use ansible_wisdom::eval::{
    run_decoding_ablation, run_grammar, run_quant, run_table3, run_table4, run_table5,
    run_throughput, tables, GrammarResult, Profile, Progress, Zoo,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let target = args.first().map(String::as_str).unwrap_or("all");
    let profile_name = args.get(1).map(String::as_str).unwrap_or("quick");
    let Some(profile) = Profile::by_name(profile_name) else {
        eprintln!("unknown profile {profile_name:?}; use test|quick|paper");
        std::process::exit(2);
    };
    println!("# Ansible Wisdom reproduction — target={target} profile={profile_name}");
    println!(
        "# seed={} corpus_scale=1/{} ctx_scale=1/{}\n",
        profile.seed, profile.corpus_scale, profile.ctx_scale
    );

    let started = Instant::now();
    match target {
        "table1" => table1(&profile),
        "tables45" => {
            let mut zoo = build_zoo(profile);
            print!("{}", tables::table4_text(&run_table4(&mut zoo, progress())));
            println!();
            print!("{}", tables::table5_text(&run_table5(&mut zoo, progress())));
        }
        "decoding" => {
            let mut zoo = build_zoo(profile);
            let rows = run_decoding_ablation(&mut zoo, progress());
            println!("Decoding-strategy ablation (extension; paper §5.2 expectation)");
            for r in &rows {
                println!("  {:<28} {}", r.model, r.metrics);
            }
        }
        "table2" => print!("{}", tables::table2_text()),
        "table3" | "table4" | "table5" => {
            let mut zoo = build_zoo(profile);
            match target {
                "table3" => print!("{}", tables::table3_text(&run_table3(&mut zoo, progress()))),
                "table4" => print!("{}", tables::table4_text(&run_table4(&mut zoo, progress()))),
                _ => print!("{}", tables::table5_text(&run_table5(&mut zoo, progress()))),
            }
        }
        "quant" => {
            let mut zoo = build_zoo(profile);
            print!("{}", tables::quant_text(&run_quant(&mut zoo, progress())));
        }
        "grammar" => {
            let mut zoo = build_zoo(profile);
            let r = run_grammar(&mut zoo, progress());
            print!("{}", tables::grammar_text(&r));
            write_bench_grammar(&r, profile_name);
        }
        "throughput" => throughput(&profile),
        "all" => {
            table1(&profile);
            println!();
            print!("{}", tables::table2_text());
            println!();
            let mut zoo = build_zoo(profile);
            print!("{}", tables::table3_text(&run_table3(&mut zoo, progress())));
            println!();
            print!("{}", tables::table4_text(&run_table4(&mut zoo, progress())));
            println!();
            print!("{}", tables::table5_text(&run_table5(&mut zoo, progress())));
            println!();
            throughput(&profile);
        }
        other => {
            eprintln!("unknown target {other:?}");
            std::process::exit(2);
        }
    }
    println!("\n# done in {:.1}s", started.elapsed().as_secs_f64());
}

fn build_zoo(profile: Profile) -> Zoo {
    eprintln!("[building corpus, splits, tokenizer…]");
    let zoo = Zoo::build(profile);
    eprintln!(
        "[corpus ready: {} galaxy files, {} train / {} valid / {} test samples, vocab {}]",
        zoo.corpus.galaxy.len(),
        zoo.split.train.len(),
        zoo.split.valid.len(),
        zoo.split.test.len(),
        zoo.tokenizer.vocab_size()
    );
    zoo
}

type ProgressCb = dyn FnMut(&str, usize, usize);

fn progress() -> Progress<'static> {
    // Leaking one closure per process keeps the API simple for an example.
    let cb: Box<ProgressCb> = Box::new(|phase, _s, _t| {
        eprintln!("[{phase}]");
    });
    Some(Box::leak(cb))
}

fn table1(profile: &Profile) {
    let corpus = Corpus::build(&profile.corpus_spec());
    print!("{}", corpus.table1());
    println!(
        "(counts are the paper's Table 1 divided by {}; dedup is exact-match)",
        profile.corpus_scale
    );
    println!();
    print!("{}", CorpusStats::of(&corpus).report());
}

fn throughput(profile: &Profile) {
    let r = run_throughput(profile, 96);
    print!("{}", tables::throughput_text(&r));
}

/// Writes the grammar-constrained decoding measurements to
/// `BENCH_grammar.json` so the repo records the per-type Schema Correct
/// deltas and the parse/lint audit the README quotes.
fn write_bench_grammar(r: &GrammarResult, profile_name: &str) {
    let metrics = |m: &ansible_wisdom::metrics::MetricsSummary| {
        format!(
            "{{\"schema_correct\": {:.2}, \"exact_match\": {:.2}, \"bleu\": {:.2}, \
             \"ansible_aware\": {:.2}, \"samples\": {}}}",
            m.schema_correct, m.exact_match, m.bleu, m.ansible_aware, m.count
        )
    };
    let mut rows = String::new();
    for (i, row) in r.rows.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"type\": \"{}\", \"count\": {}, \"unconstrained\": {}, \
             \"constrained\": {}, \"deltas\": {{\"schema_correct\": {:.2}, \
             \"ansible_aware\": {:.2}, \"bleu\": {:.2}}}}}",
            row.label,
            row.count,
            metrics(&row.unconstrained),
            metrics(&row.constrained),
            row.schema_delta(),
            row.aware_delta(),
            row.bleu_delta()
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"grammar-constrained decoding\",\n  \"profile\": \"{}\",\n  \
         \"constraint\": \"{}\",\n  \
         \"harness\": \"Table 5 (fine-tuned CodeGen-Multi, ctx 1024, greedy)\",\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"audit\": {{\"completions\": {}, \"parsed\": {}, \"lint_clean\": {}}}\n}}\n",
        profile_name, r.constraint, rows, r.completions, r.parsed, r.lint_clean
    );
    match std::fs::write("BENCH_grammar.json", &json) {
        Ok(()) => eprintln!("[wrote BENCH_grammar.json]"),
        Err(e) => eprintln!("[failed to write BENCH_grammar.json: {e}]"),
    }
}
