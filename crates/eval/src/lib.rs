//! The experiment harness: regenerates every table and figure of the paper.
//!
//! * [`Profile`] — scale knobs (test / quick / paper);
//! * [`Zoo`] — Table 2's model matrix with cached pre-training and
//!   fine-tuning;
//! * [`evaluate`] — the scoring runner (greedy decoding, first-task output
//!   truncation, four metrics, per-generation-type breakdown);
//! * [`run_table3`] / [`run_table4`] / [`run_table5`] /
//!   [`run_throughput`] — the paper's experiments, plus the decoding,
//!   int8-quality and grammar comparisons on the Table 5 harness;
//! * [`tables`] — plain-text renderers.
//!
//! # Examples
//!
//! Few-shot-evaluate one tiny pre-trained model end to end:
//!
//! ```no_run
//! use wisdom_eval::{evaluate, EvalSettings, Profile, SizeClass, Zoo};
//!
//! let mut zoo = Zoo::build(Profile::test());
//! let spec = *wisdom_eval::spec("Wisdom-Ansible", SizeClass::S350m).expect("in Table 2");
//! let model = zoo.fewshot_generator(&spec, None);
//! let test: Vec<_> = zoo.split.test.iter().collect();
//! let result = evaluate(&model, &test, &EvalSettings::for_profile(&zoo.profile));
//! println!("{}", result.overall);
//! ```

mod experiments;
mod profile;
mod runner;
pub mod tables;
mod zoo;

pub use experiments::{
    run_decoding_ablation, run_grammar, run_quant, run_table3, run_table4, run_table5,
    run_throughput, GrammarResult, GrammarTypeRow, Progress, QuantResult, Row, ThroughputResult,
    TypeRow,
};
pub use profile::Profile;
pub use runner::{evaluate, postprocess, EvalResult, EvalSettings, Oracle, SampleCap};
pub use zoo::{spec, PoolSelection, SizeClass, Zoo, ZooModelSpec, TABLE2};
