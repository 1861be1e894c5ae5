//! The composed benchmark of the Ansible Wisdom reproduction.
//!
//! ```text
//! wisdom-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//! wisdom-benchmark run [--seed N] [--workload W] [--seconds S] [--traced] [--selftest] [--record FILE]
//! wisdom-benchmark manifest                                        prints BENCHMARK.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command resolves to. `run`
//! is the same thing for people: every workload (or one) in its own child
//! process, every metric printed by name with unit and bound.

mod client;
mod curate;
mod fixture;
mod offline;
mod report;
mod serving;
mod stats;
mod trace;
mod traced;
mod workload;

use std::process::{Command, ExitCode, Stdio};

use ansible_wisdom::server::{parse_json, Json};

use report::{Outcome, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// Default workload seed; never the fixture's training seed (`0xBEE`).
const DEFAULT_SEED: u64 = 0xF00D;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    selftest: bool,
    /// `run --record FILE`: also write every result, with the host and the
    /// commit, as one JSON document (how `baseline/` is produced).
    record: Option<String>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        traced: false,
        selftest: false,
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.0 == name) {
                    return Err(format!("unknown workload {name}"));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = parse_u64(value()?).ok_or("--seed: not a number")?,
            "--seconds" => {
                parsed.seconds = parse_u64(value()?)
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds: a whole number from 1 to 60")?;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".to_string()),
                }
            }
            "--traced" => parsed.traced = true,
            "--selftest" => parsed.selftest = true,
            "--record" => parsed.record = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// One run of one workload in this process.
fn run_workload(name: &str, args: &Args) -> Outcome {
    if args.traced {
        return traced::run(name, args.seed, args.seconds);
    }
    if name == "curate_corpus" {
        // Zero model calls: this workload never touches the fixture.
        return curate::run(args.seed, args.seconds);
    }
    let fixture = fixture::ensure().expect("fixture cache under benchmark/.cache");
    match name {
        "editor_sessions" | "cold_prompts" => serving::run(name, args.seed, args.seconds, &fixture),
        "offline_eval" => offline::run(args.seed, args.seconds, &fixture),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Runs `workload` in a child process of this binary and parses the result
/// line, so set-up time and peak memory are that workload's own.
fn run_child(workload: &str, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    parse_json(last).map_err(|e| format!("{workload}: {e}"))
}

fn metric_value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn print_result(workload: &str, result: &Json, traced: bool) {
    let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "\n== {workload} ({}) — attempted {} failed {} correct {}",
        if traced {
            "traced pass"
        } else {
            "end to end, tracing off"
        },
        count("attempted"),
        count("failed"),
        result
            .get("correct")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );
    if traced {
        for (name, unit, better) in PER_LAYER {
            println!(
                "{name:<52} {:>16.4} {unit:<8} {better} is better",
                metric_value(result, name)
            );
        }
    } else {
        for m in END_TO_END {
            println!(
                "{:<52} {:>16.4} {:<8} {} is better, bound {}",
                m.name,
                metric_value(result, m.name),
                m.unit,
                m.better,
                m.bound
            );
        }
    }
}

/// What the numbers were measured on: cores, CPU features, commit.
fn host() -> Json {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let flags = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("flags"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_default();
    let interesting: Vec<Json> = flags
        .split_whitespace()
        .filter(|f| {
            f.starts_with("avx") || f.starts_with("sse4") || f.starts_with("amx") || *f == "fma"
        })
        .map(|f| Json::Str(f.to_string()))
        .collect();
    let git_sha = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(fixture::bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    Json::obj(vec![
        ("nproc", Json::Num(cores as f64)),
        ("cpu_features", Json::Arr(interesting)),
        ("git_sha", Json::Str(git_sha)),
    ])
}

/// `run`: every selected workload once, printed for people.
fn run_all(args: &Args) -> Result<bool, String> {
    println!("host: {}", host().to_text());
    let mut all_correct = true;
    let mut results = Vec::new();
    for (workload, _) in selected(args) {
        let result = run_child(workload, args)?;
        print_result(workload, &result, args.traced);
        all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        results.push((*workload, result));
    }
    if let Some(path) = &args.record {
        let document = Json::obj(vec![
            ("host", host()),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds as f64)),
            ("traced", Json::Bool(args.traced)),
            ("results", Json::obj(results)),
        ]);
        std::fs::write(path, document.to_text() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(all_correct)
}

fn selected(args: &Args) -> impl Iterator<Item = &'static (&'static str, &'static str)> + '_ {
    WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == w.0))
}

/// `run --selftest`: two back-to-back sets of the same build. Prints, per
/// end-to-end metric × workload, how much worse the second set read than
/// the first relative to the bound, and fails on a breach. This is how the
/// bounds in `BENCHMARK.json` are derived and re-checked.
fn selftest(args: &Args) -> Result<bool, String> {
    let args = Args {
        traced: false,
        ..args.clone()
    };
    let mut within = true;
    for (workload, _) in selected(&args) {
        let first = run_child(workload, &args)?;
        let second = run_child(workload, &args)?;
        println!("\n== {workload}: second set against first");
        for m in END_TO_END {
            let (a, b) = (metric_value(&first, m.name), metric_value(&second, m.name));
            let worse = if m.better == "lower" {
                (b - a) / a
            } else {
                (a - b) / a
            };
            let breach = worse > m.bound;
            within &= !breach;
            println!(
                "{:<20} {:>14.4} {:>14.4} {:<6} worse by {:>+8.4} of bound {:<5} {}",
                m.name,
                a,
                b,
                m.unit,
                worse,
                m.bound,
                if breach { "BREACH" } else { "ok" }
            );
        }
        for result in [&first, &second] {
            within &= result.get("correct").and_then(Json::as_bool) == Some(true);
        }
    }
    Ok(within)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", report::manifest());
            return ExitCode::SUCCESS;
        }
        Some("train-fixture") => {
            // Spawned by `fixture::ensure`, never by people.
            return match fixture::train() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("wisdom-benchmark: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("run") => ("run", &argv[1..]),
        _ => ("driver", &argv[..]),
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("wisdom-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if mode == "run" {
        let outcome = if args.selftest {
            selftest(&args)
        } else {
            run_all(&args)
        };
        return match outcome {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("wisdom-benchmark: {message}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload.clone() else {
        eprintln!("wisdom-benchmark: --workload is required (or use `run`)");
        return ExitCode::from(2);
    };
    let outcome = run_workload(&workload, &args);
    println!("{}", outcome.to_json(args.traced).to_text());
    // A failed output check still reports (`correct: false`); the driver
    // reads the verdict from the result line.
    ExitCode::SUCCESS
}
