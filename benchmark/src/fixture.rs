//! The benchmark's one input model: `Wisdom::train(&WisdomConfig::standard())`
//! verbatim, trained once per checkout and cached under
//! `benchmark/.cache/`.
//!
//! The cache key hashes the training configuration and the source of every
//! crate the training pipeline links, so a checkout whose training code
//! differs trains its own fixture. Source bytes are hashed (not a git
//! object id) because the benchmark also runs in checkouts that are not git
//! repositories.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ansible_wisdom::core::{Wisdom, WisdomConfig};

use crate::stats::{fnv1a, FNV_OFFSET};

/// Crates whose code decides what `Wisdom::train` produces (the
/// dependency closure of `wisdom-core`).
const TRAINING_CRATES: &[&str] = &[
    "ansible",
    "core",
    "corpus",
    "grammar",
    "model",
    "prng",
    "telemetry",
    "tensor",
    "tokenizer",
    "yaml",
];

/// The benchmark package's own directory (`benchmark/` of the checkout the
/// binary was built in).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A cached (or freshly trained) fixture.
pub struct Fixture {
    /// Where the serialized assistant lives; set-up reads it from here so
    /// checkpoint load is part of `setup_s`.
    pub path: PathBuf,
    /// Seconds `Wisdom::train` took when this checkout trained the fixture
    /// (informational; never part of `setup_s`).
    pub train_s: f64,
}

/// Folds every `.rs` / `.toml` file under `dir` into `state` (sorted walk;
/// paths hashed relative to `root`, so the key does not depend on where the
/// checkout lives).
fn hash_tree(root: &Path, dir: &Path, state: &mut u64) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::path);
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            hash_tree(root, &path, state)?;
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            let relative = path.strip_prefix(root).unwrap_or(&path);
            *state = fnv1a(*state, relative.to_string_lossy().as_bytes());
            *state = fnv1a(*state, &std::fs::read(&path)?);
        }
    }
    Ok(())
}

fn cache_key(config: &WisdomConfig) -> std::io::Result<String> {
    let crates = bench_dir().join("..").join("crates");
    let mut state = fnv1a(FNV_OFFSET, format!("{config:?}").as_bytes());
    for name in TRAINING_CRATES {
        hash_tree(&crates, &crates.join(name), &mut state)?;
    }
    Ok(format!("{state:016x}"))
}

fn cache_paths(key: &str) -> (PathBuf, PathBuf) {
    let cache = bench_dir().join(".cache");
    (
        cache.join(format!("fixture-{key}.ckpt")),
        cache.join(format!("fixture-{key}.train_s")),
    )
}

/// Returns the cached fixture for this checkout, training it first when no
/// cache entry matches. Training runs in a child process of this binary
/// (`train-fixture`), so its memory never shows in a workload's
/// `peak_rss_mb`.
pub fn ensure() -> std::io::Result<Fixture> {
    let (path, sidecar) = cache_paths(&cache_key(&WisdomConfig::standard())?);
    let cached = || std::fs::read_to_string(&path).is_ok_and(|text| Wisdom::load(&text).is_ok());
    if !cached() {
        let status = std::process::Command::new(std::env::current_exe()?)
            .arg("train-fixture")
            .status()?;
        if !status.success() || !cached() {
            return Err(std::io::Error::other("fixture training failed"));
        }
    }
    let train_s = std::fs::read_to_string(&sidecar)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0.0);
    Ok(Fixture { path, train_s })
}

/// Trains the fixture and writes it into the cache (the `train-fixture`
/// mode [`ensure`] spawns).
pub fn train() -> std::io::Result<()> {
    let config = WisdomConfig::standard();
    let key = cache_key(&config)?;
    let (path, sidecar) = cache_paths(&key);
    let cache = bench_dir().join(".cache");
    std::fs::create_dir_all(&cache)?;
    eprintln!("fixture: training WisdomConfig::standard() (about two minutes)…");
    let started = Instant::now();
    let wisdom = Wisdom::train(&config, None);
    let train_s = started.elapsed().as_secs_f64();
    // Drop fixtures of other source states: one checkout, one fixture.
    for entry in std::fs::read_dir(&cache)? {
        let stale = entry?.path();
        if stale
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("fixture-"))
        {
            let _ = std::fs::remove_file(stale);
        }
    }
    // Write-then-rename so a reader never sees a torn checkpoint.
    let tmp = cache.join(format!("fixture-{key}.tmp{}", std::process::id()));
    std::fs::write(&tmp, wisdom.save())?;
    std::fs::rename(&tmp, &path)?;
    std::fs::write(&sidecar, format!("{train_s}"))?;
    eprintln!("fixture: trained in {train_s:.1}s → {}", path.display());
    Ok(())
}

/// Loads the assistant from the fixture file (checkpoint load as an
/// operator pays it at every start).
pub fn load(fixture: &Fixture) -> Wisdom {
    let text = std::fs::read_to_string(&fixture.path).expect("fixture checkpoint is readable");
    Wisdom::load(&text).expect("fixture checkpoint loads")
}
