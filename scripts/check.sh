#!/usr/bin/env bash
# Repo gate: formatting, the docs' experiment targets and `BENCH_*.json`
# names checked against the tree, clippy (warnings are errors), a compile pass over
# every bench target so bench-only breakage is caught without running
# criterion, then the whole test suite in one invocation — every crate's
# unit, property and agreement suites, the root integration tests and the
# doc tests, with its wall time printed — the tensor crate's unit and
# property suites once more with `--release` (the explicit-intrinsics
# kernels are what ships, and a debug build never inlines them the same
# way), the curation crate's (the MinHash signature's AVX-512 twin is an
# optimized build of the portable loop, so its agreement property must run
# where it ships, and its hand-off test once more for the line that says
# how many channel messages a pass over 784 documents took) and the
# grammar crate's (its mask-equivalence property
# walks the real vocabulary through both the entry and the filtered walk, and the
# optimized build is the one that serves), printing how many masks the
# recycled pool built on each pass so a change to the cache's cap or policy
# shows in this log — the YAML crate's suites (the hostile-bytes mutation
# suite runs its fixed case budget where the parser ships, and agrees with
# the owned-tree oracle there) — the two-replica e2e burst once more for the line that
# says how many of its unique prompts each replica admitted (a router that
# follows the common `- name: ` head again reads [48.0, 0.0] here) — and a
# build + unit-test pass of the standalone
# benchmark package, so a change to a public type it
# compiles against (`DecodeRequest`'s four-field literal,
# `GenerationOptions { .., ..default() }`, `DecodeBatch::admit/step`,
# `GrammarCursor::new/apply/advance`) fails here instead of in the
# benchmark driver. A suite too slow for this gate is marked `#[ignore]`
# with the reason in the attribute, not left out of a list here. Run from
# the repository root before sending a change.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check

# Dead names in the docs: every `experiments -- <target>` they show must be
# a target `examples/experiments.rs` matches, and every `BENCH_*.json` they
# name must be in the tree. Line breaks are folded first, so a command
# wrapped across two lines is still read whole.
docs=(README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)
dead=0
for target in $(cat "${docs[@]}" | tr '\n' ' ' |
    grep -oE 'experiments(\.rs)?[[:space:]]+--[[:space:]]+[a-z0-9]+' | awk '{print $3}' | sort -u); do
    if ! grep -qE "\"$target\" (=>|\|)" examples/experiments.rs; then
        echo "dead name: docs run \`experiments -- $target\`, which examples/experiments.rs does not match"
        dead=1
    fi
done
for bench in $(cat "${docs[@]}" | grep -oE 'BENCH_[A-Za-z0-9_]+\.json' | sort -u); do
    if [[ ! -e $bench ]]; then
        echo "dead name: docs name $bench, which is not in the tree"
        dead=1
    fi
done
[[ $dead == 0 ]]

cargo clippy --workspace --all-targets -- -D warnings
cargo bench --workspace --no-run
suite_start=$SECONDS
cargo test --workspace -q
echo "cargo test --workspace -q: $((SECONDS - suite_start)) s"
cargo test --release -q -p wisdom-tensor
cargo test --release -q -p wisdom-curation
cargo test --release -q -p wisdom-curation --lib a_pass_hands_over_one_message_per_chunk -- --nocapture | grep 'hand-offs per pass'
cargo test --release -q -p wisdom-grammar -- --nocapture | grep -v '^$'
cargo test --release -q -p wisdom-yaml
cargo test -q --test server_e2e a_burst_of_unique_prompts -- --nocapture | grep 'admitted per replica'
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
