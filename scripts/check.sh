#!/usr/bin/env bash
# Repo gate: formatting, the docs' experiment targets, `BENCH_*.json`
# names, Rust item names (`UpperCamel` paths, bare `snake_case` and bare
# single words),
# metric families and ledger metric names checked against the tree,
# clippy (warnings are errors), a compile pass over every bench target so
# bench-only breakage is caught without running criterion, then the whole
# test suite in one invocation — every crate's unit, property and agreement
# suites, the root integration tests and the
# doc tests, with its wall time printed — the tensor crate's unit and
# property suites once more with `--release` (the explicit-intrinsics
# kernels are what ships, and a debug build never inlines them the same
# way; its attention property suite pins the AVX-512 body and the portable
# one to the row-major oracle), the model crate's served-shape agreement
# suite and golden logits digest (4 and 7 heads of 16, the width the
# attention kernel's vector body takes), its golden draft digest
# (speculative decoding on a memorizing model) and its golden constrained
# digest (greedy, drafting, top-k and beam rows under the Ansible grammar:
# tokens plus masked / forced / fused / mask-build counts), timed, the curation crate's
# (the MinHash signature's AVX-512 twin is an optimized build of the
# portable loop, so its agreement property must run where it ships, and
# its hand-off test once more for the line that says how many channel
# messages a pass over 784 documents took) and the
# grammar crate's (its mask-equivalence property
# walks the real vocabulary through both the entry and the filtered walk, and the
# optimized build is the one that serves), printing how many masks the
# recycled pool built on each pass so a change to the cache's cap or policy
# shows in this log, and the line of its completeness test that says how
# much lint-clean gold walks to acceptance (`test N/66 train N/619 galaxy
# N/224`), so a change to the automaton's language shows here too — the YAML
# crate's suites (the hostile-bytes mutation
# suite runs its fixed case budget where the parser ships, and agrees with
# the owned-tree oracle there) — a batch of 8 on a two-worker scheduler in
# release, for the line that says how many requests and decode rounds each
# worker took (4 and the budget each: the batch splits 4 + 4) — the two-replica e2e burst once more for the line that
# says how many of its unique prompts each replica admitted (a router that
# follows the common `- name: ` head again reads [48.0, 0.0] here) — the
# decoding ablation at the `test` profile, whose greedy / beam-4 / top-k
# rows must equal `scripts/decoding-ablation-test.txt` byte for byte (the
# run is deterministic, so a change that moves a decoded token of any
# strategy shows as a moved row) — and a
# build + unit-test pass of the standalone
# benchmark package (its committed Cargo.lock restored afterwards), so a
# change to a public type it compiles against (`DecodeRequest`'s four-field literal,
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
# Every Rust item name they show in backticks — `UpperCamel` or
# `UpperCamel::item`, bare or followed by `(` / `<` — must be defined in
# the code (a type, trait, variant, fn, const, field or module), or be one
# of the std names below.
std_names=" Arc Box Cow Vec VecDeque String HashMap HashSet BTreeMap BTreeSet Option Some None
    Result Ok Err Mutex Condvar RwLock AtomicBool AtomicU64 AtomicUsize Ordering Release Instant
    Duration Iterator Send Sync Clone Copy Default Debug Display PartialEq Eq Hash Drop From "
defined=$({
    grep -rhoE '\b(struct|enum|trait|type|union|fn|const|static|mod)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*' \
        crates vendor benchmark/src tests examples --include='*.rs' | awk '{print $2}'
    # Enum variants (and struct literals) open a line; fields are `name:`.
    grep -rhoE '^[[:space:]]*[A-Z][A-Za-z0-9]*[[:space:]]*([({,]|$)' \
        crates vendor benchmark/src tests examples --include='*.rs' | grep -oE '[A-Z][A-Za-z0-9]*'
    grep -rhoE '^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?[a-z_][a-z0-9_]*:[[:space:]]' \
        crates vendor benchmark/src tests examples --include='*.rs' | grep -oE '[a-z_][a-z0-9_]*:' | tr -d :
} | sort -u)
for token in $(cat "${docs[@]}" | grep -oE '`[A-Z][a-z][A-Za-z0-9]*(::[A-Za-z_][A-Za-z0-9_]*)?[`(<]' |
    tr -d '`(<' | sort -u); do
    name=${token%%::*}
    item=${token#"$name"}
    item=${item#::}
    [[ $std_names == *" $name "* ]] && continue
    if ! grep -qxF "$name" <<<"$defined" || { [[ -n $item ]] && ! grep -qxF "$item" <<<"$defined"; }; then
        echo "dead name: the docs name \`$token\`, which no code under crates/, vendor/, benchmark/src, tests/ or examples/ defines:"
        grep -nE "\`$token[\`(<]" "${docs[@]}" | cut -c1-120
        dead=1
    fi
done
# Every bare snake_case name they show in backticks with an underscore in it
# — `prefill_continue`, bare or followed by `(` — must be defined the same
# way, or be a Rust file's stem (a test, bench or example target), a name
# the code spells inside a string literal (a label value, a JSON key, a
# bench id), a workload or a dot-separated part of a metric name in
# `BENCHMARK.json`, or one of the non-Rust words below. `wisdom_…` names
# are the metric step's.
snake_names=" hash_one pop_first pop_last try_recv write_all parking_lot "
snake_defined=$({
    echo "$defined"
    find crates vendor benchmark/src tests examples -name '*.rs' -exec basename {} .rs \;
    grep -rhoE '"[^"]*"' crates vendor benchmark/src tests examples --include='*.rs' |
        grep -oE '[a-z][a-z0-9]*(_[a-z0-9]+)+'
    grep -oE '"name": *"[a-z0-9_.]+"' BENCHMARK.json | cut -d'"' -f4 | tr . '\n'
} | sort -u)
for token in $(cat "${docs[@]}" | grep -oE '`[a-z][a-z0-9]*(_[a-z0-9]+)+[`(]' | tr -d '`(' |
    grep -v '^wisdom_' | sort -u); do
    [[ $snake_names == *" $token "* ]] && continue
    if ! grep -qxF "$token" <<<"$snake_defined"; then
        echo "dead name: the docs name \`$token\`, which no code under crates/, vendor/, benchmark/src, tests/ or examples/ defines:"
        grep -nE "\`$token[\`(]" "${docs[@]}" | cut -c1-120
        dead=1
    fi
done
# Every bare single-word name they show in backticks — `prefill`, bare or
# followed by `(` — must pass the same way, be a vendored crate, or be a
# whole string literal in the code (a label value, a JSON key, an
# `experiments` target). Short hex commit ids pass, and so do the words
# below: std, libm and instruction names, tools and crates the docs name
# without the tree defining them, and two data fragments (`lo` of the
# quantization formula, `bc` of a YAML example).
word_names=" ceil min mul xor shift unsafe mpsc expf floorf tanhf cmp rand serde lo bc "
word_defined=$({
    echo "$snake_defined"
    ls vendor
    grep -rhoE '"[a-z][a-z0-9]*"' crates vendor benchmark/src tests examples --include='*.rs' | tr -d '"'
} | sort -u)
for token in $(cat "${docs[@]}" | grep -oE '`[a-z][a-z0-9]*[`(]' | tr -d '`(' | sort -u); do
    [[ $word_names == *" $token "* || $token =~ ^[0-9a-f]{7,}$ ]] && continue
    if ! grep -qxF "$token" <<<"$word_defined"; then
        echo "dead name: the docs name \`$token\`, which no code under crates/, vendor/, benchmark/src, tests/ or examples/ defines:"
        grep -nE "\`$token[\`(]" "${docs[@]}" | cut -c1-120
        dead=1
    fi
done
# Every metric family they show in backticks — `wisdom_…`, with a
# histogram series' `_count` / `_sum` / `_bucket` suffix folded into its
# family, and `wisdom_grammar_*` read as "some family with this prefix" —
# must be a string literal under crates/*/src. A crate path followed by
# `::` (`wisdom_yaml::parse`) is not a metric.
for token in $(cat "${docs[@]}" | grep -oE '`wisdom_[a-z0-9_]+(::)?' | grep -v '::$' | tr -d '`' | sort -u); do
    family=$(sed -E 's/_(count|sum|bucket)$//' <<<"$token")
    if [[ $family == *_ ]]; then
        pattern="\"$family[a-z0-9_]+\""
    else
        pattern="\"($family|$token)\""
    fi
    if ! grep -rqE "$pattern" crates/*/src --include='*.rs'; then
        echo "dead name: the docs name the metric \`$token\`, which no string literal under crates/*/src names:"
        grep -nE "\`$token" "${docs[@]}" | cut -c1-120
        dead=1
    fi
done
# Every ledger metric they show in backticks — a name that starts with one
# of the layers `BENCHMARK.json` lists (`model.prefix_cache.hit_token_share`)
# — must be one `BENCHMARK.json` lists, after `{a,b}` groups are expanded.
# `prefix.*` must be the prefix of a listed metric, and so must `ablate.<arm>`
# name an arm; FQCNs (`ansible.builtin.copy`) and file names are not metrics.
expand_groups() {
    if [[ $1 =~ ^([^{]*)\{([^{}]*)\}(.*)$ ]]; then
        local head=${BASH_REMATCH[1]} tail=${BASH_REMATCH[3]} alt
        local -a alts
        IFS=, read -ra alts <<<"${BASH_REMATCH[2]}"
        for alt in "${alts[@]}"; do
            expand_groups "$head$alt$tail"
        done
    else
        echo "$1"
    fi
}
ledger=$(grep -oE '"name": *"[a-z0-9_.]+"' BENCHMARK.json | cut -d'"' -f4)
layers=$(grep -oE '^[a-z]+\.' <<<"$ledger" | tr -d . | sort -u | paste -sd'|')
while read -r token; do
    [[ $token =~ ^ansible\.[a-z0-9_]+\. || $token =~ \.(rs|json|md|toml|sh)$ ]] && continue
    while read -r name; do
        if [[ $name == *.\* ]]; then
            [[ $'\n'$ledger == *$'\n'"${name%\*}"* ]] && continue
        elif [[ $name =~ ^ablate\.[a-z0-9_]+$ ]]; then
            [[ $'\n'$ledger == *$'\n'"$name."* ]] && continue
        else
            [[ $'\n'$ledger$'\n' == *$'\n'"$name"$'\n'* ]] && continue
        fi
        echo "dead name: the docs name the ledger metric \`$name\`, which BENCHMARK.json does not list:"
        grep -nF "\`$token\`" "${docs[@]}" | cut -c1-120
        dead=1
    done < <(expand_groups "$token")
done < <(cat "${docs[@]}" | grep -oE "\`($layers)\.[A-Za-z0-9_.{},*]+\`" | tr -d '`' | sort -u)
[[ $dead == 0 ]]

cargo clippy --workspace --all-targets -- -D warnings
cargo bench --workspace --no-run
suite_start=$SECONDS
cargo test --workspace -q
echo "cargo test --workspace -q: $((SECONDS - suite_start)) s"
cargo test --release -q -p wisdom-tensor
served_start=$SECONDS
cargo test --release -q -p wisdom-model --test served_shape_agreement --test logits_digest \
    --test draft_digest --test constrained_digest
echo "served-shape agreement + logits, draft and constrained digests (release): $((SECONDS - served_start)) s"
cargo test --release -q -p wisdom-curation
cargo test --release -q -p wisdom-curation --lib a_pass_hands_over_one_message_per_chunk -- --nocapture | grep 'hand-offs per pass'
cargo test --release -q -p wisdom-grammar -- --nocapture | grep -v '^$'
cargo test --release -q -p wisdom-grammar --test automaton_completeness -- --nocapture |
    grep -oE 'test [0-9]+/[0-9]+ train [0-9]+/[0-9]+ galaxy [0-9]+/[0-9]+'
cargo test --release -q -p wisdom-yaml
cargo test --release -q -p wisdom-model --lib a_batch_of_eight_decodes_four_and_four -- --nocapture |
    grep 'admitted per worker'
cargo test -q --test server_e2e a_burst_of_unique_prompts -- --nocapture | grep 'admitted per replica'
cargo run --release -q --example experiments -- decoding test 2>/dev/null |
    grep '^  CodeGen-Multi \[' | diff scripts/decoding-ablation-test.txt -
# Cargo re-resolves the benchmark's own lock file on this build; the
# committed one is put back on exit, so the gate leaves benchmark/ as it was.
lock_copy=$(mktemp)
cp benchmark/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" benchmark/Cargo.lock; rm -f "$lock_copy"' EXIT
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
