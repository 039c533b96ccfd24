#!/usr/bin/env bash
# Hermetic CI gate: build, test, format and lint the whole workspace
# without touching the network. Every dependency is in-tree, so
# `--offline` must always succeed — if it doesn't, someone broke the
# hermetic-build guarantee and this script is the tripwire.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build (release, offline)"
cargo build --release --workspace --offline

# The suite runs at two thread counts: the parallel engine guarantees
# bit-identical results regardless of CA_THREADS, and this is the
# tripwire for that guarantee (see DESIGN.md §7).
echo "==> cargo test (offline, CA_THREADS=1)"
CA_THREADS=1 cargo test -q --workspace --offline

echo "==> cargo test (offline, CA_THREADS=4)"
CA_THREADS=4 cargo test -q --workspace --offline

# The packed engine is only allowed to exist because it is bit-identical
# to the scalar solver (DESIGN.md §12). Every caller takes the packed
# path whenever a cell's kernel compiles, so the scalar reference runs
# only where a test calls it directly: this differential suite (tables,
# budgeted outcomes, detection rows and raw lanes, packed vs scalar)
# and the activation unit test that compares the two golden passes,
# which the workspace legs above already run. Run the differential
# suite at both thread counts.
echo "==> packed equivalence (packed vs scalar, CA_THREADS=1)"
CA_THREADS=1 cargo test -q --test packed_equivalence --offline

echo "==> packed equivalence (packed vs scalar, CA_THREADS=4)"
CA_THREADS=4 cargo test -q --test packed_equivalence --offline

# The binned forest trainer is only allowed to exist because its trees
# are byte-identical to the frozen row-major trainer it replaced
# (DESIGN.md §16). The differential suite compares them on every group
# of the quick SOI28 corpus, which is only affordable in release mode,
# so run it there explicitly at both thread counts.
echo "==> forest differential (binned vs reference trainer, CA_THREADS=1)"
CA_THREADS=1 cargo test -q --release -p ca-bench --test forest_differential --offline

echo "==> forest differential (binned vs reference trainer, CA_THREADS=4)"
CA_THREADS=4 cargo test -q --release -p ca-bench --test forest_differential --offline

# Product prediction (one descent per tree for a cell's stimulus x
# defect product) is only allowed to exist because it predicts the same
# models as row-wise prediction (DESIGN.md §17). Its real-corpus case
# predicts every covered quick C40 and C28 cell both ways, which is
# only affordable in release mode.
echo "==> product prediction (product vs row-wise, CA_THREADS=1)"
CA_THREADS=1 cargo test -q --release -p ca-bench --test product_prediction --offline

echo "==> product prediction (product vs row-wise, CA_THREADS=4)"
CA_THREADS=4 cargo test -q --release -p ca-bench --test product_prediction --offline

# The repository benchmark is its own package (perfbench/, outside the
# workspace) and calls the crates' public APIs. Build and test it here,
# so a change to an API it calls fails CI rather than the benchmark run.
echo "==> perfbench (benchmark package builds and its unit tests pass)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# The crash-recovery suite SIGKILLs child runs mid-library and proves the
# session store resumes to byte-identical outputs (DESIGN.md §8). Run it
# explicitly at both thread counts so the kill/resume path — not just the
# in-process tests — is exercised serial and parallel.
echo "==> crash recovery (SIGKILL + resume, CA_THREADS=1)"
CA_THREADS=1 cargo test -q --test crash_recovery --offline

echo "==> crash recovery (SIGKILL + resume, CA_THREADS=4)"
CA_THREADS=4 cargo test -q --test crash_recovery --offline

# The sharded-campaign crash matrix: real worker processes crashed
# mid-journal, hung (stdout silent past the heartbeat timeout ->
# SIGKILL), failing and unspawnable, each campaign converging to the
# single-process golden byte-for-byte (DESIGN.md §11). Both thread
# counts, like the crash-recovery gate above.
echo "==> shard supervision (worker crash matrix, CA_THREADS=1)"
CA_THREADS=1 cargo test -q --test shard_supervision --test shard_merge --offline

echo "==> shard supervision (worker crash matrix, CA_THREADS=4)"
CA_THREADS=4 cargo test -q --test shard_supervision --test shard_merge --offline

# The serving layer's robustness matrix: hostile frames, overload
# shedding, queue deadlines, wire-level drain, SIGTERM drain and a
# SIGKILL mid-campaign with byte-identical resume (DESIGN.md §13). Both
# thread counts, like every other crash gate.
echo "==> serve robustness (drain + SIGKILL resume, CA_THREADS=1)"
CA_THREADS=1 cargo test -q -p ca-serve --test serve_robustness --offline

echo "==> serve robustness (drain + SIGKILL resume, CA_THREADS=4)"
CA_THREADS=4 cargo test -q -p ca-serve --test serve_robustness --offline

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# This gate also enforces the workspace rules D1-D6, D9, D12 and D13
# (DESIGN.md §10): clippy.toml's disallowed types and methods, the crate-root
# print/dbg/unsafe/panic-path lints, and every #[expect] suppression
# (unfulfilled_lint_expectations, allow_attributes_without_reason).
echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --all-targets --workspace --offline -- -D warnings

# Those rules are only as good as their configuration. lint-fixtures/
# (a package outside the workspace) seeds one violation per rule: clippy
# must fail on it, and every seeded entry must appear in its output.
echo "==> cargo clippy (lint-fixtures: every seeded violation must fire)"
if fixture_out=$(cargo clippy --offline --manifest-path lint-fixtures/Cargo.toml -- -D warnings 2>&1); then
    echo "clippy passed lint-fixtures: the workspace lint rules no longer fire" >&2
    exit 1
fi
for want in \
    'disallowed type `std::collections::HashMap`' \
    'disallowed type `std::collections::HashSet`' \
    'disallowed type `std::hash::RandomState`' \
    'disallowed type `std::fs::OpenOptions`' \
    'disallowed method `std::time::Instant::now`' \
    'disallowed method `std::time::SystemTime::now`' \
    'disallowed method `std::fs::write`' \
    'disallowed method `std::fs::File::create`' \
    'disallowed method `std::env::var`' \
    'disallowed method `std::env::set_var`' \
    '#print_stdout' '#print_stderr' '#dbg_macro' '#undocumented_unsafe_blocks' \
    '#unwrap_used' '#expect_used' '#indexing_slicing' \
    '#allow_attributes_without_reason' 'this lint expectation is unfulfilled'; do
    if ! grep -qF -- "$want" <<<"$fixture_out"; then
        echo "$fixture_out" >&2
        echo "lint fixture did not fire: $want" >&2
        exit 1
    fi
done

# The store is the durability layer: keep it at zero clippy debt even if
# the workspace-wide gate is ever loosened.
echo "==> cargo clippy (ca-store, standalone gate)"
cargo clippy -p ca-store --all-targets --offline -- -D warnings

# Observability is always-on in every crate; its own clippy debt would
# spread everywhere, so gate it standalone like the store.
echo "==> cargo clippy (ca-obs, standalone gate)"
cargo clippy -p ca-obs --all-targets --offline -- -D warnings

# The supervisor runs unattended campaigns; a stray unwrap there kills
# a campaign instead of retrying a shard, so it gets the same standalone
# zero-debt gate as the store.
echo "==> cargo clippy (ca-shard, standalone gate)"
cargo clippy -p ca-shard --all-targets --offline -- -D warnings

# The serving daemon runs unattended and speaks to untrusted sockets; a
# panic path or unwrap in it turns hostile input into an outage, so it
# gets the same standalone zero-debt gate as the other always-on crates.
echo "==> cargo clippy (ca-serve, standalone gate)"
cargo clippy -p ca-serve --all-targets --offline -- -D warnings

# Intra-doc links name API items; a link to a renamed or deleted item,
# or an ambiguous one, fails here instead of rendering as dead text.
echo "==> cargo doc (workspace, rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The auditor keeps the rules neither clippy nor the compiler can
# express: D7 (partial float comparisons) and the cross-crate lock-order
# analysis D8 (DESIGN.md §10, §15). It must never itself carry clippy
# debt, and the workspace must audit clean with warnings denied;
# crates/audit/tests/workspace_clean.rs allows no ca-audit pragma.
echo "==> cargo clippy (ca-audit, standalone gate)"
cargo clippy -p ca-audit --all-targets --offline -- -D warnings

echo "==> ca-audit --deny warn (workspace invariant audit, D7 D8)"
cargo run -q --release --offline -p ca-audit -- --deny warn

# Opt-in Miri smoke over the byte-level codecs: undefined behaviour in
# the store's journal framing would silently corrupt every durability
# guarantee, and UB in the serve wire codec would turn hostile bytes
# into memory corruption instead of structured errors. Miri needs a
# nightly component that hermetic containers may not carry, so the
# gate only runs when asked for.
if [[ "${CA_CI_MIRI:-0}" == "1" ]]; then
    if rustup component list --installed 2>/dev/null | grep -q miri; then
        echo "==> cargo miri test (ca-store journal framing, opt-in)"
        # Only the in-memory record codec: CRC vectors and the decode
        # rejection paths. The file-backed tests need a real filesystem
        # and stay out of the interpreter.
        cargo miri test -p ca-store --lib -- crc32 decode_rejects
        echo "==> cargo miri test (ca-serve protocol codec fuzz, opt-in)"
        # The protocol fuzz suite: exhaustive truncation and bit-flip
        # sweeps over framed requests/responses must yield structured
        # errors, never UB. Socket-backed tests stay out.
        cargo miri test -p ca-serve --lib -- \
            protocol::tests::every_truncation_is_a_structured_error \
            protocol::tests::every_bit_flip_in_a_framed_request_is_contained
    else
        echo "==> CA_CI_MIRI=1 but the miri component is not installed; skipping" >&2
        exit 1
    fi
fi

# Opt-in ThreadSanitizer smoke over the lock-heavy crates: the D8
# lock-order rule proves ordering statically, TSan checks the dynamic
# half (data races) on the real test binaries. Needs the nightly
# toolchain with rust-src for -Zbuild-std, so it only runs when asked.
if [[ "${CA_CI_TSAN:-0}" == "1" ]]; then
    if rustup toolchain list 2>/dev/null | grep -q nightly; then
        echo "==> cargo test with ThreadSanitizer (ca-exec + ca-serve, opt-in)"
        TSAN_TARGET="$(rustc -vV | sed -n 's/^host: //p')"
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std --target "$TSAN_TARGET" \
            -p ca-exec -p ca-serve --lib
    else
        echo "==> CA_CI_TSAN=1 but no nightly toolchain is installed; skipping" >&2
        exit 1
    fi
fi

# The remaining gates run the release ca-bench binary built above from
# a scratch directory: the BENCH_*.json and TRACE_*.json files they
# write land there, so a CI run leaves the committed copies untouched,
# and timing the binary (not `cargo run`) keeps cargo start-up out of
# the trace-overhead ratio.
bench="$PWD/target/release/ca-bench"
gate_dir=$(mktemp -d)
trap 'rm -rf "$gate_dir"' EXIT
in_gate_dir() { (cd "$gate_dir" && "$@"); }

# Trace overhead gate: tracing is opt-in but must stay cheap enough to
# leave on for a whole campaign. Time `runs` alternating untraced and
# traced runs of the full flow profile (over 0.1 s each, so process
# start-up is a small share of it) after one untraced warm-up, and
# compare the medians: the gate fails when tracing costs more than 3%
# and more than the quartile spread of the untraced runs, the
# run-to-run noise. A run that exits non-zero fails the gate: `set -e`
# is off inside the `$(run_ms)` substitutions, so `run_ms` returns the
# failure itself and the assignment that called it stops the script.
echo "==> trace overhead (profile --profile full, CA_TRACE on vs off, <3%)"
runs=21
run_ms() {
    local t0 t1
    t0=$(date +%s%N)
    in_gate_dir env "$@" "$bench" profile --profile full >/dev/null || return 1
    t1=$(date +%s%N)
    echo $(((t1 - t0) / 1000000))
}
# Nearest-rank first quartile, median and third quartile.
quartiles() {
    printf '%s\n' "$@" | sort -n |
        awk '{ v[NR - 1] = $1 } END { n = NR - 1; print v[int(n / 4)], v[int(n / 2)], v[int(3 * n / 4)] }'
}
run_ms >/dev/null
base_ms=()
traced_ms=()
for ((i = 0; i < runs; i++)); do
    if ((i % 2 == 0)); then
        base_ms+=("$(run_ms)")
        traced_ms+=("$(run_ms CA_TRACE=1)")
    else
        traced_ms+=("$(run_ms CA_TRACE=1)")
        base_ms+=("$(run_ms)")
    fi
done
read -r base_q1 base_med base_q3 <<<"$(quartiles "${base_ms[@]}")"
read -r _ traced_med _ <<<"$(quartiles "${traced_ms[@]}")"
spread=$((base_q3 - base_q1))
echo "    untraced median ${base_med} ms (quartiles ${base_q1}-${base_q3} ms), traced median ${traced_med} ms"
awk -v base="$base_med" -v traced="$traced_med" -v spread="$spread" 'BEGIN {
    if (traced > base * 1.03 && traced - base > spread) {
        printf "trace overhead %.1f%% exceeds 3%% and the untraced spread of %d ms\n",
            (traced / base - 1) * 100, spread
        exit 1
    }
}'

# End-to-end profile gate: the instrumented flow must run, emit
# BENCH_profile.json, and that artifact must validate against schema
# ca-obs-profile/1: every counter and timer a row of ca_obs::inventory,
# and a counter under each prefix of its counter and histogram rows
# (DESIGN.md §9).
echo "==> ca-bench profile --quick (flow profile + schema check)"
in_gate_dir "$bench" profile --quick
in_gate_dir "$bench" profile-check BENCH_profile.json

# Serve load gate: daemon load-gen over a Unix socket, closed loop for
# latency percentiles and an open loop that must shed with structured
# frames; fails hard unless every served model is byte-identical to the
# batch golden and the daemon journaled each distinct cell once
# (DESIGN.md §13). At CA_THREADS=4 the closed loop's four staggered
# workers send concurrent identical requests, so the journal count
# checks that such requests append one record between them.
echo "==> ca-bench serve --quick (daemon load-gen + byte-identity)"
in_gate_dir "$bench" serve --quick
echo "==> ca-bench serve --quick (CA_THREADS=4, concurrent identical requests)"
in_gate_dir env CA_THREADS=4 "$bench" serve --quick

# Trace round-trip gate: a traced 2-shard campaign (real worker
# processes) plus one served request must stitch into a single Chrome
# trace_event JSON with every parent link resolved and the structural
# edges present — worker under shard_attempt, queue/service under the
# serve request (DESIGN.md §14). The command dies on any violation.
echo "==> ca-bench trace --quick (cross-process trace round-trip)"
in_gate_dir "$bench" trace --quick --out "$gate_dir/TRACE_campaign.json"

# Shard identity gate: a 4-shard campaign whose workers are this release
# binary itself (`ca-bench shard-worker`, beating on its stdout pipe);
# the command fails unless the sharded `.cam` exports match the
# unsharded run byte for byte (DESIGN.md §11).
echo "==> ca-bench shard --quick (4 worker processes, byte-identity)"
in_gate_dir "$bench" shard --quick

echo "==> OK"
