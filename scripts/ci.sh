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
# mid-journal, hung (heartbeat timeout -> SIGKILL), failing and
# unspawnable, each campaign converging to the single-process golden
# byte-for-byte (DESIGN.md §11). Both thread counts, like the
# crash-recovery gate above.
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

# This gate also enforces the workspace rules D1-D6, D9 and D13 (DESIGN.md
# §10): clippy.toml's disallowed types and methods, the crate-root
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

# The auditor keeps the rules clippy cannot express: D7 (partial float
# comparisons) and the cross-crate analyses D8, D11 and D12 (DESIGN.md
# §10, §15). It must never itself carry clippy debt, and the workspace
# must audit clean with warnings denied; its one pragma site is pinned
# by crates/audit/tests/workspace_clean.rs.
echo "==> cargo clippy (ca-audit, standalone gate)"
cargo clippy -p ca-audit --all-targets --offline -- -D warnings

echo "==> ca-audit --deny warn (workspace invariant audit, D7 D8 D11 D12)"
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
# leave on for a whole campaign. Compare the quick flow profile's
# wall-clock with tracing off vs on; fail if tracing costs >3%. One
# untraced warm-up first so both measured runs hit a warm store path.
echo "==> trace overhead (profile --quick, CA_TRACE on vs off, <3%)"
in_gate_dir "$bench" profile --quick >/dev/null
base_s=$( { time -p in_gate_dir "$bench" profile --quick >/dev/null; } 2>&1 | awk '/^real/{print $2}')
traced_s=$( { time -p in_gate_dir env CA_TRACE=1 "$bench" profile --quick >/dev/null; } 2>&1 | awk '/^real/{print $2}')
echo "    untraced ${base_s}s, traced ${traced_s}s"
awk -v base="$base_s" -v traced="$traced_s" 'BEGIN {
    # Sub-second quick runs jitter by scheduling noise; gate on the
    # ratio but always allow 50 ms of absolute slack.
    if (traced > base * 1.03 && traced - base > 0.05) {
        printf "trace overhead %.1f%% exceeds 3%%\n", (traced / base - 1) * 100
        exit 1
    }
}'

# End-to-end profile gate: the instrumented flow must run, emit
# BENCH_profile.json, and that artifact must validate against schema
# ca-obs-profile/1 with counters from all seven instrumented crates
# (DESIGN.md §9). profile-check runs from the repository root so its
# required prefixes come from the sources' metric inventory, which
# fails the gate if they drift from the baked-in list.
echo "==> ca-bench profile --quick (flow profile + schema check)"
in_gate_dir "$bench" profile --quick
"$bench" profile-check "$gate_dir/BENCH_profile.json"

# Serve load gate: daemon load-gen over a Unix socket, closed loop for
# latency percentiles and an open loop that must shed with structured
# frames; fails hard unless every served model is byte-identical to the
# batch golden (DESIGN.md §13).
echo "==> ca-bench serve --quick (daemon load-gen + byte-identity)"
in_gate_dir "$bench" serve --quick

# Trace round-trip gate: a traced 2-shard campaign (real worker
# processes) plus one served request must stitch into a single Chrome
# trace_event JSON with every parent link resolved and the structural
# edges present — worker under shard_attempt, queue/service under the
# serve request (DESIGN.md §14). The command dies on any violation.
echo "==> ca-bench trace --quick (cross-process trace round-trip)"
in_gate_dir "$bench" trace --quick --out "$gate_dir/TRACE_campaign.json"

echo "==> OK"
