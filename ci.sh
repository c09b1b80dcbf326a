#!/usr/bin/env bash
# CI entry point: formatting, lints, release build and the full test
# suite. Works fully offline — all external dev-dependencies are
# vendored as shims under crates/shims/.
set -euo pipefail
cd "$(dirname "$0")"

status=0

# Each stage opens with `stage "<name>"`, which closes the previous one
# with its elapsed wall-clock seconds (bash SECONDS), so every CI log
# shows where the time goes, test-suite wall clock included.
stage_name=""
stage_start=$SECONDS
stage() {
    if [ -n "$stage_name" ]; then
        echo "<== $stage_name: $((SECONDS - stage_start)) s"
    fi
    stage_name=$1
    stage_start=$SECONDS
    if [ -n "$stage_name" ]; then
        echo "==> $stage_name"
    fi
}

if command -v rustfmt >/dev/null 2>&1; then
    stage "cargo fmt --check"
    cargo fmt --all -- --check || status=1
else
    echo "==> rustfmt not installed; skipping format check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    stage "cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings || status=1
else
    echo "==> clippy not installed; skipping lints"
fi

# Rustdoc gate: every workspace crate's API docs must build
# warning-clean (broken or private intra-doc links, missing code-block
# languages, bad HTML all fail the build).
# `simkit::par`, `simkit::events`, `dram::backend`, `dram::addr`,
# `dram::timing`, `smartdimm::configmem`, `smartdimm::sched` and
# `netsim::tcp` additionally carry `#![deny(missing_docs)]`, so every
# public item there must be documented.
stage "cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q || status=1

# Static-analysis gate. A simlint scan covers the whole workspace in
# both passes: six per-file rules, then four call-graph rules, among
# them PANIC-REACH, the one panic rule for the device hot path. The
# stable JSON report is kept as a CI artifact; on failure the human
# rendering is printed for the log.
stage "simlint (static-analysis gate; artifact: target/simlint.json)"
mkdir -p target
if ! cargo run --release -p simlint -q -- --json > target/simlint.json; then
    cargo run --release -p simlint -q || true
    status=1
fi

stage "cargo build --release"
cargo build --release || status=1

# The workspace run includes the fast-backend differential, multichannel,
# fault-injection, scale-out topology and event-server suites.
stage "cargo test --release --workspace"
cargo test --release --workspace -q || status=1

# The examples are documentation that compiles; running each one (every
# file under examples/, in release) keeps it working too. Their output
# is discarded; a panic or nonzero exit fails the stage.
stage "examples (cargo run --release --example, each)"
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    cargo run --release -q --example "$name" > /dev/null || status=1
done

# The simulator benchmark (simbench/) is its own workspace over the
# crates/ APIs; building and testing it here catches an API change that
# would break the benchmark build.
stage "cargo test --release --offline (simbench)"
cargo test --release --offline -q --manifest-path simbench/Cargo.toml || status=1
# The committed simbench/Cargo.lock still lists a deleted shim and the
# removed platforms -> netsim edge, so the build above rewrites it.
# That edit belongs to a benchmark change only: say so loudly, without
# failing CI. (`git diff --quiet` exits 1 on a difference; outside a
# git checkout it exits higher and stays quiet.)
lock_diff=0
git diff --quiet -- simbench/Cargo.lock 2>/dev/null || lock_diff=$?
if [ "$lock_diff" -eq 1 ]; then
    echo "!!! NOTICE: building simbench rewrote simbench/Cargo.lock."
    echo "!!! Restore it before committing a change that does not touch the"
    echo "!!! benchmark:  git checkout -- simbench/Cargo.lock"
fi

# Artifacts: `figures check` reruns every figure, table,
# micro-experiment, ablation, the run report and the backend-differential
# report at full size (fanned out over the available CPUs, ~30 s on two)
# and requires every results/ file to be byte-identical to what it
# computes. It then judges the paper's claim shapes and the reports'
# invariants (zero Bank Table desyncs, every stat surface present, both
# DRAM tiers functionally equal) and fails on a shape that stops holding
# or on a listed deviation that starts to (bench::figures, EXPERIMENTS.md).
stage "figures check (every results/ file byte for byte + claim shapes)"
cargo run --release -p bench --bin figures -q -- check || status=1

# Hot-path bench smoke: tiny iteration counts — asserts the harness
# runs and BENCH_hotpaths.json is produced. Check mode then validates
# the committed file: every row present, and every row that claims a
# speedup has per-pair ratios whose interquartile range clears 1.0.
# Ratios in smoke mode are not meaningful; committed numbers come from
# a `-- full` run (DESIGN.md §7).
stage "bench_hotpaths smoke + check"
cargo run --release -p bench --bin bench_hotpaths -q -- smoke || status=1
cargo run --release -p bench --bin bench_hotpaths -q -- check || status=1

stage ""
echo "ci.sh total: $SECONDS s"
exit "$status"
