#!/bin/sh
# Repo CI gate: formatting, lints, tests. Run from the repo root.
set -eu

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --workspace

echo "== cargo build --release =="
cargo build --release --workspace

echo "== perfbench tests (the benchmark builds the workspace crates by path) =="
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "== reproduce smoke (fig7 predicted-vs-observed) =="
cargo run --release -q -p oorq-bench --bin reproduce fig7 | grep "predicted vs observed" >/dev/null

echo "== reproduce smoke (calibration error tables) =="
cargo run --release -q -p oorq-bench --bin reproduce calibrate | grep "median relative error" >/dev/null

echo "== calibration regression gate =="
cargo run --release -q -p oorq-bench --bin reproduce calibrate-gate

echo "== reproduce smoke (fixpoint cardinality feedback) =="
cargo run --release -q -p oorq-bench --bin reproduce feedback | grep "fixpoints joined" >/dev/null

echo "== cardinality-feedback regression gate =="
cargo run --release -q -p oorq-bench --bin reproduce feedback-gate

echo "== reproduce smoke (static bounds vs observed counters) =="
cargo run --release -q -p oorq-bench --bin reproduce analyze music-fig3 | grep "bounds" >/dev/null

echo "== analysis soundness gate (whole corpus, both strategies) =="
cargo run --release -q -p oorq-bench --bin reproduce analyze-gate

echo "== plan-mutation soundness fuzzer (CI smoke parameters) =="
cargo run --release -q -p oorq-bench --bin reproduce fuzz

echo "== parallel-execution determinism gate (2 workers vs serial) =="
cargo run --release -q -p oorq-bench --bin reproduce parallel --threads 2

echo "== reproduce smoke (spill-cliff calibration sweep) =="
cargo run --release -q -p oorq-bench --bin reproduce spill | grep "median relative page-read error" >/dev/null

echo "== spill-cliff regression gate =="
cargo run --release -q -p oorq-bench --bin reproduce spill-gate

echo "== low-budget differential smoke (spilling breakers, byte-identical answers) =="
OORQ_MEMORY_BUDGET=8 cargo test -q --release --test differential --test parallel_differential \
    --test serve_differential
cargo run --release -q -p oorq-bench --bin reproduce parallel --threads 2 --memory-budget 8

echo "== provable-pruning smoke (pruned-proven candidates in the search-space table) =="
rm -rf target/prune-smoke
cargo run --release -q -p oorq-bench --bin reproduce trace music-pushjoin target/prune-smoke \
    | grep "pruned-proven" >/dev/null

echo "== reproduce smoke (always-on metrics: percentiles + EXPLAIN ANALYZE) =="
cargo run --release -q -p oorq-bench --bin reproduce metrics music > target/metrics-smoke.txt
grep "p99" target/metrics-smoke.txt >/dev/null
grep "EXPLAIN ANALYZE" target/metrics-smoke.txt >/dev/null

echo "== metrics gate (stable series names + recorder overhead caps) =="
cargo run --release -q -p oorq-bench --bin reproduce metrics-gate

echo "== trace smoke (emit + validate trace.json with the in-repo checker) =="
rm -rf target/trace-smoke
cargo run --release -q -p oorq-bench --bin reproduce trace music-fig7 target/trace-smoke \
    | grep "Rejected candidates" >/dev/null
cargo run --release -q -p oorq-bench --bin reproduce trace-check target/trace-smoke/trace-music-fig7.json

echo "== serve smoke (concurrent sessions, byte-identity, 2 threads) =="
cargo run --release -q -p oorq-bench --bin reproduce serve --queries 120 --sessions 2 --threads 2

echo "== serve gate (full replay, plan-cache hit rate) =="
cargo run --release -q -p oorq-bench --bin reproduce serve-gate

echo "CI OK"
