#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints (warnings are errors), and the
# tier-1 test suite. Run from anywhere; it cds to the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test -q"
cargo test -q

echo "==> golden envelope suite"
cargo test -q -p hpclog-core --test golden_envelope

echo "==> ETL fast-path equivalence suite"
cargo test -q -p hpclog-core --test etl_equivalence

echo "==> row-oracle suite (column-block kernels vs plain event rows)"
cargo test -q -p hpclog-core --test row_oracle

echo "==> titanbench self-tests (the benchmark builds against the current core API)"
cargo test --release --offline --manifest-path titanbench/Cargo.toml

echo "==> doc-link check (README/DESIGN/EXPERIMENTS intra-repo links)"
scripts/check_doc_links.sh

echo "==> query cache bench (smoke mode)"
QUERY_CACHE_SMOKE=1 cargo bench -q -p hpclog-bench --bench query_cache

echo "==> rebalance bench (smoke mode)"
REBALANCE_SMOKE=1 cargo bench -q -p hpclog-bench --bench rebalance

echo "==> observability bench (smoke mode)"
OBSERVABILITY_SMOKE=1 cargo bench -q -p hpclog-bench --bench observability

echo "==> loadgen bench (smoke mode, asserts the goodput-under-overload gate)"
LOADGEN_SMOKE=1 cargo bench -q -p hpclog-bench --bench loadgen

echo "==> ETL fast-path bench (smoke mode, speedup gate relaxed to >=3x)"
ETL_FASTPATH_SMOKE=1 cargo bench -q -p hpclog-bench --bench etl_fastpath

echo "==> columnar analytics bench (smoke mode, speedup gate relaxed to >=2x)"
ANALYTICS_COLUMNAR_SMOKE=1 cargo bench -q -p hpclog-bench --bench analytics_columnar

echo "All checks passed."
