#!/usr/bin/env bash
# Full local CI: exactly what .github/workflows/ci.yml runs.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q --workspace

echo "==> ordering-layer suites, 5 more runs"
# Zero-delay sends hand a message to the receiver's inbox on the
# sender's thread, so these suites run thread handoffs back to back; a
# test that reads state before the receiving thread has handled its
# message fails only on some interleavings. Each run takes about 1 s.
for _ in 1 2 3 4 5; do
    cargo test -q -p consul-sim --lib
    cargo test -q -p consul-sim --test stress_tests
done

echo "==> bench smoke (assertions only, no measurement)"
# batch_window runs 8 submitters with group commit off and on, asserts
# one multicast per AGS when off and fewer when on, and writes the
# multicasts-per-AGS / throughput points as a JSON artifact.
BENCH_MSGS_PER_AGS_JSON="${BENCH_MSGS_PER_AGS_JSON:-$PWD/BENCH_msgs_per_ags.json}" \
    cargo bench -p linda-bench --bench batch_window -- --test
cargo bench -p linda-bench --bench msgs_per_ags -- --test
# shard_sweep runs K in {1,2,4} single-shard write traffic under the
# 10 Mb-Ethernet NIC model (group commit off) and fails if K=4 does not
# beat K=1 by at least SHARD_SWEEP_MIN_SPEEDUP (default 2x); it also
# asserts the 2S+1 cross-shard multicast price, adds the shard_sweep
# section to the same JSON artifact, and writes the per-shard
# multicast-load census (with the basis-point imbalance gauge) to the
# shard-balance artifact.
BENCH_MSGS_PER_AGS_JSON="${BENCH_MSGS_PER_AGS_JSON:-$PWD/BENCH_msgs_per_ags.json}" \
BENCH_SHARD_BALANCE_JSON="${BENCH_SHARD_BALANCE_JSON:-$PWD/BENCH_shard_balance.json}" \
SHARD_SWEEP_MIN_SPEEDUP="${SHARD_SWEEP_MIN_SPEEDUP:-2}" \
    cargo bench -p linda-bench --bench shard_sweep -- --test
# match_probes compares probes-per-attempt for the indexed vs linear
# store across hit / second-field hit / fresh miss / repeated miss and
# writes the observatory's match-cost artifact. The bench asserts the
# checked-in probe budgets (indexed repeated miss ≤ 1 probe/attempt
# amortized via the antituple cache; fresh 100k-tuple indexed miss ≤ 8
# probes and ≤ 10 µs via the value index), so a matching-engine
# regression fails this step.
BENCH_MATCH_PROBES_JSON="${BENCH_MATCH_PROBES_JSON:-$PWD/BENCH_match_probes.json}" \
    cargo bench -p linda-bench --bench match_probes -- --test

echo "==> HTTP exporter smoke (3-member 2-shard cluster, curl every member)"
./scripts/obs_smoke.sh

echo "==> long-history rejoin smoke (O(state) checkpoint transfer)"
# Crashes a host, orders 1k then 10k records of history with constant
# live state, restarts it, and asserts the rejoin transfer bytes do not
# grow with history (release build: the 10k run is the slow part).
cargo test --release -q -p ftlinda --test checkpoint_tests \
    rejoin_bytes_scale_with_state_not_history -- --exact

echo "==> TCP transport smoke (3 processes, aggregator, federated trace, kill -9 + rejoin)"
# Boots a 3-process 2-shard cluster over real localhost sockets via the
# launcher, curls every member's /healthz and per-link net counters,
# runs the ftlinda-top aggregator against all three exporters (merged
# page must carry shard-labeled families and every host's wire RTT),
# assembles a federated cross-shard trace from a non-origin member,
# SIGKILLs one member, relaunches it with --rejoin as the pingpong
# driver, and requires the BENCH_tcp_pingpong.json and
# BENCH_cluster_top.json artifacts the run writes.
BENCH_TCP_PINGPONG_JSON="${BENCH_TCP_PINGPONG_JSON:-$PWD/BENCH_tcp_pingpong.json}" \
BENCH_CLUSTER_TOP_JSON="${BENCH_CLUSTER_TOP_JSON:-$PWD/BENCH_cluster_top.json}" \
    ./scripts/tcp_smoke.sh

echo "CI green."
