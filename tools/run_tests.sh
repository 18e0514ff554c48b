#!/bin/sh
# CI gate: build + run every ctest under the release preset (warnings
# as errors; this includes the four examples, label `examples`), then
# the labelled suites under the asan-ubsan preset
# (Debug + ASan + UBSan); run the nn/int8/golden/serve/core suites in a
# portable (non -march=native) build; and validate bench binaries'
# --stats_json documents against the schema checker. Run from the
# repository root. Fails on first error.
set -eu

cd "$(dirname "$0")/.."

echo "== release: configure + build =="
cmake --preset release
cmake --build --preset release -j1

echo "== release: ctest (every test) =="
ctest --test-dir build --output-on-failure

echo "== asan-ubsan: configure + build =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j1

echo "== asan-ubsan: ctest -L tier1|checkpoint|fault|serve|transformer|distill|chaos|core|property =="
ctest --test-dir build-asan \
    -L 'tier1|checkpoint|fault|serve|transformer|distill|chaos|core|property' \
    --output-on-failure

echo "== stats schema validation =="
out=$(mktemp /tmp/voyager_stats.XXXXXX.json)
trap 'rm -f "$out"' EXIT
./build/bench/bench_table1_hparams --stats_json="$out" >/dev/null
python3 tools/check_stats_schema.py "$out"

# Int8 engine smoke (DESIGN.md section 5.13): the qgemm microkernel,
# the activation quantizer and a whole int8 predict must run and
# report throughput. The correctness tests (test_quantized) already
# ran in both tier-1 gates above; this just proves the VNNI/portable
# kernels execute outside gtest too.
echo "== bench_micro_nn qgemm smoke =="
qgemm_out=$(./build/bench/bench_micro_nn --op=qgemm \
    --benchmark_min_time=0.05 2>&1)
printf '%s\n' "$qgemm_out" | grep -q "BM_QgemmNtVoyager"
printf '%s\n' "$qgemm_out" | grep -q "BM_QuantizeActivations/1x64"
printf '%s\n' "$qgemm_out" | grep -q "BM_QuantizedPredict/1 "

# GEMM smoke (DESIGN.md sections 5.10 and 5.20): the packed kernels,
# including the one-row tile at the batch-1 recurrent shape, must run.
echo "== bench_micro_nn gemm smoke =="
gemm_out=$(./build/bench/bench_micro_nn --op=gemm \
    --benchmark_min_time=0.05 2>&1)
printf '%s\n' "$gemm_out" | grep -q "BM_GemmNnRows/1 "
printf '%s\n' "$gemm_out" | grep -q "BM_GemmNnRows/8 "

# LSTM smoke (DESIGN.md sections 5.10 and 5.20): the vectorised gate
# pass and its libm oracle at the serving shape, and a whole model
# predict (input assembly, hoisted projection, recurrence, heads) at
# batch 1 and 8.
echo "== bench_micro_nn lstm smoke =="
lstm_out=$(./build/bench/bench_micro_nn --op=lstm \
    --benchmark_min_time=0.05 2>&1)
printf '%s\n' "$lstm_out" | grep -q "BM_LstmGateRow "
printf '%s\n' "$lstm_out" | grep -q "BM_LstmGateRowRef"
printf '%s\n' "$lstm_out" | grep -q "BM_LstmVoyagerPredict/1 "
printf '%s\n' "$lstm_out" | grep -q "BM_LstmVoyagerPredict/8 "

# Training-step smoke (DESIGN.md section 5.21): a whole
# VoyagerModel::train_step at the repository benchmark's shape and the
# vectorised Adam update must run.
echo "== bench_micro_nn train smoke =="
train_out=$(./build/bench/bench_micro_nn --op=train \
    --benchmark_min_time=0.05 2>&1)
printf '%s\n' "$train_out" | grep -q "BM_TrainStep/64 "
printf '%s\n' "$train_out" | grep -q "BM_AdamStep"

# Ranking-head smoke (DESIGN.md section 5.26): the fused top-k head at
# the repository benchmark's train_online and serve_fp32 shapes.
echo "== bench_micro_nn rank smoke =="
rank_out=$(./build/bench/bench_micro_nn --op=rank \
    --benchmark_min_time=0.05 2>&1)
printf '%s\n' "$rank_out" | grep -q "BM_RankTokenPredictions/64x276x64_k3"
printf '%s\n' "$rank_out" | grep -q "BM_RankTokenPredictions/8x23x64_k4"

# Simulator smoke (DESIGN.md section 5.22): whole simulations at the
# repository benchmark's sim_rules shape, the cache probe, and the
# rule prefetchers with tables larger than the host's caches must run.
echo "== bench_micro_prefetchers simulator smoke =="
sim_out=$(./build/bench/bench_micro_prefetchers \
    --benchmark_filter='BM_Simulate|BM_CacheAccess|BM_PrefetcherOnAccessLarge' \
    --benchmark_min_time=0.05 2>&1)
printf '%s\n' "$sim_out" | grep -q "BM_Simulate/domino"
printf '%s\n' "$sim_out" | grep -q "BM_CacheAccess"

# Trace-generation smoke (DESIGN.md section 5.25): paper-scale
# generation of the five benchmarked workloads must run and report
# throughput. The byte-for-byte hash pins live in test_trace.
echo "== bench_micro_prefetchers trace-generation smoke =="
gen_out=$(./build/bench/bench_micro_prefetchers \
    --benchmark_filter='BM_MakeWorkload' --benchmark_min_time=0.05 2>&1)
printf '%s\n' "$gen_out" | grep -q "BM_MakeWorkload/bfs"
printf '%s\n' "$gen_out" | grep -q "BM_MakeWorkload/astar"

# Labeler smoke (DESIGN.md decision 15): all five label schemes over
# the repository benchmark's training stream, the setup cost every
# Voyager training pays once.
echo "== bench_micro_prefetchers labeler smoke =="
labels_out=$(./build/bench/bench_micro_prefetchers \
    --benchmark_filter='BM_ComputeLabels' --benchmark_min_time=0.05 2>&1)
printf '%s\n' "$labels_out" | grep -q "BM_ComputeLabels/xalancbmk"
printf '%s\n' "$labels_out" | grep -q "BM_ComputeLabels/mcf"

# Portable build (DESIGN.md sections 5.10 and 5.21): without
# -march=native the 64-byte vector type of the GEMM tile and the gate
# kernel lowers to SSE. The nn and int8 suites, every golden, the
# serve suite (whose BatchEquivalence pins the one-row GEMM tile to
# the same bits as the MR-row tile) and the core suite (model and
# trainer: the pack-free training step's bits) must pass there too,
# warnings as errors (a vector passed by value would trip -Wpsabi).
# The simulator, prefetcher and trace suites (the pinned SimResults and
# the cache and DRAM differentials of section 5.22) run there as well.
echo "== portable (VOYAGER_NATIVE=OFF): nn, quantized, golden, serve, core, sim, prefetch, trace =="
cmake -S . -B build-portable -DCMAKE_BUILD_TYPE=Release \
    -DVOYAGER_NATIVE=OFF -DVOYAGER_WERROR=ON
cmake --build build-portable -j1 \
    --target test_nn test_quantized test_golden test_serve test_core \
    test_sim test_prefetch test_trace
./build-portable/tests/test_nn
./build-portable/tests/test_quantized
./build-portable/tests/test_golden
./build-portable/tests/test_serve
./build-portable/tests/test_core
./build-portable/tests/test_sim
./build-portable/tests/test_prefetch
./build-portable/tests/test_trace

# Flat-hash smoke (DESIGN.md section 5.15): tiny key counts — this
# proves the sweeps execute and emit a schema-valid micro_hash.*
# document in both build flavours, not that the speedups hold (the
# perf claims live in the full bench run). The ASan build exercises
# the raw-memory slot array under instrumentation.
echo "== bench_micro_hash smoke (release + asan) =="
hash_out=$(mktemp /tmp/voyager_hash.XXXXXX.json)
./build/bench/bench_micro_hash --n_vocab=4096 --n_isb=4096 \
    --reps=1 --stats_json="$hash_out" >/dev/null
python3 tools/check_stats_schema.py "$hash_out"
rm -f "$hash_out"
./build-asan/bench/bench_micro_hash --n_vocab=2048 --n_isb=2048 \
    --reps=1 >/dev/null

# Serving-layer smoke (DESIGN.md section 5.16): a tiny tenant sweep
# must run end to end and emit a schema-valid document including the
# closed serve.* namespace; the ASan run drives the batcher/server
# hot path under instrumentation. Tiny caps keep both under a minute;
# the throughput claims live in the full bench_serve run.
echo "== bench_serve smoke (release + asan) =="
serve_out=$(mktemp /tmp/voyager_serve.XXXXXX.json)
./build/bench/bench_serve --scale=tiny --tenants=2 --requests=40 \
    --serve_batches=1,4 --serve_train_samples=200 \
    --stats_json="$serve_out" >/dev/null
python3 tools/check_stats_schema.py "$serve_out"
grep -q '"serve.batch_size"' "$serve_out"
rm -f "$serve_out"
./build-asan/bench/bench_serve --scale=tiny --tenants=2 \
    --requests=20 --serve_batches=4 --serve_train_samples=100 \
    >/dev/null

# Overload-resilience smoke (DESIGN.md section 5.19): the chaos
# ladder run must degrade under the canned serve fault plan and emit
# a schema-valid document carrying the closed serve.degrade.* and
# fault.serve.* namespaces. The chaos ctest suites above pin the
# byte-identical replays; this proves the bench path executes too.
echo "== bench_serve --chaos smoke =="
chaos_out=$(mktemp /tmp/voyager_chaos.XXXXXX.json)
./build/bench/bench_serve --scale=tiny --tenants=3 --requests=60 \
    --serve_batches=4 --serve_train_samples=200 --chaos \
    --tenant_quota=12 --queue_cap=24 \
    --stats_json="$chaos_out" >/dev/null
python3 tools/check_stats_schema.py "$chaos_out"
grep -q '"serve.degrade.rung"' "$chaos_out"
grep -q '"fault.serve.stalls"' "$chaos_out"
rm -f "$chaos_out"

# Transformer-workload smoke (DESIGN.md section 5.17): the full
# prefetcher sweep (rules + Voyager) must run end to end at tiny
# scale and emit a schema-valid document including the closed
# transformer.* and prefetch.stream_group.* namespaces. The neural
# result is cache-keyed like every other bench training, so reruns
# only pay for the rule-based sweep.
echo "== bench_transformer smoke (tiny) =="
xf_out=$(mktemp /tmp/voyager_xf.XXXXXX.json)
./build/bench/bench_transformer --scale=tiny --epochs=2 --passes=1 \
    --stats_json="$xf_out" >/dev/null
python3 tools/check_stats_schema.py "$xf_out"
grep -q '"transformer.xf_decode.stream_group.acc"' "$xf_out"
grep -q '"prefetch.stream_group.fast_tracks"' "$xf_out"
rm -f "$xf_out"

# Tabularized-serving smoke (DESIGN.md section 5.18): a tiny
# budget x backoff sweep must run end to end — train the teacher,
# distill, probe the frontier — and emit a schema-valid document
# including the closed distill.* namespace. The ASan run drives the
# probe/fallback hot path under instrumentation. Tiny caps keep both
# fast; the >=10x speedup claim lives in the full bench_distill run.
echo "== bench_distill smoke (release + asan) =="
distill_out=$(mktemp /tmp/voyager_distill.XXXXXX.json)
./build/bench/bench_distill --scale=tiny --epochs=1 --passes=1 \
    --distill_train_samples=300 --max_samples=300 \
    --distill_budgets=4096,65536 --distill_backoffs=1 \
    --stats_json="$distill_out" >/dev/null
python3 tools/check_stats_schema.py "$distill_out"
grep -q '"distill.frontier.b65536_h1.hit_rate"' "$distill_out"
grep -q '"distill.teacher.unified"' "$distill_out"
rm -f "$distill_out"
./build-asan/bench/bench_distill --scale=tiny --epochs=1 --passes=1 \
    --distill_train_samples=150 --max_samples=150 \
    --distill_budgets=16384 --distill_backoffs=1 >/dev/null

# Section 5.5 table prefetcher: fig17 distills into the serving tables.
echo "== bench_fig17_overhead smoke (tiny pr) =="
fig17_out=$(mktemp /tmp/voyager_fig17.XXXXXX.json)
./build/bench/bench_fig17_overhead --scale=tiny --benchmarks=pr \
    --stats_json="$fig17_out" >/dev/null
python3 tools/check_stats_schema.py "$fig17_out"
grep -q '"fig17.pr.distilled_table_bytes"' "$fig17_out"
rm -f "$fig17_out"

echo "== bench_serve --serve_batches=0 fails fast (124: timed out) =="
rc=0
timeout 60 ./build/bench/bench_serve --scale=tiny --serve_batches=0 \
    >/dev/null 2>&1 || rc=$?
[ "$rc" -ne 0 ] && [ "$rc" -ne 124 ] || exit 1

echo "all gates passed"
