#!/bin/sh
# Full local check: configure, build, test, and smoke-run every bench
# at a reduced budget. Mirrors what CI would run.
set -e
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure
for b in build/bench/*; do
    # Only the bench binaries: the build also leaves CMake's files here.
    [ -f "$b" ] && [ -x "$b" ] || continue
    case "$b" in
        *perf_predictors) "$b" --benchmark_min_time=0.05 ;;
        *) "$b" --instructions=200000 --warmup=40000 ;;
    esac
done
# Cached replay must beat single-record regeneration by >= 3x, or the
# trace cache has lost its reason to exist.
./build/bench/trace_replay_throughput \
    --instructions=500000 --warmup=0 --require-speedup=3
# Trace format v3 gates: stride-dominant kernels must compress >= 4x
# over raw v2, and decoding the compressed format must not fall
# behind the raw v2 read path on those same kernels.
./build/bench/trace_compress --instructions=500000 \
    --require-ratio=4 --require-decode=1.0 \
    --json=build/BENCH_trace_v3.json
# Persistent trace cache: a second process sweeping over the same
# cache dir must regenerate nothing (serve every trace from disk)
# and produce bit-identical results. Both runs replay v3 images (a
# cold miss streams its generation into the entry and replays that),
# so a run without a disk tier, which replays the generated trace,
# anchors them: no tier == cold == warm.
rm -rf build/check_trace_cache build/warm0.jsonl build/warm1.jsonl \
    build/warm2.jsonl build/warm3.jsonl
env -u GDIFF_TRACE_CACHE_DIR ./build/examples/gdiffrun \
    --grid 'workload=mcf,gzip;predictor=stride,gdiff' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --deterministic --no-table --out build/warm0.jsonl
./build/examples/gdiffrun \
    --grid 'workload=mcf,gzip;predictor=stride,gdiff' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --deterministic --no-table --out build/warm1.jsonl \
    --trace-cache-dir build/check_trace_cache
./build/examples/gdiffrun \
    --grid 'workload=mcf,gzip;predictor=stride,gdiff' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --deterministic --no-table --out build/warm2.jsonl \
    --trace-cache-dir build/check_trace_cache 2> build/warm2.log
grep -q 'trace cache: 0 generated' build/warm2.log || {
    echo "trace cache: warm restart regenerated traces"
    cat build/warm2.log; exit 1; }
sort build/warm0.jsonl > build/warm0.sorted
sort build/warm1.jsonl > build/warm1.sorted
sort build/warm2.jsonl > build/warm2.sorted
cmp build/warm0.sorted build/warm1.sorted || {
    echo "trace cache: cold disk-tier sweep differs from the run without a tier"
    exit 1; }
cmp build/warm1.sorted build/warm2.sorted || {
    echo "trace cache: disk-replayed sweep differs from cold run"
    exit 1; }
# A byte flipped in one published entry: the next process's load must
# catch it, quarantine the entry, regenerate that one trace and
# re-store it, and the results must not move.
python3 -c 'import sys; p = sys.argv[1]; b = bytearray(open(p, "rb").read()); b[len(b) // 2] ^= 1; open(p, "wb").write(b)' \
    build/check_trace_cache/mcf-s1-r120000-v3.gdtr
./build/examples/gdiffrun \
    --grid 'workload=mcf,gzip;predictor=stride,gdiff' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --deterministic --no-table --out build/warm3.jsonl \
    --trace-cache-dir build/check_trace_cache 2> build/warm3.log
grep -q 'trace cache: 1 generated' build/warm3.log &&
    grep -q ', 1 corrupt-recovered' build/warm3.log || {
    echo "trace cache: a corrupt entry was not recovered exactly once"
    cat build/warm3.log; exit 1; }
sort build/warm3.jsonl > build/warm3.sorted
cmp build/warm0.sorted build/warm3.sorted || {
    echo "trace cache: sweep after a corrupt entry differs from the run without a tier"
    exit 1; }
# The same for a sampled grid, whose disk-loaded traces decode only
# the blocks the strata pass and the measured windows read.
rm -f build/warm0s.jsonl build/warm1s.jsonl build/warm2s.jsonl
env -u GDIFF_TRACE_CACHE_DIR ./build/examples/gdiffrun \
    --grid 'workload=mcf,gzip;mode=pipeline;scheme=hgvq' \
    --threads=4 --instructions=400000 --warmup=20000 \
    --sample-budget=40960 --sample-windows=4096 \
    --deterministic --no-table --out build/warm0s.jsonl
for run in 1 2; do
    ./build/examples/gdiffrun \
        --grid 'workload=mcf,gzip;mode=pipeline;scheme=hgvq' \
        --threads=4 --instructions=400000 --warmup=20000 \
        --sample-budget=40960 --sample-windows=4096 \
        --deterministic --no-table --out build/warm${run}s.jsonl \
        --trace-cache-dir build/check_trace_cache 2> build/warm${run}s.log
done
grep -q 'trace cache: 0 generated' build/warm2s.log || {
    echo "trace cache: sampled warm restart regenerated traces"
    cat build/warm2s.log; exit 1; }
sort build/warm0s.jsonl > build/warm0s.sorted
sort build/warm1s.jsonl > build/warm1s.sorted
sort build/warm2s.jsonl > build/warm2s.sorted
cmp build/warm0s.sorted build/warm1s.sorted || {
    echo "trace cache: cold sampled sweep differs from the run without a tier"
    exit 1; }
cmp build/warm1s.sorted build/warm2s.sorted || {
    echo "trace cache: disk-replayed sampled sweep differs from cold run"
    exit 1; }
# Batch-vs-scalar prediction gate: the fused batch protocol must hold
# >= 2x records/sec on the gated families (stride, fcm, gdiff), with
# per-trial checksum identity between the two paths.
./build/bench/perf_predictors --require-batch-speedup=2 \
    --json=build/BENCH_batch_predictors.json
# Profile-path digest gate: the repository benchmark's profile sweep
# (4 kernels x 6 predictors, unlimited tables) must reproduce its
# committed result digests for both seeds, so a profile-path change
# that moves any result fails here.
for seed in 1 7; do
    python3 perfbench/run.py --workload profile_zoo --seed "$seed" \
        --seconds 1 --trace 0 > "build/perfbench_zoo_$seed.out"
    tail -n 1 "build/perfbench_zoo_$seed.out" | grep -q '"correct": true' || {
        echo "perfbench profile_zoo seed $seed: results differ from the committed digests"
        tail -n 1 "build/perfbench_zoo_$seed.out"; exit 1; }
done
# The same digests on the scalar kernels: the lane gather and gFCM's
# hashing passes each have an AVX2 variant and a scalar twin.
for seed in 1 7; do
    GDIFF_SIMD=scalar python3 perfbench/run.py --workload profile_zoo \
        --seed "$seed" --seconds 1 --trace 0 \
        > "build/perfbench_zoo_scalar_$seed.out"
    tail -n 1 "build/perfbench_zoo_scalar_$seed.out" | grep -q '"correct": true' || {
        echo "perfbench profile_zoo seed $seed (GDIFF_SIMD=scalar): results differ from the committed digests"
        tail -n 1 "build/perfbench_zoo_scalar_$seed.out"; exit 1; }
done
# Pipeline-path digest gate: the pipeline sweep (4 kernels x baseline,
# l_stride and hgvq) must reproduce its committed result digests too,
# so a cycle-loop change that moves any pipeline result fails here.
for seed in 1 7; do
    python3 perfbench/run.py --workload pipeline_mix --seed "$seed" \
        --seconds 1 --trace 0 > "build/perfbench_mix_$seed.out"
    tail -n 1 "build/perfbench_mix_$seed.out" | grep -q '"correct": true' || {
        echo "perfbench pipeline_mix seed $seed: results differ from the committed digests"
        tail -n 1 "build/perfbench_mix_$seed.out"; exit 1; }
done
# The pipeline digests on the scalar kernels: HGVQ and SGVQ train
# gdiff through the same kernel set the profile path uses.
for seed in 1 7; do
    GDIFF_SIMD=scalar python3 perfbench/run.py --workload pipeline_mix \
        --seed "$seed" --seconds 1 --trace 0 \
        > "build/perfbench_mix_scalar_$seed.out"
    tail -n 1 "build/perfbench_mix_scalar_$seed.out" | grep -q '"correct": true' || {
        echo "perfbench pipeline_mix seed $seed (GDIFF_SIMD=scalar): results differ from the committed digests"
        tail -n 1 "build/perfbench_mix_scalar_$seed.out"; exit 1; }
done
# Sampled and serving digest gates: the sampled hgvq sweep (traces
# loaded from the disk tier) and the warm daemon's requests must
# reproduce their committed digests too, on both kernel sets.
for workload in sampled_disk serve_warm; do
    for simd in auto scalar; do
        for seed in 1 7; do
            out="build/perfbench_${workload}_${simd}_$seed.out"
            GDIFF_SIMD=$simd python3 perfbench/run.py \
                --workload "$workload" --seed "$seed" --seconds 1 \
                --trace 0 > "$out"
            tail -n 1 "$out" | grep -q '"correct": true' || {
                echo "perfbench $workload seed $seed (GDIFF_SIMD=$simd): results differ from the committed digests"
                tail -n 1 "$out"; exit 1; }
        done
    done
done
# Batch identity fuzz: scalar-vs-batch differ over every batched
# family, under both kernel sets (forced-scalar first).
GDIFF_SIMD=scalar ./build/examples/gdifffuzz --cases=1500 --seed=5 \
    --batch --no-pipeline
./build/examples/gdifffuzz --cases=1500 --seed=5 --batch --no-pipeline
# The golden-number suite pins Table 2 / Fig. 19 against
# tests/golden/; any model drift fails here with a value diff
# (regenerate deliberately with: test_paper_golden --update-golden).
./build/tests/test_paper_golden
# Observability must stay near-free: enabled collection within 3% of
# disabled on the instrumented profile loop...
./build/bench/obs_overhead \
    --instructions=400000 --warmup=40000 --require-overhead=3
# ...and a parallel sweep's Chrome trace must validate structurally.
./build/examples/gdiffrun \
    --grid 'workload=mcf,parser;predictor=stride,gdiff' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --no-table --trace-out=build/obs_trace.json
./build/examples/tracecheck build/obs_trace.json --min-spans=4
# Smoke sweep through the parallel runner: thread pool, structured
# sinks, and manifest resume (the rerun must skip every job).
rm -f build/smoke.jsonl build/smoke.csv build/smoke.manifest
./build/examples/gdiffrun \
    --grid 'workload=mcf,parser,gzip;predictor=stride,dfcm,gdiff;order=4,8' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --out build/smoke.jsonl --csv build/smoke.csv \
    --manifest build/smoke.manifest
[ "$(wc -l < build/smoke.jsonl)" -eq 18 ] || {
    echo "smoke sweep: expected 18 jsonl lines"; exit 1; }
./build/examples/gdiffrun \
    --grid 'workload=mcf,parser,gzip;predictor=stride,dfcm,gdiff;order=4,8' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --out build/smoke.jsonl --manifest build/smoke.manifest \
    --no-table 2>&1 | grep -q 'ran 0 jobs (18 resumed/skipped)' || {
    echo "smoke sweep: resume did not skip completed jobs"; exit 1; }
# Differential fuzz smoke: oracles vs production predictors, pipeline
# invariants, and the mutation-sanity self-test.
./build/examples/gdifffuzz --cases=1000 --seed=1
# The same pipeline path under ASan/UBSan, when a sanitizer tree is
# configured as in CI's sanitize job (cmake -B build-asan ...).
if [ -x build-asan/examples/gdifffuzz ]; then
    ./build-asan/examples/gdifffuzz --cases=300 --seed=1
fi
# The threaded suites (trace writer helpers, sweep pool, sampler,
# daemon) under ThreadSanitizer, when a TSan tree is configured as in
# CI's tsan job (cmake -B build-tsan ...).
if [ -d build-tsan ]; then
    tsan_tests="test_trace_io test_trace_cache test_trace_v3 test_obs
        test_runner test_sample test_serve"
    cmake --build build-tsan --target $tsan_tests
    for t in $tsan_tests; do
        ./build-tsan/tests/$t
    done
fi
rm -rf build/fuzz-repros && mkdir -p build/fuzz-repros
./build/examples/gdifffuzz --cases=1000 --seed=1 --mutate \
    --out-dir=build/fuzz-repros --no-pipeline
# Serving smoke: an out-of-range order and an unknown predictor must
# each be refused with its validation message while the daemon keeps
# serving, a daemon-fed sweep must be bit-identical to the same grid
# run in-process, and SIGTERM must drain cleanly (exit 0).
SOCK=build/check_gdiffd.sock
rm -f "$SOCK" build/check_daemon.jsonl build/check_local.jsonl
./build/examples/gdiffd --socket "$SOCK" --workers 4 &
DAEMON=$!
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.1
done
./build/examples/gdiffctl --socket "$SOCK" ping
if ./build/examples/gdiffctl --socket "$SOCK" submit \
    --grid 'workload=mcf;predictor=gdiff;order=65' \
    --instructions=2000 --warmup=100 2> build/check_bad_order.log; then
    echo "serving smoke: gdiffd accepted order=65"
    kill "$DAEMON" 2>/dev/null; exit 1
fi
grep -q 'gdiff order 65 is out of range' build/check_bad_order.log || {
    echo "serving smoke: order=65 refused without its message"
    kill "$DAEMON" 2>/dev/null; exit 1; }
./build/examples/gdiffctl --socket "$SOCK" ping | grep -qx pong || {
    echo "serving smoke: daemon stopped answering after order=65"
    kill "$DAEMON" 2>/dev/null; exit 1; }
if ./build/examples/gdiffctl --socket "$SOCK" submit \
    --grid 'workload=mcf;predictor=psychic' \
    --instructions=2000 --warmup=100 2> build/check_bad_name.log; then
    echo "serving smoke: gdiffd accepted predictor=psychic"
    kill "$DAEMON" 2>/dev/null; exit 1
fi
grep -q "unknown predictor 'psychic'" build/check_bad_name.log || {
    echo "serving smoke: predictor=psychic refused without its message"
    kill "$DAEMON" 2>/dev/null; exit 1; }
./build/examples/gdiffctl --socket "$SOCK" ping | grep -qx pong || {
    echo "serving smoke: daemon stopped answering after predictor=psychic"
    kill "$DAEMON" 2>/dev/null; exit 1; }
./build/examples/gdiffctl --socket "$SOCK" submit \
    --grid 'workload=mcf,parser;predictor=stride,dfcm,gdiff' \
    --instructions=100000 --warmup=20000 \
    --deterministic --no-table --out build/check_daemon.jsonl
./build/examples/gdiffrun \
    --grid 'workload=mcf,parser;predictor=stride,dfcm,gdiff' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --deterministic --no-table --out build/check_local.jsonl
sort build/check_daemon.jsonl > build/check_daemon.sorted
sort build/check_local.jsonl > build/check_local.sorted
cmp build/check_daemon.sorted build/check_local.sorted || {
    echo "serving smoke: daemon results differ from in-process run"
    kill "$DAEMON" 2>/dev/null; exit 1; }
kill -TERM "$DAEMON"
wait "$DAEMON" || { echo "serving smoke: daemon drain failed"; exit 1; }
# Blind-spot mining smoke: both documented default pairs must find,
# shrink, and cluster at least one disagreement, and the full report
# (table, digests, JSONL, artifacts) must be bit-identical across a
# rerun and across thread counts.
rm -rf build/mine-artifacts && mkdir -p build/mine-artifacts
./build/examples/gdiffmine --records=1024 --rounds=6 --restarts=4 \
    --seed=1 --threads=1 --jsonl=build/mine1.jsonl \
    --artifacts=build/mine-artifacts > build/mine1.txt
./build/examples/gdiffmine --records=1024 --rounds=6 --restarts=4 \
    --seed=1 --threads=4 --jsonl=build/mine2.jsonl > build/mine2.txt
grep 'report digest:' build/mine1.txt > build/mine1.digests
grep 'report digest:' build/mine2.txt > build/mine2.digests
cmp build/mine1.digests build/mine2.digests || {
    echo "gdiffmine: report digests differ across thread counts"
    diff build/mine1.digests build/mine2.digests; exit 1; }
cmp build/mine1.jsonl build/mine2.jsonl || {
    echo "gdiffmine: cluster JSONL differs across thread counts"
    exit 1; }
ls build/mine-artifacts/*.gdtr > /dev/null || {
    echo "gdiffmine: no replayable cluster artifacts written"
    exit 1; }
# Metric-surface snapshot gate: freeze a sweep, self-diff (must be
# empty, exit 0), then inject a 1e-6 ipc perturbation and require the
# differ to report exactly that metric (exit 1).
./build/examples/gdiffrun \
    --grid 'workload=mcf,parser;scheme=baseline,hgvq' \
    --threads=4 --instructions=100000 --warmup=20000 \
    --deterministic --no-table --snapshot=build/surface.snap
./build/examples/gdiffcmp build/surface.snap build/surface.snap || {
    echo "gdiffcmp: self-diff reported differences"; exit 1; }
./build/examples/gdiffcmp --perturb=ipc=1e-6 \
    build/surface.snap build/surface_perturbed.snap
if ./build/examples/gdiffcmp build/surface.snap \
    build/surface_perturbed.snap > build/snapdiff.txt; then
    echo "gdiffcmp: missed an injected 1e-6 ipc perturbation"
    exit 1
fi
grep -q '! metric ipc' build/snapdiff.txt || {
    echo "gdiffcmp: perturbation diff did not name ipc"
    cat build/snapdiff.txt; exit 1; }
# Sampled-simulation gate: on both kernels the stratified sampler
# must cut wall clock >= 10x against a full run of the same spec,
# and the full run's IPC must land inside the (1.5x-widened) sampled
# confidence interval — speed that buys a wrong answer fails here.
./build/bench/sampled_vs_full --instructions=8000000 \
    --warmup=400000 --budget=40960 --sample-threads=4 \
    --require-speedup=10 --require-ci \
    --json=build/BENCH_sampled.json
echo "all checks passed"
