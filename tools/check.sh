#!/usr/bin/env bash
# Full verification sweep:
#   1. tier-1: default build + complete ctest suite
#   2. Release build (-O3, what perfbench measures; tier-1 is -O2) over
#      the decode and aggregation suites, so the optimised group-verify
#      to per-record resync hand-off and the member-presence rows run
#      on damaged input, not just the clean traces perfbench feeds them,
#      and over the report-builder suites (streaming oracle with its
#      golden report digests, the analysis and incident suites, the
#      quantile sketch), so the optimised tables and sketch must still
#      produce every report byte, and over the plane-vs-trie oracle and
#      the plane-patch suite, so the compile's interval-driven member
#      rows are checked at -O3 too
#   3. perfbench self-test: builds the end-to-end benchmark program
#      against this checkout's library and runs every workload's output
#      checks on a small world, so a library change that breaks the
#      benchmark fails here rather than in a benchmark run
#   4. ThreadSanitizer build, running the concurrency-sensitive suites
#      (the parallel classification oracles including the plane-vs-trie
#      and batch differentials, the thread pool, the streaming detector
#      and the corruption differential suite, which classifies on a
#      shared pool, the state suites, which resume across thread counts,
#      and the streaming-analysis oracle, which classifies on pools)
#   5. AddressSanitizer build, same suites plus the trie/interval code,
#      the byte-level corruption/resync and batch-decode paths, the
#      snapshot container + checkpoint fuzz suites, the
#      bounded-table/quantile-sketch analysis suites (LRU eviction and
#      compactor reallocation are where lifetime bugs would hide), and
#      the MRT-lite, AS path and dotted-quad suites (their parsers index
#      string_views in place)
#   6. UndefinedBehaviorSanitizer build over the parser fuzz and
#      robustness suites (the code that chews on hostile bytes),
#      including the mmap/batch reader differential, the snapshot
#      parser and the checkpoint decoders (full and delta), which size
#      their reads from counts in the file, plus the
#      streaming-analysis oracle (sketch rank arithmetic, ratio
#      histogram binning and eviction folds over adversarial batches),
#      the aggregation suites (shifts in the member-presence rows) and
#      the plane-patch suite (partial-bit counter arithmetic)
#   7. portable build guard: -DSPOOFSCOPE_DISABLE_SIMD=ON compiles only
#      the scalar batch, decode and quantile-sketch kernels — what a
#      target with neither AVX2 nor NEON gets — and the batch, decode
#      and sketch differentials (with the golden report digests) must
#      still pass on it
#   8. serve smoke: the resident sharded daemon boots on a generated
#      world and every control verb is driven through a real socket
#      session, ending in a clean shutdown (the service suites — shard
#      differential, rolling restart, control units — also run under
#      TSan and ASan in stages 4 and 5)
#   9. internet-scale generate: the chunk-parallel generator end to end
#      through the CLI under TSan and ASan
#  10. sanitized CLI: classify --labels, report, a delta-checkpointed
#      detect followed by its --resume, a full-checkpointed detect
#      followed by its --resume, classify --on-error skip over a trace
#      damaged at fixed offsets (the skip-mode resync), and detect
#      --updates (route churn interleaved with the flows), run by the
#      ASan and UBSan builds of the CLI on a seed-7 world; every run must
#      exit 0 with output byte-identical to the tier-1 binary's
#  11. fault injection: the crash/churn differential suite re-runs under
#      all three sanitizer builds with a widened injector seed sweep
#      (SPOOFSCOPE_FAULT_SEEDS), and the plane-churn fuzz runs its full
#      1000-step sweep (SPOOFSCOPE_CHURN_STEPS) against the fresh-compile
#      digest oracle
#
# The batch-classification, decode and quantile-sketch suites run twice
# per stage: once with SPOOFSCOPE_SIMD=auto (the vector kernels this
# host supports) and once pinned to SPOOFSCOPE_SIMD=scalar, so every
# sanitizer inspects both sides of the kernel differential.
#
# Usage: tools/check.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc)"

# Suites that drive FlatClassifier::classify_batch, the trace decoder
# (MappedTraceReader::next_batch) or QuantileSketch's compaction kernels
# and therefore get the auto/scalar double run.
BATCH_SUITES=(
  classify_batch_oracle_test
  classify_simd_kernel_test
  classify_flat_oracle_test
  net_trace_batch_test
  robustness_differential_test
  util_stats_test
  analysis_streaming_oracle_test
)

is_batch_suite() {
  local bin="$1" b
  for b in "${BATCH_SUITES[@]}"; do
    [[ "${bin}" == "${b}" ]] && return 0
  done
  return 1
}

run_suite() {
  local dir="$1"
  shift
  for bin in "$@"; do
    if is_batch_suite "${bin}"; then
      for kernel in auto scalar; do
        echo "--- ${dir}/tests/${bin} (SPOOFSCOPE_SIMD=${kernel})"
        SPOOFSCOPE_SIMD="${kernel}" "${REPO_ROOT}/${dir}/tests/${bin}"
      done
    else
      echo "--- ${dir}/tests/${bin}"
      "${REPO_ROOT}/${dir}/tests/${bin}"
    fi
  done
}

echo "=== tier-1: default build + full ctest ==="
cmake -S "${REPO_ROOT}" -B "${REPO_ROOT}/build" >/dev/null
cmake --build "${REPO_ROOT}/build" -j "${JOBS}"
ctest --test-dir "${REPO_ROOT}/build" --output-on-failure -j "${JOBS}"

RELEASE_SUITES=(
  net_trace_batch_test
  robustness_differential_test
  classify_test
  classify_batch_oracle_test
  classify_parallel_oracle_test
  analysis_streaming_oracle_test
  analysis_test
  analysis_incidents_test
  util_stats_test
  classify_flat_oracle_test
  classify_plane_update_test
)

echo "=== Release (-O3): decode, aggregation, report-builder and plane suites ==="
cmake -S "${REPO_ROOT}" -B "${REPO_ROOT}/build-release" \
  -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${REPO_ROOT}/build-release" -j "${JOBS}" \
  --target "${RELEASE_SUITES[@]}"
run_suite build-release "${RELEASE_SUITES[@]}"

echo "=== perfbench self-test: the benchmark program against this library ==="
python3 "${REPO_ROOT}/perfbench/run.py" --self-test

TSAN_SUITES=(
  topo_parallel_determinism_test
  bgp_collector_test
  classify_parallel_oracle_test
  classify_flat_oracle_test
  classify_batch_oracle_test
  classify_simd_kernel_test
  classify_streaming_test
  classify_streaming_degraded_test
  robustness_differential_test
  util_thread_pool_test
  scenario_multiseed_test
  state_resume_test
  state_delta_chain_test
  state_fault_injection_test
  classify_plane_update_test
  analysis_streaming_oracle_test
  service_control_test
  service_differential_test
  service_restart_test
)

echo "=== ThreadSanitizer: parallel + differential suites ==="
cmake -S "${REPO_ROOT}" -B "${REPO_ROOT}/build-tsan" \
  -DSPOOFSCOPE_SANITIZE=thread >/dev/null
cmake --build "${REPO_ROOT}/build-tsan" -j "${JOBS}" --target "${TSAN_SUITES[@]}"
run_suite build-tsan "${TSAN_SUITES[@]}"

ASAN_SUITES=(
  topo_parallel_determinism_test
  classify_parallel_oracle_test
  classify_flat_oracle_test
  classify_batch_oracle_test
  classify_simd_kernel_test
  trie_interval_set_test
  trie_property_test
  classify_test
  parser_fuzz_test
  bgp_mrt_lite_test
  bgp_as_path_test
  net_ipv4_test
  robustness_differential_test
  classify_streaming_degraded_test
  net_trace_batch_test
  state_snapshot_test
  state_resume_test
  state_delta_chain_test
  state_fault_injection_test
  classify_plane_update_test
  util_stats_test
  analysis_streaming_oracle_test
  service_control_test
  service_differential_test
  service_restart_test
)

echo "=== AddressSanitizer: classification + trie + corruption suites ==="
cmake -S "${REPO_ROOT}" -B "${REPO_ROOT}/build-asan" \
  -DSPOOFSCOPE_SANITIZE=address >/dev/null
cmake --build "${REPO_ROOT}/build-asan" -j "${JOBS}" --target "${ASAN_SUITES[@]}"
run_suite build-asan "${ASAN_SUITES[@]}"

UBSAN_SUITES=(
  parser_fuzz_test
  robustness_differential_test
  classify_test
  classify_parallel_oracle_test
  classify_batch_oracle_test
  classify_simd_kernel_test
  classify_streaming_degraded_test
  net_trace_test
  net_trace_batch_test
  bgp_mrt_lite_test
  data_rpsl_test
  state_snapshot_test
  state_resume_test
  state_delta_chain_test
  state_fault_injection_test
  classify_plane_update_test
  util_stats_test
  analysis_streaming_oracle_test
)

echo "=== UndefinedBehaviorSanitizer: parser + robustness suites ==="
cmake -S "${REPO_ROOT}" -B "${REPO_ROOT}/build-ubsan" \
  -DSPOOFSCOPE_SANITIZE=undefined >/dev/null
cmake --build "${REPO_ROOT}/build-ubsan" -j "${JOBS}" --target "${UBSAN_SUITES[@]}"
run_suite build-ubsan "${UBSAN_SUITES[@]}"

PORTABLE_SUITES=(
  classify_batch_oracle_test
  classify_simd_kernel_test
  net_trace_batch_test
  robustness_differential_test
  util_stats_test
  analysis_streaming_oracle_test
)

echo "=== portable guard: scalar-only build (SPOOFSCOPE_DISABLE_SIMD) ==="
cmake -S "${REPO_ROOT}" -B "${REPO_ROOT}/build-portable" \
  -DSPOOFSCOPE_DISABLE_SIMD=ON >/dev/null
cmake --build "${REPO_ROOT}/build-portable" -j "${JOBS}" \
  --target "${PORTABLE_SUITES[@]}"
run_suite build-portable "${PORTABLE_SUITES[@]}"

echo "=== serve smoke: resident daemon over the control socket ==="
# Boots the sharded service on a generated world and drives every
# control verb through a real Unix-domain socket session: submit,
# reload-updates (the world's own UPDATE lines patch the shared plane),
# health, stats-json, alerts, checkpoint, drain, an unknown verb (must
# answer "err ..."), then shutdown — and requires a clean daemon exit.
SERVE_OUT="$(mktemp -d "${TMPDIR:-/tmp}/spoofscope-check-serve.XXXXXX")"
"${REPO_ROOT}/build/tools/spoofscope" generate --seed 7 --out "${SERVE_OUT}/world"
"${REPO_ROOT}/build/tools/spoofscope" serve \
  --mrt "${SERVE_OUT}/world/route-server.mrt" \
  --trace "${SERVE_OUT}/world/ixp.trace" \
  --socket "${SERVE_OUT}/ctl.sock" --shards 4 \
  --checkpoint-dir "${SERVE_OUT}/ckpt" --checkpoint-every 5000 &
SERVE_PID=$!
python3 - "${SERVE_OUT}/ctl.sock" "${SERVE_OUT}/world/ixp.trace" \
  "${SERVE_OUT}/world/route-server.mrt" <<'PY'
import socket, sys, time

sock_path, trace, mrt = sys.argv[1], sys.argv[2], sys.argv[3]
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
for _ in range(400):
    try:
        s.connect(sock_path)
        break
    except OSError:
        time.sleep(0.025)
else:
    sys.exit("FAIL serve smoke: control socket never came up")
f = s.makefile("rw")

def rpc(line):
    f.write(line + "\n")
    f.flush()
    out = []
    while True:
        resp = f.readline()
        if not resp:
            sys.exit(f"FAIL serve smoke: connection closed during {line!r}")
        resp = resp.rstrip("\n")
        out.append(resp)
        if resp.startswith(("ok", "err")):
            return out

def expect(line, prefix):
    out = rpc(line)
    if not out[-1].startswith(prefix):
        sys.exit(f"FAIL serve smoke: {line!r} answered {out[-1]!r}, "
                 f"want {prefix!r}")
    return out

submitted = expect(f"submit {trace}", "ok submitted flows=")
reloaded = expect(f"reload-updates {mrt}", "ok reloaded announced=")
if not reloaded[-1].endswith(" epoch=1"):
    sys.exit(f"FAIL serve smoke: reload-updates left {reloaded[-1]!r}")
health = expect("health", "ok shards=4 processed=")
if not health[0].startswith("health: "):
    sys.exit(f"FAIL serve smoke: no health line, got {health[0]!r}")
stats = expect("stats-json", "ok")
if ('"detector":{' not in stats[0] or '"shards":4' not in stats[0]
        or '"plane_epoch":1' not in stats[0]):
    sys.exit(f"FAIL serve smoke: stats-json schema: {stats[0][:200]}")
alerts = expect("alerts", "ok alerts=")
expect("checkpoint", "ok checkpoint shards=4")
expect("drain", "ok drained processed=")
expect("bogus", "err unknown command: bogus")
expect("shutdown", "ok shutting-down")
print(f"serve smoke: {submitted[-1]}; {reloaded[-1]}; {alerts[-1]}")
PY
wait "${SERVE_PID}"
rm -rf "${SERVE_OUT}"

echo "=== internet-scale generate under TSan + ASan ==="
# Drives the chunk-parallel topology generator and the streamed parallel
# route propagation end to end through the CLI on a scaled-down internet
# preset: --scale-factor 16 keeps sanitizer runtime in check while the
# world still spans multiple AS chunks (5000 ASes / chunk_ases=2048) and
# multiple propagation chunks, with 4 worker threads racing for real.
for tree in build-tsan build-asan; do
  cmake --build "${REPO_ROOT}/${tree}" -j "${JOBS}" --target spoofscope_cli
  GEN_OUT="$(mktemp -d "${TMPDIR:-/tmp}/spoofscope-check-gen.XXXXXX")"
  echo "--- ${tree}/tools/spoofscope generate --scale internet --scale-factor 16 --threads 4"
  "${REPO_ROOT}/${tree}/tools/spoofscope" generate --scale internet \
    --scale-factor 16 --threads 4 --seed 7 --out "${GEN_OUT}"
  rm -rf "${GEN_OUT}"
done

echo "=== sanitized CLI: classify, report, detect + resume (delta and full), skip-mode, updates under ASan + UBSan ==="
# The production commands run by the sanitizer builds of the CLI. Output
# paths are relative to a per-tree directory so every printed line —
# including "labels written to" and "resume: restored ... from" — must
# match the tier-1 binary's byte for byte; the labels CSV too.
CLI_OUT="$(mktemp -d "${TMPDIR:-/tmp}/spoofscope-check-cli.XXXXXX")"
"${REPO_ROOT}/build/tools/spoofscope" generate --seed 7 --out "${CLI_OUT}/world"
# A copy of the trace damaged at fixed offsets: one flipped byte inside
# each of two records and 13 garbage bytes spliced into a third, so the
# skip-mode reader quarantines three regions and resyncs after each.
python3 - "${CLI_OUT}/world/ixp.trace" "${CLI_OUT}/world/damaged.trace" <<'PY'
import sys

header, record = 36, 40  # trace format v2 sizes
data = bytearray(open(sys.argv[1], "rb").read())
for rec, byte in ((100, 5), (2000, 20)):
    data[header + rec * record + byte] ^= 0x5A
splice = header + 5000 * record + 7
data[splice:splice] = bytes(range(0xA0, 0xAD))
open(sys.argv[2], "wb").write(data)
PY
cli_runs() {
  local bin="${REPO_ROOT}/$1/tools/spoofscope" out="${CLI_OUT}/$1"
  local inputs=(--mrt "${CLI_OUT}/world/route-server.mrt"
                --trace "${CLI_OUT}/world/ixp.trace")
  local detect=(detect "${inputs[@]}" --window 1800 --skew 60
                --checkpoint detect.ckpt --checkpoint-every 5000
                --checkpoint-delta)
  local full=(detect "${inputs[@]}" --window 1800 --skew 60
              --checkpoint full.ckpt --checkpoint-every 5000)
  mkdir -p "${out}"
  (
    cd "${out}"
    "${bin}" classify "${inputs[@]}" --labels labels.csv > classify.txt 2>&1
    "${bin}" report "${inputs[@]}" --rpsl "${CLI_OUT}/world/registry.rpsl" \
      > report.txt 2>&1
    "${bin}" "${detect[@]}" > detect.txt 2>&1
    "${bin}" "${detect[@]}" --resume > resume.txt 2>&1
    "${bin}" "${full[@]}" > full.txt 2>&1
    "${bin}" "${full[@]}" --resume > full-resume.txt 2>&1
    "${bin}" classify --mrt "${CLI_OUT}/world/route-server.mrt" \
      --trace "${CLI_OUT}/world/damaged.trace" --on-error skip \
      --labels skip-labels.csv > skip.txt 2>&1
    "${bin}" detect "${inputs[@]}" --window 1800 \
      --updates "${CLI_OUT}/world/route-server.mrt" > updates.txt 2>&1
  )
}
cli_runs build
for tree in build-asan build-ubsan; do
  cmake --build "${REPO_ROOT}/${tree}" -j "${JOBS}" --target spoofscope_cli
  echo "--- ${tree}/tools/spoofscope classify, report, detect, detect --resume (delta and full), classify --on-error skip, detect --updates"
  cli_runs "${tree}"
  for f in classify.txt labels.csv report.txt detect.txt resume.txt \
           full.txt full-resume.txt skip.txt skip-labels.csv updates.txt; do
    if ! cmp -s "${CLI_OUT}/build/${f}" "${CLI_OUT}/${tree}/${f}"; then
      echo "FAIL sanitized CLI: ${tree} ${f} differs from the tier-1 output"
      diff "${CLI_OUT}/build/${f}" "${CLI_OUT}/${tree}/${f}" | head -20
      exit 1
    fi
  done
done
rm -rf "${CLI_OUT}"

echo "=== fault injection: widened seed sweep across all sanitizers ==="
FAULT_SEEDS="1 2 3 4 5 6 7 8"
for tree in build-tsan build-asan build-ubsan; do
  echo "--- ${tree}/tests/state_fault_injection_test (SPOOFSCOPE_FAULT_SEEDS=${FAULT_SEEDS})"
  SPOOFSCOPE_FAULT_SEEDS="${FAULT_SEEDS}" \
    "${REPO_ROOT}/${tree}/tests/state_fault_injection_test"
done
echo "--- build/tests/classify_plane_update_test (SPOOFSCOPE_CHURN_STEPS=1000)"
SPOOFSCOPE_CHURN_STEPS=1000 "${REPO_ROOT}/build/tests/classify_plane_update_test"

echo "=== all checks passed ==="
