#!/usr/bin/env bash
# Build and run the core performance benchmarks, recording machine-readable
# results at the repo root as BENCH_perf_core.json.
#
# Usage: tools/run_benches.sh [extra google-benchmark flags...]
#   e.g. tools/run_benches.sh --benchmark_filter='Flat'
#
# The bench tree is a dedicated Release build (build-bench) so recorded
# numbers are never an unoptimized run: the JSON is written to a temp file
# and only promoted to BENCH_perf_core.json after the provenance check
# confirms the binary itself reports a release build. (The context block
# comes from the binary's ProvenanceJsonReporter, not libbenchmark.so —
# the distro ships a debug libbenchmark whose baked-in build type once
# mislabelled a release run as "debug".)
#
# JSON goes through --benchmark_out (not stdout) so the reproduction report
# the binary prints after the runs cannot corrupt it.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build-bench}"
OUT_JSON="${REPO_ROOT}/BENCH_perf_core.json"
TMP_JSON="$(mktemp "${TMPDIR:-/tmp}/bench_perf_core.XXXXXX.json")"
trap 'rm -f "${TMP_JSON}"' EXIT

cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${BUILD_DIR}" --target bench_perf_core -j "$(nproc)"

"${BUILD_DIR}/bench/bench_perf_core" \
  --benchmark_out="${TMP_JSON}" \
  --benchmark_out_format=json \
  "$@"

# Refuse to record results from an unoptimized binary, then machine-check
# the constant-memory claim: BM_ReportStreaming records rss_growth_kb
# (resident-set delta across the bench loop) per trace multiplier;
# streaming report memory must not scale with trace length, so the 10x
# growth may exceed the 1x growth only by a fixed slack. Also prints the
# vector-kernel speedups (classify, decode and the report's packet-size
# sketch) whenever the run measured both kernels, and gates the
# incremental-patch speedup (BM_FlatPlanePatch and
# BM_FlatPlanePatchScattered, each >= 10x the best BM_FlatCompileParallel)
# whenever the run measured them.
python3 - "${TMP_JSON}" <<'PY'
import json, sys

SLACK_KB = 32 * 1024  # allocator noise, not O(trace) growth

doc = json.load(open(sys.argv[1]))
build = doc.get("context", {}).get("spoofscope_build_type", "unknown")
if build != "release":
    sys.exit(f"FAIL provenance check: spoofscope_build_type={build!r} "
             "(refusing to record non-release numbers; the bench tree "
             "must be configured with -DCMAKE_BUILD_TYPE=Release)")
print(f"OK provenance check: spoofscope_build_type={build}")

rate = {}
decode_rate = {}
sketch_rate = {}
growth = {}
compile_ms = {}
patch_ms = {}
prop_rate = {}
serve_rate = {}
e2e = None
for b in doc.get("benchmarks", []):
    name = b.get("name", "")
    if name.startswith("BM_ServeThroughput/shards:"):
        shards = int(name.split("shards:")[1].split("/")[0])
        serve_rate[shards] = b.get("items_per_second", 0.0)
    if name.startswith("BM_ReportStreaming/trace_mult:"):
        mult = int(name.split("trace_mult:")[1].split("/")[0])
        growth[mult] = b.get("rss_growth_kb", 0.0)
    if name.startswith("BM_FlatClassifyBatchKernel/simd:"):
        kernel = name.split("simd:")[1].split("/")[0]
        rate[kernel] = b.get("items_per_second", 0.0)
    if name.startswith("BM_BatchDecodeKernel/simd:"):
        kernel = name.split("simd:")[1].split("/")[0]
        decode_rate[kernel] = b.get("items_per_second", 0.0)
    if name.startswith("BM_SketchStreamKernel/simd:"):
        kernel = name.split("simd:")[1].split("/")[0]
        sketch_rate[kernel] = b.get("items_per_second", 0.0)
    if name.startswith("BM_FlatCompileParallel/threads:"):
        threads = int(name.split("threads:")[1].split("/")[0])
        compile_ms[threads] = b.get("real_time", 0.0)
    if name in ("BM_FlatPlanePatch", "BM_FlatPlanePatchScattered"):
        patch_ms[name] = b.get("real_time", 0.0)
    if name.startswith("BM_BgpPropagationParallel/threads:"):
        threads = int(name.split("threads:")[1].split("/")[0])
        prop_rate[threads] = b.get("items_per_second", 0.0)
    if name.startswith("BM_ScenarioEndToEnd"):
        e2e = b
if 1 in growth and 10 in growth:
    line = (f"BM_ReportStreaming rss_growth_kb: "
            f"1x={growth[1]:.0f} 10x={growth[10]:.0f}")
    if growth[10] > growth[1] + SLACK_KB:
        sys.exit(f"FAIL constant-memory check: {line} "
                 f"(10x grew >{SLACK_KB}KB past 1x)")
    print(f"OK constant-memory check: {line}")
for label, rates, unit in (("kernel", rate, "flows"),
                           ("decode kernel", decode_rate, "flows"),
                           ("sketch kernel", sketch_rate, "adds")):
    for kernel, items in sorted(rates.items()):
        note = ""
        if kernel != "scalar" and rates.get("scalar"):
            note = f" ({items / rates['scalar']:.2f}x scalar)"
        print(f"{label} {kernel}: {items / 1e6:.1f}M {unit}/s{note}")
for name, ms in sorted(patch_ms.items()) if compile_ms else ():
    best = min(compile_ms.values())
    speedup = best / ms
    line = (f"{name} (100-route batch): {ms:.2f}ms vs "
            f"{best:.2f}ms recompile = {speedup:.1f}x")
    if speedup < 10.0:
        sys.exit(f"FAIL incremental-patch check: {line} (want >= 10x)")
    print(f"OK incremental-patch check: {line}")

# Parallel route propagation must actually scale: on >= 8 hardware
# threads the all-origins fan-out (BM_BgpPropagationParallel) has to
# reach 6x the single-thread origins/s; on smaller machines the bar is
# prorated to 0.75x the thread count (the 8-core bar expressed per
# core). A 1-thread-only run (1-core box) is reported, not gated.
if prop_rate and 1 in prop_rate and prop_rate[1] > 0:
    top = max(prop_rate)
    if top == 1:
        print("note: propagation speedup gate skipped "
              "(single hardware thread; no parallel data point)")
    else:
        speedup = prop_rate[top] / prop_rate[1]
        need = 6.0 if top >= 8 else 0.75 * top
        line = (f"propagation {prop_rate[1] / 1e3:.1f}K -> "
                f"{prop_rate[top] / 1e3:.1f}K groups/s "
                f"({speedup:.2f}x on {top} threads, need {need:.2f}x)")
        if speedup < need:
            sys.exit(f"FAIL propagation-speedup check: {line}")
        print(f"OK propagation-speedup check: {line}")
# The resident service's shards are its scaling unit: on >= 4 cores a
# 4-shard server must ingest at >= 2x the single-shard rate (the ISSUE's
# acceptance bar). Fewer cores cannot express the parallelism, so the
# gate is reported as skipped rather than failed.
if 1 in serve_rate and 4 in serve_rate and serve_rate[1] > 0:
    num_cpus = doc.get("context", {}).get("num_cpus", 0)
    speedup = serve_rate[4] / serve_rate[1]
    line = (f"serve ingest {serve_rate[1] / 1e6:.1f}M -> "
            f"{serve_rate[4] / 1e6:.1f}M flows/s "
            f"({speedup:.2f}x at 4 shards on {num_cpus} cpus)")
    if num_cpus >= 4:
        if speedup < 2.0:
            sys.exit(f"FAIL serve-scaling check: {line} (want >= 2x)")
        print(f"OK serve-scaling check: {line}")
    else:
        print(f"note: serve-scaling gate skipped, < 4 cpus: {line}")
if e2e is not None:
    print(f"internet end-to-end: {e2e.get('real_time', 0.0):.1f}"
          f"{e2e.get('time_unit', 's')} for {e2e.get('ases', 0):.0f} ASes, "
          f"{e2e.get('table_prefixes', 0):.0f} table prefixes, "
          f"peak rss {e2e.get('peak_rss_kb', 0) / 1024:.0f}MB "
          f"(scale factor {e2e.get('scale_factor', 0):.0f})")
else:
    print("note: internet-scale end-to-end bench not run; enable with "
          "SPOOFSCOPE_BENCH_INTERNET=1 (SPOOFSCOPE_BENCH_INTERNET_FACTOR=N "
          "shrinks the world)")
PY

mv "${TMP_JSON}" "${OUT_JSON}"
trap - EXIT
echo "wrote ${OUT_JSON}"
