#!/usr/bin/env python3
"""The spoofscope benchmark: build, generate inputs once per seed, run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Steps:

1. Build the spoofscope library, the input generator and the driver
   from the sources in this checkout (Release, under .bench_build/).
2. Generate the inputs for the seed with perfbench_gen (world files,
   trace, segment and churn files), unless the input cache already
   holds them. The cache key covers the seed, the generator parameters
   and the generator binary, so a stale world is never measured.
   Generation time is in no metric.
3. Run the workload in a fresh driver process, which receives only the
   files. Its last stdout line, the result JSON, is printed last.

--self-test runs every workload briefly on a small world and checks
that the output checks pass and reject a perturbed reference.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CACHE = os.path.join(ROOT, ".bench_cache")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("classify-ixp", "report-ixp", "serve-churn")
# Generator parameters; any change makes a new cache key, as does any
# change to the generator binary (its constants included).
WORLD = {"scale": "ixp"}
SMALL_WORLD = {"scale": "small"}
CACHE_KEEP = 16  # worlds kept (about 140 MiB each at ixp scale)
# The driver's run time beyond --seconds: set-ups, checks, traced ledger
# passes and tear-down (under 30 s at paper scale on 4 CPUs). At
# --seconds 35 the driver is stopped at 155 s, so a stuck run still ends
# within 180 s with the generation time of a new seed on top.
DRIVER_MARGIN_S = 120


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr, failing loudly."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("command did not finish within %d s: %s" % (timeout, " ".join(cmd)))
    if done.returncode != 0:
        fail("command failed (%d): %s" % (done.returncode, " ".join(cmd)))


def build():
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("spoofscope sources not found (%s missing); run from the "
                 "repository root" % needed)
    run_logged(["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "-j", jobs, "--target",
                "perfbench_gen", "perfbench_driver"], timeout=1500)
    return {
        "gen": os.path.join(BUILD, "perfbench_gen"),
        "driver": os.path.join(BUILD, "perfbench_driver"),
    }


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def world_inputs(bins, seed, params):
    """The cached input directory for (seed, params, generator build)."""
    key_doc = json.dumps({"seed": seed, "params": params,
                          "gen": file_digest(bins["gen"])}, sort_keys=True)
    key = hashlib.sha256(key_doc.encode()).hexdigest()[:24]
    final = os.path.join(CACHE, "seed%d-%s" % (seed, key))
    if os.path.isfile(os.path.join(final, "world.json")):
        os.utime(final)
        return final
    os.makedirs(CACHE, exist_ok=True)
    tmp = os.path.join(CACHE, "tmp-%d" % os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        try:
            gen = subprocess.run(
                [bins["gen"], "--out", tmp, "--seed", str(seed),
                 "--scale", params["scale"]],
                capture_output=True, text=True, timeout=600, check=False)
        except subprocess.TimeoutExpired:
            fail("input generation did not finish within 600 s")
        if gen.returncode != 0:
            sys.stderr.write(gen.stdout + gen.stderr)
            fail("input generation failed")
        m = re.search(r"(\d+) ASes, (\d+) members, (\d+) sampled flows",
                      gen.stdout)
        if not m:
            fail("unexpected generator output: " + gen.stdout)
        world = {"ases": int(m.group(1)), "members": int(m.group(2)),
                 "flows": int(m.group(3)), "key": key_doc}
        with open(os.path.join(tmp, "world.json"), "w") as f:
            json.dump(world, f)
        if os.path.isdir(final):  # a partial entry from an interrupted run
            shutil.rmtree(final)
        os.rename(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    evict_old_worlds(keep=final)
    return final


def evict_old_worlds(keep):
    entries = sorted((e for e in os.scandir(CACHE) if e.is_dir()),
                     key=lambda e: e.stat().st_mtime, reverse=True)
    for e in entries[CACHE_KEEP:]:
        if e.path != keep:
            shutil.rmtree(e.path, ignore_errors=True)


def run_driver(bins, inputs, workload, seed, seconds, trace, self_test=False):
    """Runs one workload; returns (stdout lines before the result, result)."""
    work = os.path.join(WORK, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [bins["driver"], "--workload", workload, "--inputs", inputs,
           "--work", work, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if self_test:
        cmd.append("--self-test")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=seconds + DRIVER_MARGIN_S, check=False)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % (seconds + DRIVER_MARGIN_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("driver exited with %d" % done.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed driver result: " + lines[-1])
    return lines[:-1], result


def with_world_provenance(lines, inputs, seed):
    """Adds the world's size from the cache entry to the driver's
    provenance line."""
    with open(os.path.join(inputs, "world.json")) as f:
        world = json.load(f)
    out = []
    for line in lines:
        if line.startswith("provenance: "):
            prov = json.loads(line[len("provenance: "):])
            prov.update(seed=seed, ases=world["ases"], flows=world["flows"],
                        world_members=world["members"])
            line = "provenance: " + json.dumps(prov, sort_keys=True)
        out.append(line)
    return out


def self_test(bins):
    seed = 1
    inputs = world_inputs(bins, seed, SMALL_WORLD)
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            started = time.monotonic()
            lines, result = run_driver(bins, inputs, workload, seed, 1, trace,
                                       self_test=True)
            rejected = any(l.startswith("self-test: perturbed")
                           for l in lines)
            good = (result["correct"] and result["failed"] == 0 and rejected
                    and all(m["value"] == m["value"]
                            for m in result["metrics"].values()))
            ok = ok and good
            print("self-test %-13s trace=%d: %s (%d checks, %.1f s)" % (
                workload, trace, "ok" if good else "FAILED",
                result["attempted"], time.monotonic() - started))
    print("self-test: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not args.self_test and (args.seed < 0 or args.seconds < 1):
        ap.error("--seed must be >= 0 and --seconds >= 1")

    bins = build()
    if args.self_test:
        return self_test(bins)
    inputs = world_inputs(bins, args.seed, WORLD)
    lines, result = run_driver(bins, inputs, args.workload, args.seed,
                               args.seconds, args.trace)
    for line in with_world_provenance(lines, inputs, args.seed):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
