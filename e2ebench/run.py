#!/usr/bin/env python3
"""Entry point of the repository benchmark (see README.md in this directory).

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

Builds the Extra-Deep libraries and the e2ebench program from source
(CMake, Release) into $CARGO_TARGET_DIR (default .bench_build) at the root
of the checkout, generates the workload's inputs from the seed (cached per
workload, seed and source digest), runs the program and forwards its output.
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; it is checked against
BENCHMARK.json before it is printed. Any failure exits non-zero without a
result line.
"""

import argparse
import hashlib
import json
import os
import shlex
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("build_bulk", "build_sampled")
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170
CACHED_INPUTS_PER_WORKLOAD = 2


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_checked(cmd, timeout, capture=False):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"timed out after {timeout} s: {shlex.join(cmd)}")
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {shlex.join(cmd)}")
    return out


def build(target):
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    bdir = os.path.join(build_root(), "cmake")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", bdir, "--target", target, "-j",
                 str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
    return os.path.join(bdir, target)


def source_digest():
    """sha256 over every file of src/ and of this directory."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_rev():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def inputs_for(exe, workload, seed, digest):
    """Generated inputs of (workload, seed), cached by source digest."""
    cache = os.path.join(build_root(), "inputs")
    os.makedirs(cache, exist_ok=True)
    key = f"{workload}-s{seed}-{digest[:16]}"
    path = os.path.join(cache, key)
    if os.path.exists(os.path.join(path, ".done")):
        os.utime(path)
        return path
    shutil.rmtree(path, ignore_errors=True)
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    run_checked([exe, "gen", "--workload", workload, "--seed", str(seed),
                 "--out", tmp], GEN_TIMEOUT_S)
    open(os.path.join(tmp, ".done"), "w").close()
    os.rename(tmp, path)
    # Keep the newest few input sets of this workload.
    mine = [os.path.join(cache, d) for d in os.listdir(cache)
            if d.startswith(workload + "-s") and not d.endswith(".tmp")]
    mine.sort(key=os.path.getmtime, reverse=True)
    for old in mine[CACHED_INPUTS_PER_WORKLOAD:]:
        shutil.rmtree(old, ignore_errors=True)
    return path


def check_result(line, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("result keys differ from the contract")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise RuntimeError(f"metrics/units differ from BENCHMARK.json: "
                           f"missing {sorted(set(want) - set(got))}, "
                           f"extra {sorted(set(got) - set(want))}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise RuntimeError("attempted/failed are not valid counts")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            exe = build("e2ebench_selftest")
            scratch = os.path.join(build_root(), "selftest")
            shutil.rmtree(scratch, ignore_errors=True)
            run_checked([exe, scratch], RUN_TIMEOUT_S)
            shutil.rmtree(scratch, ignore_errors=True)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        if args.seed < 0 or args.seconds < 1:
            ap.error("--seed must be >= 0 and --seconds >= 1")
        exe = build("e2ebench")
        digest = source_digest()
        inputs = inputs_for(exe, args.workload, args.seed, digest)
        work = os.path.join(build_root(), "work", args.workload)
        out = run_checked(
            [exe, "run", "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--inputs", inputs, "--work", work,
             "--git-rev", git_rev(), "--source-digest", digest,
             "--command", shlex.join(["python3"] + sys.argv)],
            RUN_TIMEOUT_S, capture=True)
        lines = out.strip().splitlines()
        if not lines:
            raise RuntimeError("e2ebench printed no result")
        check_result(lines[-1], args.trace == 1)
        results = os.path.join(build_root(), "results")
        os.makedirs(results, exist_ok=True)
        name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
        with open(os.path.join(results, name), "w") as f:
            f.write("\n".join(lines) + "\n")
        print("\n".join(lines), flush=True)
        return 0
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
