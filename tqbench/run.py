#!/usr/bin/env python3
"""Benchmark entry point for the Tiny Quanta repository.

Run from the root of a checkout:

    python3 tqbench/run.py --workload serve_light --seed 1 --seconds 10 --trace 0

It builds tq_serve and the measuring program (tqbench/tqbench.ml) from
source with dune, runs one workload under a hard timeout, and prints one
JSON object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
per-layer metrics of a separate traced run.  A run whose outputs fail a
check, whose generator lagged past its bound, or that times out prints
no result and exits non-zero.  The full record of every run, with host
metadata, goes to tqbench/out/.  See tqbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = "tqbench"
OUT_DIR = os.path.join(BENCH_DIR, "out")
SERVER_EXE = os.path.join("_build", "default", "bin", "serve_main.exe")
BENCH_EXE = os.path.join("_build", "default", BENCH_DIR, "tqbench.exe")
BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds):
    """The hard limit on one measurement: a fixed allowance for server
    spawns and drains and the DES replay, plus the 1 s warm-up and up to
    5 s drain grace of each of up to ten serve spawns, plus their load,
    twice --seconds.  With --seconds 20 a run ends within 180 s."""
    return 60 + 10 * (1 + 5) + 2 * seconds


def die(msg, code=2):
    print(f"tqbench: {msg}", file=sys.stderr)
    sys.exit(code)


def benchmark_spec():
    """Workload and metric names and units are defined once, in BENCHMARK.json."""
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json at the checkout root: {e}")


def command_output(argv):
    try:
        return subprocess.run(
            argv, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        die("run from the root of a Tiny Quanta checkout (dune-project, lib/ and bin/ not found)")
    argv = ["dune", "build", "--root", ".", "./bin/serve_main.exe", f"./{BENCH_DIR}/tqbench.exe"]
    try:
        # no shared dune cache: the build reads and writes only the checkout
        done = subprocess.run(
            argv,
            capture_output=True,
            text=True,
            timeout=BUILD_TIMEOUT_S,
            env=dict(os.environ, DUNE_CACHE="disabled"),
        )
    except FileNotFoundError:
        die("dune is not installed")
    except subprocess.TimeoutExpired:
        die(f"build did not finish within {BUILD_TIMEOUT_S} s")
    if done.returncode != 0:
        die("build failed:\n" + done.stdout + done.stderr)
    for exe, what in ((SERVER_EXE, "tq_serve"), (BENCH_EXE, "the measuring program")):
        if not os.access(exe, os.X_OK):
            die(f"{what} was not built: {exe} is missing")


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", BENCH_DIR):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f)
            for d, subdirs, files in os.walk(top)
            if not d.startswith(OUT_DIR)
            for f in files
        )
        for path in sorted(paths):
            if path.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_metadata(args):
    return {
        "nproc": os.cpu_count(),
        "ocaml_version": command_output(["ocamlopt", "-version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure(args, deadline):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.abspath(
        os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
    )
    argv = [
        os.path.abspath(BENCH_EXE),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.abspath(SERVER_EXE),
        "--spans-out", spans,
    ]
    # Its own session, so the measuring program and the tq_serve it
    # spawns are killed together on every way out.
    proc = subprocess.Popen(
        argv, cwd=OUT_DIR, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        # whatever the way out, nothing of the run outlives it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if not lines:
        die(f"the measuring program printed nothing (exit {proc.returncode})", 1)
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("the measuring program's last line is not JSON: " + lines[-1], 1)
    if not record.get("ok"):
        die(f"{args.workload} failed: {record.get('error')}", 1)
    return record


def main():
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()
    meta = host_metadata(args)
    try:
        record = measure(args, time.monotonic() + run_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish in time; killed", 1)

    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    measured = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {}
    for name, unit in wanted.items():
        value = measured.get(name)
        if value is None:
            if not args.trace:
                die(f"{args.workload} produced no {name}", 1)
            value = 0.0  # a layer this workload does not exercise
        elif not math.isfinite(value) or (not args.trace and value <= 0):
            die(f"{args.workload} measured {name} = {value}", 1)
        metrics[name] = {"value": value, "unit": unit}

    full = {"meta": meta, "info": record.get("info", {}), "result": record}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(full, f, indent=1)
    print(json.dumps({"meta": meta, "info": record.get("info", {})}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
