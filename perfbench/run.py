#!/usr/bin/env python3
"""Repository benchmark runner: builds the `perfbench` binary from source and
runs one workload of the smoke sweep.

    python3 perfbench/run.py --workload smoke-cold --seed 1 --seconds 25 --trace 0

Workloads: smoke-cold, smoke-warm, fleet-cold (see perfbench/README.md).
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Everything is built and
written under $CARGO_TARGET_DIR (default `.bench_build`) in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
WORKLOADS = ("smoke-cold", "smoke-warm", "fleet-cold")
# The measured run must end within the per-run limit; set-up and the
# populating pass of smoke-warm come out of the same budget.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(env):
    if not (ROOT / "crates" / "service" / "Cargo.toml").is_file():
        fail(f"{ROOT} holds no crates/ to build the benchmark against")
    command = ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", str(MANIFEST)]
    done = subprocess.run(command, cwd=ROOT, env=env, timeout=850)
    if done.returncode != 0:
        fail("build failed")
    return target_dir() / "release" / "perfbench"


def tool_output(command):
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_child(command, deadline):
    """Runs the binary; returns its standard output, or exits on failure."""
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("timed out", 3)
    if child.returncode != 0:
        fail(f"{Path(command[0]).name} {command[1]} exited with {child.returncode}")
    return out


def warm_template(binary, deadline):
    """The populated cache smoke-warm starts from, rebuilt when the binary changes."""
    base = target_dir() / "perfbench-warm"
    template, stamp = base / "cache", base / "stamp"
    fingerprint = hashlib.sha256(binary.read_bytes()).hexdigest()
    if stamp.is_file() and stamp.read_text() == fingerprint and template.is_dir():
        return template
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    staging = base / "staging"
    run_child([str(binary), "populate", "--cache", str(staging)], deadline)
    staging.rename(template)
    stamp.write_text(fingerprint)
    return template


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    binary = build(env)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = target_dir() / "perfbench-work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    command = [
        str(binary), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
        "--rustc", tool_output(["rustc", "-V"]),
        "--rev", tool_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "unknown",
    ]
    try:
        if args.workload == "smoke-warm":
            command += ["--template", str(warm_template(binary, deadline))]
        out = run_child(command, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        fail(f"metrics disagree with BENCHMARK.json: {sorted(missing)}")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
