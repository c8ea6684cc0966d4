#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo package, reaching the
engine through the crates' public APIs) into $CARGO_TARGET_DIR, or
`.bench_build` when unset, then runs the workload in a fresh process, so
`peak_rss_mb` is that workload's own high-water mark. Cargo's output and
the benchmark's notes go to stderr; the last line of stdout is the
result object. The names it reports are checked against BENCHMARK.json.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr, cwd=ROOT,
    )
    if build.returncode != 0:
        fail("build failed")

    os.makedirs(target, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=target)
    try:
        run = subprocess.run(
            [os.path.join(target, "release", "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.returncode != 0:
        fail(f"the run exited with code {run.returncode}")

    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("the run printed no result")
    result = json.loads(lines[-1])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"reported metrics {sorted(got)} differ from BENCHMARK.json's {sorted(expected)}")
    print(lines[-1])


if __name__ == "__main__":
    main()
