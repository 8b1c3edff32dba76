#!/usr/bin/env python3
"""Build and run the lcrb Solver benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload p-greedy-mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first form builds `perfbench` (a cargo package of its own that
depends on the repository's crates by path) in release mode, then runs
one workload and passes its output through; the last stdout line is the
result object. `CARGO_TARGET_DIR` is honoured and defaults to
`.bench_build`. Traced runs write their spans under `perfbench/out/`.

`--smoke` runs every workload of BENCHMARK.json at a tiny size for about
a second, untraced and traced, and checks that each run passes its
answer checks and prints every metric BENCHMARK.json names, with its
unit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# The crates the benchmark builds against; without them there is
# nothing to measure.
REQUIRED = [
    os.path.join(ROOT, "crates", name, "Cargo.toml")
    for name in ("core", "datasets", "diffusion", "graph")
]


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        fail("repository sources not found: " + ", ".join(os.path.relpath(p, ROOT) for p in missing))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    # Cargo's progress goes to stderr; stdout stays free for the result.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("benchmark build failed")
    binary = os.path.join(target, "release", "lcrb-perfbench")
    if not os.path.isfile(binary):
        fail(f"built binary missing at {binary}")
    return binary


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            before = len(problems)
            name = workload["name"]
            cmd = [binary, "--workload", name, "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--tiny"]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{name} --trace {trace}"
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                problems.append(f"{label}: exit {run.returncode}\n{run.stderr}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{label}: checks did not pass: {result}")
            if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
                problems.append(f"{label}: attempted {result.get('attempted')}")
            metrics = result.get("metrics", {})
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{label}: metric {m['name']} missing")
                elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: metric {m['name']} is {got}, want unit {m['unit']}")
            extra = set(metrics) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{label}: unexpected metrics {sorted(extra)}")
            if len(problems) == before:
                print(f"ok   {label}: {len(metrics)} metrics", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv):
    binary = build()
    if argv == ["--smoke"]:
        return smoke(binary)
    run = subprocess.run([binary] + argv, cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
