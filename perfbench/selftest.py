#!/usr/bin/env python3
"""Quick self-test of the benchmark's output contract.

Usage, from the repository root:

    python3 perfbench/selftest.py [--seconds S]

For every workload in BENCHMARK.json it runs the benchmark briefly
(`--seconds 1` by default) untraced and traced, and checks that:

* the last output line is one JSON object with exactly the keys
  `correct`, `attempted`, `failed` and `metrics`, with `correct` true and
  `attempted` at least 1;
* the untraced run prints every end-to-end metric, and the traced run
  every per-layer metric, each with the unit BENCHMARK.json declares and a
  finite numeric value;
* a second traced run reproduces every count and permille value exactly.

Exits 1 and names each violation when any check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC_UNITS = {"count", "permille"}


def run(workload, seconds, trace, seed=1):
    """Runs one benchmark invocation; returns (exit code, parsed result)."""
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def check(workload, trace, code, result, declared, problems):
    """Appends every contract violation of one run to `problems`."""
    where = f"{workload} --trace {trace}"
    if code != 0:
        problems.append(f"{where}: exit code {code}")
    if result is None:
        problems.append(f"{where}: last line is not a JSON object")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True:
        problems.append(f"{where}: correct is {result['correct']}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            problems.append(f"{where}: {key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append(f"{where}: attempted < 1")
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{where}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{where}: {m['name']} value {got.get('value')!r}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", default="1")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        code, result = run(name, args.seconds, 0)
        check(name, 0, code, result, bench["end_to_end"], problems)
        traced = [run(name, args.seconds, 1) for _ in range(2)]
        for code, result in traced:
            check(name, 1, code, result, bench["per_layer"], problems)
        if all(r is not None for _, r in traced):
            for m in bench["per_layer"]:
                if m["unit"] not in DETERMINISTIC_UNITS:
                    continue
                a, b = (r["metrics"].get(m["name"], {}).get("value") for _, r in traced)
                if a != b:
                    problems.append(f"{name}: {m['name']} differs between traced runs: {a} vs {b}")
        print(f"selftest: {name} done, {len(problems)} problem(s) so far", file=sys.stderr)
    for p in problems:
        print(f"selftest: FAIL {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} failure(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
