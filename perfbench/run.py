#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a standalone Cargo package that depends on the
simulator's crates by path) in release mode, then replaces this process
with the benchmark binary, passing the arguments through. Build output
goes to standard error; the benchmark's last standard-output line is its
JSON result. Exits non-zero, printing no result, when the build fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Builds the benchmark; returns the path of its executable."""
    proc = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--message-format=json-render-diagnostics",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: build failed (cargo exited {proc.returncode})")
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "firesim-perfbench":
                return msg["executable"]
    sys.exit("perfbench: build produced no executable")


def main():
    exe = build()
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
