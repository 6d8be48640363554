#!/usr/bin/env python3
"""Tiny-size smoke run of every benchmark workload.

    python3 smoke.py PATH/TO/phloem-perfbench REPO_ROOT

Runs each workload on shrunken inputs, untraced and traced, and asserts
that the result line is well formed, that every output checked out, and
that it carries exactly the metrics BENCHMARK.json names, each with its
declared unit.
"""

import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ["native-graph", "native-handoff", "sim-sweep", "service-mix"]


def main():
    binary, root = sys.argv[1], os.path.abspath(sys.argv[2])
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    failures = 0
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-smoke-") as tmp:
        for workload in WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                cmd = [binary, "--workload", workload, "--seed", "7",
                       "--seconds", "0.5", "--trace", trace, "--tiny",
                       "--root", root, "--run-dir", os.path.relpath(tmp, root),
                       "--trace-out", os.path.join(tmp, "spans.json")]
                proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True,
                                      timeout=170)
                try:
                    result = json.loads(proc.stdout.splitlines()[-1])
                    assert proc.returncode == 0, f"exit {proc.returncode}"
                    assert set(result) == {"correct", "attempted", "failed",
                                           "metrics"}
                    assert result["correct"] is True
                    assert result["failed"] == 0 and result["attempted"] >= 1
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    assert got == want, f"metrics differ: {set(got) ^ set(want)}"
                    for name, v in result["metrics"].items():
                        assert isinstance(v["value"], (int, float)), name
                    if key == "end_to_end":
                        zero = [k for k, v in result["metrics"].items()
                                if v["value"] <= 0]
                        assert not zero, f"non-positive metrics: {zero}"
                    else:
                        with open(os.path.join(tmp, "spans.json")) as f:
                            events = json.load(f)["traceEvents"]
                        assert events and all(
                            {"name", "ts", "dur"} <= set(e) for e in events)
                    print(f"ok   {workload} trace={trace}")
                except (AssertionError, IndexError, ValueError) as e:
                    failures += 1
                    print(f"FAIL {workload} trace={trace}: {e}\n{proc.stderr}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
