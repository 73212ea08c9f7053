#!/usr/bin/env python3
"""Self-test of the benchmark, a few seconds per workload at small sizes.

    python3 perfbench/selftest.py

For every workload run.py knows (those in BENCHMARK.json and the
ungated wire-updates) it runs a timed and a traced run and asserts that
the result line is correct and carries exactly the metrics
BENCHMARK.json names, each with its unit, and that the table above it
prints each of them with that unit and a sample count. Then it corrupts
one reference answer and asserts that the run fails.
"""
import json
import pathlib
import re
import subprocess
import sys

from run import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace), "--small", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    return p.returncode, p.stdout.strip().splitlines(), p.stderr


def check_metrics(workload, trace, lines):
    expected = SPEC["per_layer" if trace else "end_to_end"]
    result = json.loads(lines[-1])
    assert result["correct"] is True, f"{workload}: run not correct"
    assert result["attempted"] >= 1, f"{workload}: nothing attempted"
    got = result["metrics"]
    assert set(got) == {m["name"] for m in expected}, \
        f"{workload}: metrics {sorted(set(got) ^ {m['name'] for m in expected})} differ"
    for m in expected:
        assert got[m["name"]]["unit"] == m["unit"], f"{workload}: {m['name']} unit"
        row = re.compile(rf"^{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s+n=\d+$")
        assert any(row.match(line) for line in lines[:-1]), \
            f"{workload}: table has no row for {m['name']} [{m['unit']}]"


def main():
    failures = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            rc, lines, err = run(w, trace)
            try:
                assert rc == 0 and lines, f"{w} trace={trace}: exit {rc}\n{err[-2000:]}"
                check_metrics(w, trace, lines)
                print(f"[PASS] {w} trace={trace}: {len(json.loads(lines[-1])['metrics'])} metrics")
            except AssertionError as e:
                failures += 1
                print(f"[FAIL] {e}")
        rc, lines, _ = run(w, 0, "--corrupt-reference")
        failed_closed = rc != 0 and (not lines or not lines[-1].startswith("{")
                                     or json.loads(lines[-1])["correct"] is False)
        print(f"[{'PASS' if failed_closed else 'FAIL'}] {w}: a corrupted reference "
              f"fails the run (exit {rc})")
        failures += not failed_closed
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
