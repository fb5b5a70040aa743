"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 perfbench/smoke.py

For each workload it checks that ``run.py --tiny`` exits 0 with a correct
result; that ``--trace 0`` prints exactly the ``end_to_end`` metrics of
``BENCHMARK.json`` and ``--trace 1`` exactly its ``per_layer`` metrics,
each with its unit; that two traced runs with the same seed give the same
value for every count metric; and that every per-layer time other than the
tracing overhead is positive, so none reads a constant zero.  Last, it
checks that the benchmark fails without printing a result in a directory
holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    assert proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True, f"{what}: incorrect\n{proc.stdout}"
    assert result["attempted"] >= 1 and result["failed"] == 0, what
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        plain = result_of(run(workload, 0), f"{workload} --trace 0")
        assert units(plain) == e2e, f"{workload}: end-to-end metrics differ from BENCHMARK.json"
        assert all(m["value"] > 0 for m in plain["metrics"].values()), workload
        first = result_of(run(workload, 1), f"{workload} --trace 1")
        second = result_of(run(workload, 1), f"{workload} --trace 1, again")
        assert units(first) == layer, f"{workload}: per-layer metrics differ from BENCHMARK.json"
        for name, unit in layer.items():
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if unit == "count":
                assert a == b, f"{workload}: count {name} changed between traced runs: {a} != {b}"
            if unit == "s" and name != "trace.overhead_s":
                assert a > 0, f"{workload}: {name} is {a}"
        print(f"{workload}: ok")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("sweep-serial", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "the benchmark passed without the program's sources"
    assert '"correct"' not in proc.stdout, "the benchmark printed a result without sources"
    print("without sources: fails as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
