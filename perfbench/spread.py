"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root::

    python3 perfbench/spread.py --workloads sweep-serial,point-queries --seeds 1-10
    python3 perfbench/spread.py --workloads figure-export --seeds 1-5 --trace 1 --out runs.json

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, and flags an end-to-end spread above a third of the
metric's bound in ``BENCHMARK.json`` (``setup_s`` excepted).  ``--out``
writes every run's values as JSON, the input for comparing two commits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(proc.stdout[-3000:] + proc.stderr[-3000:], file=sys.stderr)
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                return 1
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.setdefault(workload, []).append({"seed": seed, "values": values})
            print(f"{workload} seed {seed}: {time.monotonic() - start:.1f} s", flush=True)
        print(f"{'metric':<46} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        names = runs[workload][0]["values"]
        for name in names:
            vals = [r["values"][name] for r in runs[workload]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if name in bounds and name != "setup_s":
                worst = max(worst, spread / bounds[name])
                flag = "  ABOVE A THIRD OF ITS BOUND" if spread > bounds[name] / 3 else ""
            print(f"{name:<46} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    if args.trace == 0:
        print(f"largest end-to-end spread is {worst:.2f} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
