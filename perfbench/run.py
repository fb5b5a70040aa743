"""Benchmark of the chcrown certificate engine: sweeps, point queries, figure exports.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 20 --trace 0

Every workload drives the public ``chcrown`` CLI (``python3 -m chcrown.cli``
with ``src`` on ``PYTHONPATH``) as a closed loop with one client: each
command starts only after the previous one has exited.  The seed only
chooses the parameters ``t`` the commands receive.

- ``sweep-serial``: ``verify all --jobs 1`` on the default 101-point sweep.
- ``sweep-jobs2``: the same sweep with ``--jobs 2``; only the pool dispatch differs.
- ``point-queries``: 40 calls of ``verify all --t X`` per round, ``X``
  uniform on the sweep window by systematic sampling (one point in each of
  40 equal strata, all strata shifted by one seeded offset, order shuffled),
  so every round holds the same share of linked ``t > 0.4`` points.
- ``figure-export``: ``export spheres|arcs|disks|limitset`` at one seeded
  unlinked and one seeded linked interior ``t``; the second round repeats
  the first and must give the same bytes.

A request is one ``verify`` call, or for ``figure-export`` the four exports
of one ``t``; ``query_p50_s`` and ``query_tail_s`` are its latency.

A run measures whole rounds: the first ones always (two for
``figure-export``), then another while it is expected to end within
``--seconds``.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of one round run through ``perfbench/tracer.py`` next to the
same round run untraced (their wall-time difference is the tracing
overhead).  Every child runs with BLAS and OpenMP pinned to one thread.
Work files go to ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACER = Path(__file__).resolve().parent / "tracer.py"

T_MIN = 0.375 + 1e-4          # the default sweep floor, just off the parabolic end
T_MAX = math.sqrt(2.0) - 1.0  # the real point, right end of the family
T_LINK = 0.4                  # crown circles link above this parameter

#: ``verify all`` report on the default sweep at the commit that added this
#: benchmark: 8948 records, 111 failed (the documented disks band).
RECORDED_SHA256 = "64d57e7137ba54a795048131952cf8c224cc08744f74f12ec278aa146343eec3"

PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
RUN_BUDGET_S = 170.0
TAIL_PCT = 75
EXPORT_KINDS = ("spheres", "arcs", "disks", "limitset")

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "query_p50_s": "s", "query_tail_s": "s",
}

#: spans every workload's traced round enters, reported as self seconds
SELF_S_SPANS = (
    "triangle.build_generators", "dirichlet.DirichletConfig.build",
    "dirichlet.side_matrix", "crown.arc_report", "heisenberg.disk_intersection_segment",
    "core.fixed_points_boundary", "core.classify_isometry",
)
#: spans some workloads never enter, reported as a share of the traced wall
#: time so that no metric in seconds reads a constant zero
SHARE_SPANS = (
    "dirichlet.pair_relation", "dirichlet.sphere_mesh", "crown.disk_disjointness_certificates",
    "crown.visible_component", "crown.golden_minimize", "verify.Report.to_json",
)
CALL_SPANS = SELF_S_SPANS + SHARE_SPANS
LAYERS = ("verify", "crown", "dirichlet", "triangle", "core", "heisenberg")
SUITES = ("relations", "dirichlet", "arcs", "disks", "minima")
RUNGS = ("unlinked", "parallel-planes", "no-chord", "blocked", "covered", "separated",
         "overlapping")
COUNTERS = ("dirichlet.SpinalSphere.side_of_lifts.calls", "dirichlet.side_matrix.points",
            "crown.golden_minimize.evals") + tuple(f"crown.disk_ladder.rung.{r}" for r in RUNGS)


def _per_layer_units() -> Dict[str, str]:
    units = {"verify.pool.busy_share": "1", "trace.overhead_s": "s"}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"verify.suite.{s}.share": "1" for s in SUITES})
    units.update({f"verify.export.{k}.share": "1" for k in EXPORT_KINDS})
    for name in SELF_S_SPANS:
        units[f"{name}.self_s"] = "s"
    for name in SHARE_SPANS:
        units[f"{name}.self_share"] = "1"
    units.update({f"{name}.calls": "count" for name in CALL_SPANS})
    units.update({name: "count" for name in COUNTERS})
    units["dirichlet.config_reuse"] = "1"
    units["crown.arc_reuse"] = "1"
    return units


PER_LAYER = _per_layer_units()


@dataclass(frozen=True)
class Size:
    """How much work one round does; ``TINY`` is for the smoke test."""

    sweep_args: Tuple[str, ...]
    queries: int
    export_args: Dict[str, Tuple[str, ...]]
    setup_trials: int


FULL = Size((), 40, {}, 4)
TINY = Size(("--steps", "3"), 4, {"spheres": ("--mesh", "8"), "arcs": ("--samples", "17"),
                                  "disks": ("--rim", "8"), "limitset": ("--depth", "3")}, 2)


# ---------------------------------------------------------------------------
# running children


@dataclass
class Call:
    wall: float
    cpu: float
    code: int


@dataclass
class Round:
    """One round of a workload: its timings, operations and outputs."""

    wall: float = 0.0
    cpu: float = 0.0
    latencies: List[float] = field(default_factory=list)
    ops: int = 0        # report records, or export commands
    failures: int = 0   # failed operations, the documented disks band included
    bad: int = 0        # failed operations outside the documented band
    outputs: Dict[str, str] = field(default_factory=dict)   # output name -> sha256
    span_files: List[Path] = field(default_factory=list)
    _request: float = 0.0

    def add(self, call: Call, ends_request: bool = True) -> None:
        """Count one call; a request (whose latency is kept) may span several calls."""
        self.wall += call.wall
        self.cpu += call.cpu
        self._request += call.wall
        if ends_request:
            self.latencies.append(self._request)
            self._request = 0.0


def _cpu_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Starts children one at a time, pinned, and waits for each."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED_THREADS)
        self.problems: List[str] = []
        self._calls = 0

    def run(self, argv: List[str]) -> Call:
        self._calls += 1
        log = self.work / f"call-{self._calls:04d}.log"
        before = _cpu_children()
        start = time.perf_counter()
        with open(log, "wb") as fh:
            # a session of its own, so that killing it also ends its pool workers
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            kill = lambda: os.killpg(proc.pid, signal.SIGKILL)  # noqa: E731
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), kill)
            watchdog.start()
            try:
                code = proc.wait()
            except BaseException:
                kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
        call = Call(time.perf_counter() - start, _cpu_children() - before, code)
        if code not in (0, 1):
            tail = log.read_text(errors="replace").strip().splitlines()[-1:] or [""]
            self.problems.append(f"{' '.join(argv[2:])}: exit {code}: {tail[0]}")
        return call

    def cli(self, args: List[str], spans: Optional[Path] = None) -> Call:
        if spans is None:
            return self.run([sys.executable, "-m", "chcrown.cli", *args])
        return self.run([sys.executable, str(TRACER), str(spans), *args])

    def setup(self) -> float:
        call = self.run([sys.executable, "-c", "import chcrown.cli"])
        if call.code != 0:
            self.problems.append(f"importing chcrown.cli exits {call.code}")
        return call.wall


# ---------------------------------------------------------------------------
# output checks


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expected_failure(rec: dict) -> bool:
    """README's documented finding: disk pairs may overlap strictly inside (0.4, sqrt 2 - 1)."""
    return rec["suite"] == "disks" and T_LINK < rec["t"] < T_MAX


def check_report(rnd: Round, path: Path, code: int, problems: List[str],
                 points: Optional[List[float]] = None) -> None:
    """Add one report's operations to ``rnd``: one per record.

    A crash or an unreadable report counts as one failed operation, never
    as a missing one.  A failing record outside the documented band
    counts as failed in ``bad`` too.
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        recs = data["records"]
        summary = data["summary"]
        keys = [(r["suite"], r["t"], r["key"]) for r in recs]
        failed = [r for r in recs if not r["pass"]]
        config_points = data["config"].get("points")
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        problems.append(f"{path.name}: unreadable report ({exc.__class__.__name__})")
        rnd.ops, rnd.failures, rnd.bad = rnd.ops + 1, rnd.failures + 1, rnd.bad + 1
        return
    unexpected = [r for r in failed if not expected_failure(r)]
    for r in unexpected[:3]:
        problems.append(f"{path.name}: unexpected failure {r['suite']} t={r['t']!r} {r['key']}")
    if summary.get("records") != len(recs) or summary.get("failed") != len(failed):
        problems.append(f"{path.name}: summary disagrees with its records")
    if code != (1 if failed else 0):
        problems.append(f"{path.name}: exit code {code} with {len(failed)} failed records")
    if keys != sorted(keys):
        problems.append(f"{path.name}: records are not sorted")
    if points is not None and config_points != points:
        problems.append(f"{path.name}: report is for {config_points}, not {points}")
    rnd.ops += len(recs)
    rnd.failures += len(failed)
    rnd.bad += len(unexpected)
    rnd.outputs[repr(points[0]) if points else "report"] = _sha256(path)


def check_export(kind: str, t: float, out: Path, code: int, problems: List[str]) -> Optional[str]:
    """Validate one export directory; return the digest of its files or None."""
    where = f"export {kind} t={t!r}"
    try:
        if code != 0:
            raise ValueError(f"exit code {code}")
        manifest = json.loads((out / f"{kind}_manifest.json").read_text(encoding="utf-8"))
        files = [out / f"{kind}_manifest.json"] + [out / name for name in manifest["files"]]
        texts = {p.name: p.read_text(encoding="utf-8") for p in files}
        if manifest["kind"] != kind or manifest["t"] != t:
            raise ValueError(f"manifest names {manifest['kind']} t={manifest['t']!r}")
        lines = texts[f"{kind}.obj"].splitlines()
        if kind == "limitset":
            vertices = sum(1 for line in lines if line.startswith("v "))
            if not 0 < vertices == manifest["parameters"]["points"]:
                raise ValueError(f"{vertices} limit-set vertices")
        elif sum(1 for line in lines if line.startswith("o ")) != 8:
            raise ValueError("not eight objects")
        if kind == "disks":
            rows = [json.loads(row) for row in texts["disk_certificates.jsonl"].splitlines()]
            if len(rows) != 28 or not all("pass" in row for row in rows):
                raise ValueError("not 28 disk-pair certificates")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"{where}: {exc}")
        return None
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return digest.hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# workloads


class Sweep:
    """``verify all`` on the default sweep; the seed is not used."""

    min_rounds = 1

    def __init__(self, jobs: int, size: Size):
        self.jobs = jobs
        self.size = size

    def round(self, runner: Runner, index: int, traced: bool) -> Round:
        tag = f"j{self.jobs}-{'traced' if traced else 'plain'}-{index}"
        out = runner.work / f"sweep-{tag}.json"
        spans = runner.work / f"spans-{tag}.json" if traced else None
        rnd = Round()
        call = runner.cli(["verify", "all", "--jobs", str(self.jobs), *self.size.sweep_args,
                           "--out", str(out)], spans)
        rnd.add(call)
        check_report(rnd, out, call.code, runner.problems)
        if spans is not None:
            rnd.span_files.append(spans)
        if self.jobs == 1 and not traced and rnd.bad == 0:
            tmp = WORK / f"tmp-{os.getpid()}.json"
            shutil.copyfile(out, tmp)
            os.replace(tmp, self._reference_path())
        return rnd

    def _reference_path(self) -> Path:
        key = hashlib.sha256((source_digest() + repr(self.size.sweep_args)).encode()).hexdigest()
        return WORK / f"serial-report-{key[:16]}.json"

    def check(self, runner: Runner, rounds: List[Round]) -> List[str]:
        digests = {r.outputs.get("report") for r in rounds}
        notes = []
        if len(digests) != 1 or None in digests:
            runner.problems.append("sweep reports differ between rounds")
            return notes
        digest = digests.pop()
        if self.size.sweep_args:
            notes.append(f"report sha256 {digest} (not the default sweep, no recorded digest)")
        else:
            verdict = "MATCH" if digest == RECORDED_SHA256 else "CHANGED"
            notes.append(f"report sha256 {digest} {verdict} against the recorded default sweep")
        if self.jobs > 1:
            ref = self._reference_path()
            if not ref.exists():
                Sweep(1, self.size).round(runner, 0, traced=False)
            same = ref.exists() and _sha256(ref) == digest
            notes.append(f"--jobs {self.jobs} report bytes {'equal' if same else 'DIFFER FROM'} "
                         "the --jobs 1 report of the same source")
            if not same:
                runner.problems.append(f"--jobs {self.jobs} report differs from the serial report")
        return notes


class PointQueries:
    """``verify all --t X`` calls at stratified-uniform parameters."""

    min_rounds = 1

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size

    def points(self, index: int) -> List[float]:
        rng = random.Random(f"point-queries:{self.seed}:{index}")
        n = self.size.queries
        shift = rng.random()
        ts = [T_MIN + (i + shift) * (T_MAX - T_MIN) / n for i in range(n)]
        rng.shuffle(ts)
        return ts

    def round(self, runner: Runner, index: int, traced: bool) -> Round:
        rnd = Round()
        tag = f"{'traced' if traced else 'plain'}-{index}"
        for i, t in enumerate(self.points(index)):
            out = runner.work / f"query-{tag}-{i:02d}.json"
            spans = runner.work / f"spans-{tag}-{i:02d}.json" if traced else None
            call = runner.cli(["verify", "all", "--t", repr(t), "--out", str(out)], spans)
            rnd.add(call)
            check_report(rnd, out, call.code, runner.problems, points=[t])
            if spans is not None:
                rnd.span_files.append(spans)
        return rnd

    def check(self, runner: Runner, rounds: List[Round]) -> List[str]:
        # in a traced run the second round repeats the first one's parameters
        if len(rounds) == 2 and rounds[0].outputs != rounds[1].outputs:
            runner.problems.append("traced and untraced query reports differ")
        linked = sum(t > T_LINK for t in self.points(0))
        return [f"{linked} of {self.size.queries} query points of round 1 are linked (t > 0.4)"]


class FigureExport:
    """The four figure exports at one unlinked and one linked interior ``t``."""

    min_rounds = 2

    def __init__(self, seed: int, size: Size):
        u = random.Random(f"figure-export:{seed}").random()
        self.ts = (T_MIN + u * (T_LINK - 1e-4 - T_MIN),
                   T_LINK + 1e-4 + u * (T_MAX - 2e-4 - T_LINK))
        self.size = size

    def round(self, runner: Runner, index: int, traced: bool) -> Round:
        rnd = Round()
        tag = f"{'traced' if traced else 'plain'}-{index}"
        for i, t in enumerate(self.ts):
            for kind in EXPORT_KINDS:
                out = runner.work / f"export-{tag}-{i}-{kind}"
                spans = runner.work / f"spans-{tag}-{i}-{kind}.json" if traced else None
                call = runner.cli(["export", kind, "--t", repr(t), "--out", str(out),
                                   *self.size.export_args.get(kind, ())], spans)
                rnd.add(call, ends_request=kind == EXPORT_KINDS[-1])
                digest = check_export(kind, t, out, call.code, runner.problems)
                rnd.ops += 1
                rnd.failures += digest is None
                rnd.bad += digest is None
                rnd.outputs[f"{kind}@{t!r}"] = digest or "missing"
                if spans is not None:
                    rnd.span_files.append(spans)
        return rnd

    def check(self, runner: Runner, rounds: List[Round]) -> List[str]:
        first = rounds[0].outputs
        compared = 0
        for rnd in rounds[1:]:
            for name, digest in rnd.outputs.items():
                compared += 1
                if first.get(name) != digest:
                    runner.problems.append(f"export {name} is not byte-identical on repeat")
        return [f"t = {self.ts[0]!r} (unlinked), {self.ts[1]!r} (linked); "
                f"{compared} repeated exports compared byte for byte"]


def make_workload(name: str, seed: int, size: Size):
    if name == "sweep-serial":
        return Sweep(1, size)
    if name == "sweep-jobs2":
        return Sweep(2, size)
    if name == "point-queries":
        return PointQueries(seed, size)
    return FigureExport(seed, size)


WORKLOADS = ("sweep-serial", "sweep-jobs2", "point-queries", "figure-export")


# ---------------------------------------------------------------------------
# statistics and traces


def tail_label(n: int) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    if n < 11:
        return f"no percentile has ten samples beyond it (n={n})"
    return f"p{math.floor(100.0 * (1.0 - 10.0 / n))} is the highest with ten beyond (n={n})"


def percentile(values: List[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def aggregate_spans(files: List[Path]):
    """Per span name: [calls, inclusive seconds, self seconds]; plus counters."""
    table: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    distinct: Dict[str, int] = {}
    for path in files:
        body = json.loads(path.read_text(encoding="utf-8"))
        spans = body["spans"]
        child = [0.0] * len(spans)
        for _ident, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (ident, start, end, _parent) in enumerate(spans):
            row = table.setdefault(body["names"][ident], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        for name, value in body["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in body["distinct"].items():
            distinct[name] = distinct.get(name, 0) + value
    return table, counts, distinct


def per_layer_metrics(plain: Round, traced: Round, jobs: int):
    """Per-layer metrics of a traced round, and its span table."""
    table, counts, distinct = aggregate_spans(traced.span_files)

    def row(name: str) -> List[float]:
        return table.get(name, [0, 0.0, 0.0])

    m: Dict[str, float] = {
        "verify.pool.busy_share": plain.cpu / (jobs * plain.wall),
        "trace.overhead_s": traced.wall - plain.wall,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(r[2] for n, r in table.items() if n.split(".")[0] == layer)
    for suite in SUITES:
        m[f"verify.suite.{suite}.share"] = row(f"verify.suite.{suite}")[1] / traced.wall
    for kind in EXPORT_KINDS:
        m[f"verify.export.{kind}.share"] = row(f"verify.export.{kind}")[1] / traced.wall
    for name in SELF_S_SPANS:
        m[f"{name}.self_s"] = row(name)[2]
    for name in SHARE_SPANS:
        m[f"{name}.self_share"] = row(name)[2] / traced.wall
    for name in CALL_SPANS:
        m[f"{name}.calls"] = row(name)[0]
    for name in COUNTERS:
        m[name] = counts.get(name, 0)
    builds = row("dirichlet.DirichletConfig.build")[0]
    arcs = row("crown.arc_report")[0]
    m["dirichlet.config_reuse"] = (
        distinct.get("dirichlet.DirichletConfig.build.t", 0) / builds if builds else 0.0)
    m["crown.arc_reuse"] = distinct.get("crown.arc_report.t_arc", 0) / arcs if arcs else 0.0
    return m, table


# ---------------------------------------------------------------------------
# main


def parse_args(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size: a 3-point sweep, 4 queries, coarse exports")
    return ap.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "chcrown" / "cli.py").is_file():
        print(f"error: no chcrown sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    size = TINY if args.tiny else FULL
    workload = make_workload(args.workload, args.seed, size)
    jobs = 2 if args.workload == "sweep-jobs2" else 1
    work = WORK / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_BUDGET_S)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
          f"{' tiny' if args.tiny else ''}; nproc {os.cpu_count()}; children pinned: "
          + " ".join(f"{k}={v}" for k, v in PINNED_THREADS.items()))
    runner.setup()  # untimed: compiles bytecode on a fresh checkout

    if args.trace:
        plain = workload.round(runner, 0, traced=False)
        traced = workload.round(runner, 0, traced=True)
        rounds = [plain, traced]
        metrics, table = per_layer_metrics(plain, traced, jobs)
        units = PER_LAYER
        print(f"untraced round {plain.wall:.3f} s, traced round {traced.wall:.3f} s, "
              f"tracing overhead {traced.wall - plain.wall:+.3f} s")
        print(f"{'span':<42} {'calls':>8} {'incl_s':>10} {'self_s':>10}")
        for name, (calls, incl, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            print(f"{name:<42} {int(calls):>8} {incl:>10.4f} {self_s:>10.4f}")
        if args.workload == "sweep-jobs2":
            print("spans cover the parent process only (global steps and report writing); "
                  "worker spans are out of reach")
    else:
        # set-up trials before and after the rounds, to sample the whole run
        setup = [runner.setup() for _ in range(size.setup_trials // 2)]
        rounds: List[Round] = []
        start = time.monotonic()
        while True:
            rounds.append(workload.round(runner, len(rounds), traced=False))
            elapsed = time.monotonic() - start
            mean = elapsed / len(rounds)
            if len(rounds) >= workload.min_rounds and (
                    elapsed + mean > args.seconds or time.monotonic() + mean > runner.deadline):
                break
        setup += [runner.setup() for _ in range(size.setup_trials - len(setup))]
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        lat = [x for r in rounds for x in r.latencies]
        metrics = {
            "wall_s": statistics.median(r.wall for r in rounds),
            "cpu_s": statistics.median(r.cpu for r in rounds),
            "peak_rss_mb": peak_mb,
            "setup_s": statistics.median(setup),
            "query_p50_s": statistics.median(lat),
            "query_tail_s": percentile(lat, TAIL_PCT),
        }
        units = END_TO_END
        print(f"{len(rounds)} round(s): wall_s and cpu_s are medians over rounds; "
              f"setup_s is the median of {len(setup)} imports")
        print(f"request latency: median {metrics['query_p50_s']:.4f} s, "
              f"p{TAIL_PCT} {metrics['query_tail_s']:.4f} s; {tail_label(len(lat))}")

    for note in workload.check(runner, rounds):
        print(note)
    attempted = sum(r.ops for r in rounds)
    failures = sum(r.failures for r in rounds)
    failed = sum(r.bad for r in rounds)
    print(f"failed_share {failures / attempted:.6f} 1: {failures} of {attempted} operations "
          f"failed, {failed} of them outside the documented disks band")
    for problem in runner.problems:
        print(f"PROBLEM: {problem}")
    for name, unit in units.items():
        print(f"{name:<46} {metrics[name]:.6g} {unit}")
    result = {
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
