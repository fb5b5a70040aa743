"""Run one ``chcrown`` CLI command with spans around each layer's public functions.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py SPANS.json verify all --t 0.41

The wrappers live here, not in the package: each named function is
replaced, in every ``chcrown`` module that holds a reference to it, by a
wrapper that records a span ``(name, start, end, parent)``.  Spans and
counters stay in memory and are written to ``SPANS.json`` once, when the
command ends.  ``_scalars`` gets no span: its helpers run about 10^5 times
per sweep and wrapping them would distort the traced run.

Pool workers forked by ``--jobs N`` inherit the wrappers, but their spans
die with them; only the parent process's spans are written.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import chcrown
from chcrown import cli, core, crown, dirichlet, heisenberg, triangle, verify

MODULES = (chcrown, core, triangle, heisenberg, dirichlet, crown, verify, cli)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording a span per call; ``after(args, result)`` adds counts."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        ident = self._ids[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([ident, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def count_calls(self, name: str, fn):
        """Return ``fn`` counting calls only: for functions too hot for a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        body = {
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh, separators=(",", ":"))


def _replace_everywhere(old, new) -> None:
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install(tr: Tracer) -> None:
    """Wrap the layer entry points the benchmark reports on."""

    def function(module, attr, name=None, after=None):
        old = getattr(module, attr)
        _replace_everywhere(old, tr.wrap(name or f"{module.__name__.split('.')[-1]}.{attr}",
                                         old, after))

    def method(cls, attr, name, after=None):
        setattr(cls, attr, tr.wrap(name, vars(cls)[attr], after))

    # triangle, core, heisenberg
    function(triangle, "build_generators")
    function(core, "classify_isometry")
    function(core, "fixed_points_boundary")
    function(heisenberg, "disk_intersection_segment")

    # dirichlet
    build = vars(dirichlet.DirichletConfig)["build"].__func__

    def note_build(args, _result):
        tr.distinct["dirichlet.DirichletConfig.build.t"].add(float(args[1]))

    dirichlet.DirichletConfig.build = classmethod(
        tr.wrap("dirichlet.DirichletConfig.build", build, note_build))

    def note_points(args, result):
        tr.counts["dirichlet.side_matrix.points"] += int(result.shape[0])

    method(dirichlet.DirichletConfig, "side_matrix", "dirichlet.side_matrix", note_points)
    dirichlet.SpinalSphere.side_of_lifts = tr.count_calls(
        "dirichlet.SpinalSphere.side_of_lifts.calls",
        vars(dirichlet.SpinalSphere)["side_of_lifts"])
    function(dirichlet, "pair_relation")
    function(dirichlet, "sphere_mesh")

    # crown
    def note_arc(args, _result):
        config, name = args[0], args[1]
        tr.distinct["crown.arc_report.t_arc"].add((float(config.gens.t), name))

    def note_rungs(_args, certs):
        for cert in certs:
            tr.counts[f"crown.disk_ladder.rung.{cert.mode}"] += 1

    function(crown, "arc_report", after=note_arc)
    function(crown, "disk_disjointness_certificates", after=note_rungs)
    function(crown, "visible_component")

    golden = crown.golden_minimize

    def counted_golden(f, *args, **kwargs):
        return golden(tr.count_calls("crown.golden_minimize.evals", f), *args, **kwargs)

    _replace_everywhere(golden, tr.wrap("crown.golden_minimize",
                                        functools.wraps(golden)(counted_golden)))

    # verify: one span per suite (its per-point cells plus its global step),
    # the report writer, and one span per export kind
    for suite, cell in list(verify._CELLS.items()):
        verify._CELLS[suite] = tr.wrap(f"verify.suite.{suite}", cell)
    for suite in ("relations", "dirichlet", "arcs", "minima"):
        function(verify, f"_{suite}_global", f"verify.suite.{suite}")
    method(verify.Report, "to_json", "verify.Report.to_json")
    for kind in verify.EXPORT_KINDS:
        function(verify, f"export_{kind}", f"verify.export.{kind}")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, args = argv[0], argv[1:]
    tr = Tracer()
    install(tr)
    code = 0
    try:
        cli.main.main(args=args, prog_name="chcrown", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tr.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
