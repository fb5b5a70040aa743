"""Sweep plumbing: configs, records, deterministic serialization, exports."""

import concurrent.futures
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from concurrent.futures import Future

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chcrown import (
    ARC_NAMES,
    EXPORT_KINDS,
    GeometryError,
    HeisenbergPoint,
    IsometryClass,
    NearParabolicError,
    PARAM_MAX,
    PARAM_MIN,
    Record,
    Report,
    SUITE_NAMES,
    SweepConfig,
    build_generators,
    classify_isometry,
    export_geometry,
    fixed_points_boundary,
    limit_set_points,
    run_suite,
)
from chcrown import crown, verify
from chcrown.verify import (
    _INVERSE_TOKEN,
    _LIMITSET_TOKENS,
    _emit_json,
    _f17,
    _rec,
    _residual_rec,
)


def test_sweep_config_defaults_and_points():
    cfg = SweepConfig()
    pts = cfg.points()
    assert len(pts) == 101
    assert pts[0] == pytest.approx(PARAM_MIN + 1e-4)
    assert pts[-1] == pytest.approx(PARAM_MAX)
    assert pts == sorted(pts)


def test_sweep_config_chebyshev_nodes_are_interior_and_sorted():
    cfg = SweepConfig(steps=7, spacing="chebyshev")
    pts = cfg.points()
    assert pts == sorted(pts)
    assert pts[0] > cfg.t_min and pts[-1] < cfg.t_max


@pytest.mark.parametrize("bad", [
    {"t_min": 0.2},
    {"t_max": 0.5},
    {"t_min": 0.41, "t_max": 0.39},
    {"steps": 1},
    {"spacing": "log"},
    {"precision": "quad"},
])
def test_sweep_config_rejects_bad_input(bad):
    with pytest.raises(GeometryError):
        SweepConfig(**bad)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=60)
def test_f17_roundtrips_doubles(x):
    assert float(_f17(x)) == x


def test_emit_json_is_valid_and_ordered():
    blob = {"b": [1.0, True, None, "s"], "a": {"x": math.pi}}
    text = _emit_json(blob)
    parsed = json.loads(text)
    assert parsed["a"]["x"] == math.pi
    assert parsed["b"] == [1.0, True, None, "s"]
    # insertion order is preserved, which the writers rely on
    assert text.index('"b"') < text.index('"a"')


def test_report_roundtrip_and_sorting():
    records = [
        Record("zeta", 0.40, "k", 1.0, 1.0, True),
        Record("alpha", 0.39, "b", 2.0, -1.0, False),
        Record("alpha", 0.39, "a", 3.0, 0.5, True),
    ]
    rep = Report({"suite": "mixed"}, records)
    assert not rep.passed
    assert [r.key for r in rep.sorted_records()] == ["a", "b", "k"]
    assert rep.summary()["failed"] == 1
    back = Report.from_json(rep.to_json())
    assert back.records == rep.sorted_records()
    assert Report(back.config, back.records).to_json() == rep.to_json()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_fail_closed(bad):
    recs = [
        _residual_rec("relations", 0.39, "residual", bad, 1e-10),
        _rec("disks", 0.39, "value", bad, 1.0, True),
        _rec("disks", 0.39, "margin", 1.0, bad, True),
    ]
    assert not any(r.passed for r in recs)
    rep = Report({}, recs)
    assert rep.summary()["failed"] == 3
    text = rep.to_json()
    def no_constants(token):
        raise AssertionError(f"{token} is not JSON")

    parsed = json.loads(text, parse_constant=no_constants)
    assert [r["pass"] for r in parsed["records"]] == [False, False, False]
    back = Report.from_json(text)
    for got, want in zip(back.records, rep.sorted_records()):
        assert (got.suite, got.key, got.passed) == (want.suite, want.key, want.passed)
        for a, b in ((got.value, want.value), (got.margin, want.margin)):
            assert a == b or (math.isnan(a) and math.isnan(b))
    assert f",{_f17(bad)},1,false" in rep.to_csv()


@pytest.mark.parametrize("text", [
    "[]",
    '{"records": []}',
    '{"config": {}, "records": {}}',
    '{"config": {}, "records": [1]}',
    '{"config": {}, "records": [{"suite": "s", "t": 0.4, "key": "k", '
    '"value": "abc", "margin": 0, "pass": true}]}',
    '{"config": {}, "records": [{"suite": 3, "t": 0.4, "key": "k", '
    '"value": 0, "margin": 0, "pass": true}]}',
], ids=["list", "no-config", "records-object", "record-not-object", "value-not-number",
        "suite-not-string"])
def test_report_from_json_rejects_malformed_input(text):
    with pytest.raises(GeometryError, match="malformed report"):
        Report.from_json(text)


def test_report_merge_prefers_later_shards():
    first = Report({"n": 1}, [Record("s", 0.4, "k", 1.0, -1.0, False)])
    second = Report({"n": 2}, [Record("s", 0.4, "k", 1.0, 1.0, True),
                               Record("s", 0.41, "k2", 0.0, 0.0, True)])
    merged = Report.merge([first, second])
    assert len(merged.records) == 2
    assert merged.passed


def test_csv_has_header_and_17g_floats():
    rep = Report({}, [Record("s", 0.375, "k", 1.0 / 3.0, 0.0, True)])
    lines = rep.to_csv().splitlines()
    assert lines[0] == "suite,t,key,value,margin,pass"
    assert "0.33333333333333331" in lines[1]


def test_run_suite_rejects_unknown_name():
    with pytest.raises(GeometryError):
        run_suite("bogus")


def test_suite_names_all_run_single_point():
    for name in SUITE_NAMES:
        report = run_suite(name, points=[0.39])
        assert report.records, name
        assert report.passed, (name, [r for r in report.records if not r.passed])
        assert {r.suite for r in report.records} == {name}


def test_all_expands_to_every_suite():
    report = run_suite("all", points=[0.39])
    assert {r.suite for r in report.records} == set(SUITE_NAMES)


def test_pool_is_no_larger_than_the_task_count(monkeypatch):
    # the pool forks every worker up front, so one task must not fork 64;
    # the stand-in records the pool size and runs each task inline
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    serial = run_suite("relations", points=[0.39, 0.41]).to_json()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    run_suite("relations", points=[0.39], jobs=64)
    assert run_suite("relations", points=[0.39, 0.41], jobs=64).to_json() == serial
    assert run_suite("relations", points=[0.39, 0.41], jobs=2).to_json() == serial
    run_suite("relations", points=[], jobs=2)
    assert sizes == [1, 2, 2]


def test_one_point_builds_each_arc_and_the_linking_values_once(monkeypatch):
    # every suite at a parameter reads one scene: each (t, arc) report is
    # built once, and the disks cell reads the linking values off the
    # certificates instead of computing all 28 a second time
    arcs, links = Counter(), Counter()
    build_arc, link_report = crown.arc_report, crown.linked_pair_report

    def counted_arc(config, name, base):
        arcs[(config.gens.t, name)] += 1
        return build_arc(config, name, base)

    def counted_links(scene):
        links[scene.t] += 1
        return link_report(scene)

    monkeypatch.setattr(crown, "arc_report", counted_arc)
    monkeypatch.setattr(crown, "linked_pair_report", counted_links)
    run_suite("all", points=[0.41])
    assert sorted(name for t, name in arcs if t == 0.41) == sorted(ARC_NAMES)
    assert set(arcs.values()) == {1}
    assert links == Counter({0.41: 1})


def test_one_disks_cell_and_one_disks_export_build_the_crown_polars_once(monkeypatch, tmp_path):
    # the scene owns the polars: the linking values, the disk ladder and the
    # export's fans read one copy, where each used to build its own
    counts = []
    polars = crown.crown_circle_polars

    def counted(config, beta):
        counts[-1] += 1
        return polars(config, beta)

    monkeypatch.setattr(crown, "crown_circle_polars", counted)
    counts.append(0)
    run_suite("disks", points=[0.41])
    counts.append(0)
    export_geometry("disks", 0.41, str(tmp_path))
    assert counts == [1, 1]


def test_one_point_makes_64_scalar_objective_calls(monkeypatch):
    # each golden search evaluates its objective over the whole grid in one
    # array call, then on one float per refinement step: 33 + 31 scalar
    # calls, not 2 x 256 more
    calls = Counter()
    golden = crown.golden_minimize

    def counted_golden(f, *args):
        def counted(t):
            calls[(f.__name__, "grid" if np.ndim(t) else "float")] += 1
            return f(t)
        return golden(counted, *args)

    monkeypatch.setattr(crown, "golden_minimize", counted_golden)
    run_suite("minima", points=[0.39])
    assert calls == Counter({("clearance_objective", "grid"): 1,
                             ("clearance_objective", "float"): 33,
                             ("blocking_minimum_at", "grid"): 1,
                             ("blocking_minimum_at", "float"): 31})


def test_a_non_finite_scan_fails_the_four_minima_records(monkeypatch):
    # the searches return (nan, nan) on a non-finite grid value, and every
    # record read from them fails closed
    for name in ("clearance_objective", "blocking_minimum_at"):
        def poisoned(t, f=getattr(crown, name)):
            vals = f(t)
            if np.ndim(t):
                vals[40] = math.nan
            return vals
        monkeypatch.setattr(crown, name, poisoned)
    report = run_suite("minima", points=[0.39])
    failed = sorted(r.key for r in report.records if not r.passed)
    assert failed == ["blocking-argmin", "blocking-minimum",
                      "clearance-minimum", "clearance-minimum-above-1"]


def test_run_suite_rejects_fewer_than_one_job():
    for jobs in (0, -1):
        with pytest.raises(GeometryError, match="jobs"):
            run_suite("relations", points=[0.39], jobs=jobs)


def test_run_suite_bytes_are_deterministic_and_job_independent():
    cfg = SweepConfig(t_min=0.3751, t_max=0.41, steps=3)
    a = run_suite("relations", cfg).to_json()
    b = run_suite("relations", cfg).to_json()
    c = run_suite("relations", cfg, jobs=2).to_json()
    assert a == b == c


def test_mid_window_overlaps_are_reported_not_hidden():
    # the honest finding: just above t = 2/5 some cutting-disk pairs meet
    report = run_suite("disks", points=[0.41])
    modes = {r.key: r.passed for r in report.records if r.key.startswith("disk-pair:")}
    assert len(modes) == 28
    assert not report.passed
    assert not modes["disk-pair:beta2|beta3"]


def test_export_kinds_and_determinism(tmp_path):
    for kind, kwargs in (("spheres", {"nx": 8, "ny": 8}), ("arcs", {"samples": 17}),
                         ("disks", {"rim": 12}), ("limitset", {"depth": 2})):
        d1 = tmp_path / f"{kind}_1"
        d2 = tmp_path / f"{kind}_2"
        p1 = export_geometry(kind, 0.41, str(d1), **kwargs)
        p2 = export_geometry(kind, 0.41, str(d2), **kwargs)
        assert all((d1 / name.split("/")[-1]).exists() for name in p1)
        for a, b in zip(p1, p2):
            assert open(a, "rb").read() == open(b, "rb").read()
    with pytest.raises(GeometryError):
        export_geometry("mystery", 0.41, str(tmp_path))
    assert set(EXPORT_KINDS) == {"spheres", "arcs", "disks", "limitset"}


def test_sphere_export_has_eight_objects(tmp_path):
    paths = export_geometry("spheres", 0.4142, str(tmp_path), nx=8, ny=8)
    obj = open(paths[0]).read()
    assert obj.count("o sphere-") == 8
    manifest = json.loads(open(paths[1]).read())
    assert manifest["kind"] == "spheres"
    assert manifest["t"] == pytest.approx(0.4142)


def test_disk_export_certificates_jsonl(tmp_path):
    paths = export_geometry("disks", 0.39, str(tmp_path), rim=12)
    rows = [json.loads(line) for line in open(paths[1])]
    assert len(rows) == 28
    assert all(set(r) == {"certificate", "t", "pair", "margin", "pass"} for r in rows)
    assert all(r["pass"] for r in rows)


def test_limit_set_points_are_deduplicated_and_sorted():
    pts = limit_set_points(0.41, depth=3)
    assert pts.shape[1] == 3
    assert len(pts) > 10
    as_tuples = [tuple(row) for row in pts]
    assert as_tuples == sorted(as_tuples)
    assert len({tuple(np.round(row, 9)) for row in pts}) == len(pts)


def _limit_set_points_word_by_word(t, depth, skip_inverses):
    """Reference limit set, one word at a time with ``GroupElement`` products.

    With ``skip_inverses`` a word whose inverse came first in preorder and
    was solved is skipped, as ``limit_set_points`` does; without, every
    loxodromic word is solved.  Returns the rows and the number of solves.
    """
    gens = build_generators(t)
    seen, solved, rows = set(), set(), []

    def visit(element, word, remaining):
        inverse = tuple(_INVERSE_TOKEN[token] for token in reversed(word))
        skipped = skip_inverses and inverse in solved
        if not skipped and classify_isometry(element).kind is IsometryClass.LOXODROMIC:
            solved.add(word)
            try:
                for vec in fixed_points_boundary(element):
                    u = np.asarray(vec, dtype=complex)
                    if abs(u[2]) > 1e-9 * float(np.max(np.abs(u))):
                        p = HeisenbergPoint.from_lift(u)
                        x, y, v = p.z.real, p.z.imag, p.v
                        key = (round(x, 9), round(y, 9), round(v, 9))
                        if key not in seen:
                            seen.add(key)
                            rows.append((x, y, v))
            except (NearParabolicError, GeometryError):
                pass
        if remaining:
            for token in _LIMITSET_TOKENS:
                if token != _INVERSE_TOKEN[word[-1]]:
                    visit(element @ gens.element(token), word + (token,), remaining - 1)

    for token in _LIMITSET_TOKENS:
        visit(gens.element(token), (token,), depth - 1)
    return np.array(sorted(rows), dtype=float).reshape(-1, 3), len(solved)


def _limit_set_points_every_word(t, depth):
    """Reference limit set that solves every loxodromic word, inverses included."""
    return _limit_set_points_word_by_word(t, depth, skip_inverses=False)


def _rows_match(got, want, tol=1e-10):
    """Every row of each array lies within ``tol`` of a row of the other, in the max-norm."""
    gap = np.max(np.abs(got[:, None, :] - want[None, :, :]), axis=-1)
    return float(gap.min(axis=1).max()) <= tol and float(gap.min(axis=0).max()) <= tol


def test_limit_set_solves_each_inverse_pair_once(monkeypatch):
    # the loxodromic words go to one stacked solve; a word and its inverse
    # share their fixed pair, so half the reference's solves are handed in
    solved = []

    def counted(stack):
        solved.append(len(stack))
        return fixed_points_boundary(stack)

    monkeypatch.setattr(verify, "fixed_points_boundary", counted)
    got = limit_set_points(0.41, depth=4)
    want, want_solves = _limit_set_points_every_word(0.41, 4)
    assert len(solved) == 1
    assert 2 * solved[0] == want_solves
    assert len(got) == len(want)
    assert _rows_match(got, want)


def test_limit_set_only_drops_near_duplicate_rows():
    # at this t the inverse words put near-duplicate fixed points across the
    # 1e-9 dedupe grid; skipping them drops those rows and nothing else
    got = limit_set_points(0.37517)
    want, _ = _limit_set_points_every_word(0.37517, 5)
    assert len(got) < len(want)
    gap = np.max(np.abs(got[:, None, :] - want[None, :, :]), axis=-1)
    assert float(gap.min(axis=1).max()) <= 1e-10
    gap = np.min(np.linalg.norm(want[:, None, :] - got[None, :, :], axis=-1), axis=1)
    assert float(gap.max()) < 1e-7


@given(st.floats(min_value=0.3751, max_value=PARAM_MAX), st.integers(3, 4))
@settings(max_examples=20, deadline=None)
def test_stacked_limit_set_matches_the_word_by_word_reference(t, depth):
    # the stacked words, classification and solve round unlike the scalar
    # products and solves of one word, but no further than 1e-10
    got = limit_set_points(t, depth=depth)
    want, _ = _limit_set_points_word_by_word(t, depth, skip_inverses=True)
    assert len(got) == len(want)
    assert _rows_match(got, want)


def test_limit_set_export_enters_the_classification_and_solve_spans(monkeypatch, tmp_path):
    # the benchmark times export limitset inside these two core functions
    calls = Counter()
    for name in ("classify_isometry", "fixed_points_boundary"):
        def counted(g, _name=name, _fn=getattr(verify, name)):
            calls[_name] += 1
            return _fn(g)

        monkeypatch.setattr(verify, name, counted)
    export_geometry("limitset", 0.41, str(tmp_path), depth=3)
    assert calls == Counter({"classify_isometry": 3, "fixed_points_boundary": 1})


def test_small_all_sweep_report_is_pinned():
    # regression oracle for refactors of the sweep pipeline: these bytes must
    # not move unless a change of records is announced
    cfg = SweepConfig(t_min=0.39, t_max=0.41, steps=5)
    serial = run_suite("all", cfg).to_json()
    assert hashlib.sha256(serial.encode()).hexdigest() == (
        "cb7cf44ee76a6048bfe1d95b9af4611e0dff3c34ba405ccec0aab6201833bbdd")
    summary = json.loads(serial)["summary"]
    assert (summary["records"], summary["failed"]) == (466, 6)
    assert run_suite("all", cfg, jobs=2).to_json() == serial


def test_extended_relations_restore_mpmath_precision():
    # the extended relations cells run at 40 digits and must hand the
    # caller's working precision back unchanged
    with mpmath.workdps(15):
        report = run_suite("relations", SweepConfig(steps=3, precision="extended"))
        assert mpmath.mp.dps == 15
    body = report.to_json()
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "7d0dca99e24d8c97fdb9c13b70f422e4c618671c27d6c85d4c5e803d9efb93b9")
    summary = json.loads(body)["summary"]
    assert (summary["records"], summary["failed"]) == (32, 0)


_PINNED_EXPORTS = {
    ("arcs", 0.39): {
        "arcs.obj": "9489469850b34f3dc74a6b2815c0441c4c9637af902914719fe42a28b52b6dda",
        "arcs_manifest.json": "393d4064b7848bfd2e0203e6822d0567fc4208dcc109bb3c392c5ed9aaad3101",
    },
    ("arcs", 0.41): {
        "arcs.obj": "66216bab3cff223c93131732a4acc870131a395bf9be972759a8d19eccdc0c2c",
        "arcs_manifest.json": "5dff5fedf3aec7d0bacbfaf69c6c0fe2d5a915af5c672e811f9638b2c95c15c4",
    },
    ("disks", 0.39): {
        "disk_certificates.jsonl": "e92c1ad3e78f3dae11a440d8d85f9117700875330ae554038ba9750e7ab8641d",
        "disks.obj": "5250bb842a2d4b47558f9e314d24f47d343b402c59a49eb60f9416417ed923f1",
        "disks_manifest.json": "bcff74dd37a26ea9ddd283ceafb6239775d5b6fed8debd046be5dc7b830defa2",
    },
    ("disks", 0.41): {
        "disk_certificates.jsonl": "1fcfb002b810c1716b6208f91bd31bd3a52228e281b5d5b301041e47c2c274ae",
        "disks.obj": "329097cb995b2f271094e4f97aba58d8e4d86e529c65c94260c392b948b6bd9b",
        "disks_manifest.json": "f0a2c9f0be02e82a990aea86e3975e7253f1fbe652579f41729a45c2e08278ba",
    },
    ("limitset", 0.39): {
        "limitset.obj": "f4fa13d4a0c9bcebaa0635a027b0c8ae93600bb7d06ee0c103c0eae945795710",
        "limitset_manifest.json": "ddab713cc2ffbc8ae71e6c5b0c10318dfaeac60d63e5f96225bd30c69d8d4859",
    },
    ("spheres", 0.39): {
        "spheres.obj": "f611930ce3a214e34f8365e28bbe8e2151f07513a320b73aae55412fff629f78",
        "spheres_manifest.json": "2f71230bc0ac87fb208efc63aec263216e56b4308f4a646ae2e489c0386bc6d2",
    },
    ("spheres", 0.41): {
        "spheres.obj": "84a4ff8996def9267cfa620aaa463ad8f32854e0de1aa961dbe3d83e37f2f274",
        "spheres_manifest.json": "aafd30b2b9b693918ba34bd058c11415caac88e43dd5ab67471bc65b8322788f",
    },
    ("limitset", 0.41): {
        "limitset.obj": "7635625c484861e2581965834b08e087f142ca7b25bab3e2d8f10eb61fd6526f",
        "limitset_manifest.json": "7721c1d5dd6010a6163a8bf1b13da8c83cb23819de928a5a42a31ba769e21ba2",
    },
}


@pytest.mark.parametrize("kind,t", sorted(_PINNED_EXPORTS))
def test_export_bytes_are_pinned(kind, t, tmp_path):
    # regression oracle for the mesh, hat-arc, limit-set and disk-ladder
    # kernels at their default sizes (64x64 sphere grid, 257 arc samples,
    # depth-5 words, 128x512 fills)
    paths = export_geometry(kind, t, str(tmp_path))
    got = {p.split("/")[-1]: hashlib.sha256(open(p, "rb").read()).hexdigest() for p in paths}
    assert got == _PINNED_EXPORTS[(kind, t)]


def _loaded_after(code, module):
    # a fresh interpreter that imports this same checkout of the package
    src = os.path.dirname(os.path.dirname(verify.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = code + f"\nimport sys\nprint({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, env=env)
    return done.stdout.split()[-1] == "True"


def test_double_runs_never_load_mpmath():
    # the double path is plain complex128; only the extended relations
    # cross-check imports mpmath
    assert not _loaded_after(
        "from chcrown import run_suite\nrun_suite('relations', points=[0.41])", "mpmath")
    assert _loaded_after(
        "from chcrown import SweepConfig, run_suite\n"
        "run_suite('relations', SweepConfig(precision='extended'), points=[0.41])", "mpmath")


@pytest.mark.parametrize("module", ["concurrent.futures", "multiprocessing"])
def test_serial_runs_never_load_the_process_pool(module):
    # the CLI and a serial run never start a pool, so they do not import one
    serial = "import chcrown.cli\nfrom chcrown import run_suite\nrun_suite('minima', points=[0.39])"
    assert not _loaded_after(serial, module)
