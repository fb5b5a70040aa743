"""Command-line front end for the certificate suites and exporters.

Exit codes follow the usual triage convention: 0 when every record
passes, 1 when any check fails, 2 for unusable invocations (bad
parameters, malformed ranges, unknown names, a malformed report shard).
"""

from __future__ import annotations

import sys

import click

from . import crown, verify
from .core import GeometryError
from .triangle import PARAM_MAX, T_REAL


@click.group()
def main():
    """Certificates and figure data for the (3,3,4) triangle-group family."""


def _sweep_options(fn):
    opts = [
        click.option("--t", "t_point", type=float, default=None,
                     help="Check a single parameter instead of sweeping."),
        click.option("--t-min", type=float, default=verify.SWEEP_T_MIN,
                     show_default=True, help="Sweep start."),
        click.option("--t-max", type=float, default=PARAM_MAX,
                     show_default=True, help="Sweep end."),
        click.option("--steps", type=int, default=101, show_default=True,
                     help="Sweep size."),
        click.option("--spacing", type=click.Choice(["uniform", "chebyshev"]),
                     default="uniform", show_default=True),
        click.option("--precision", type=click.Choice(["double", "extended"]),
                     default="double", show_default=True,
                     help="extended evaluates the relations suite's generator matrices in "
                          "40-digit mpmath arithmetic; other suites run in double and reject it."),
        click.option("--jobs", type=int, default=1, show_default=True,
                     help="Worker processes; each takes one parameter (all suites) at a time."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _emit_report(report: verify.Report, out: str | None, fmt: str) -> None:
    text = report.to_json() if fmt == "json" else report.to_csv()
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    where = f" -> {out}" if out else ""
    click.echo(f"{len(report.records)} records, {report.failed} failed{where}", err=True)


@main.command("verify")
@click.argument("suite", type=click.Choice(list(verify.SUITE_NAMES) + ["all"]))
@_sweep_options
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the report to a file instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def verify_cmd(suite, t_point, t_min, t_max, steps, spacing, precision, jobs, out, fmt):
    """Run one certificate suite (or all of them) over a parameter sweep."""
    try:
        config = verify.SweepConfig(t_min=t_min, t_max=t_max, steps=steps,
                                    spacing=spacing, precision=precision)
        points = [t_point] if t_point is not None else None
        report = verify.run_suite(suite, config, points=points, jobs=jobs)
    except GeometryError as exc:
        raise click.UsageError(str(exc))
    _emit_report(report, out, fmt)
    sys.exit(0 if report.passed else 1)


@main.command()
@click.argument("kind", type=click.Choice(list(verify.EXPORT_KINDS)))
@click.option("--t", type=float, required=True, help="Family parameter.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".",
              show_default=True, help="Output directory.")
@click.option("--mesh", type=int, default=64, show_default=True,
              help="Spinal-sphere mesh resolution (spheres only).")
@click.option("--samples", type=int, default=257, show_default=True,
              help="Points per hat-arc polyline (arcs only).")
@click.option("--rim", type=int, default=96, show_default=True,
              help="Rim vertices per affine disk (disks only).")
@click.option("--depth", type=int, default=5, show_default=True,
              help="Maximum word length (limitset only).")
def export(kind, t, out_dir, mesh, samples, rim, depth):
    """Write OBJ geometry plus a JSON manifest for one figure layer."""
    kwargs = {
        "spheres": {"nx": mesh, "ny": mesh},
        "arcs": {"samples": samples},
        "disks": {"rim": rim},
        "limitset": {"depth": depth},
    }[kind]
    try:
        paths = verify.export_geometry(kind, t, out_dir, **kwargs)
    except GeometryError as exc:
        raise click.UsageError(str(exc))
    for path in paths:
        click.echo(path)


@main.command("table1")
@click.option("--t", type=float, default=T_REAL, show_default=True,
              help="Family parameter.")
def table1_cmd(t):
    """Print the host-sphere table of the eight crown arcs."""
    try:
        table = crown.table1(crown.Scene(t))
    except GeometryError as exc:
        raise click.UsageError(str(exc))
    click.echo("arc     minus  plus")
    for name in crown.ARC_NAMES:
        lo, hi = table[name]
        click.echo(f"{name:<7} {lo:>5}  {hi:>4}")


@main.command()
@click.option("--merge", "inputs", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Report file to merge (repeatable).")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the merged report to a file instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def report(inputs, out, fmt):
    """Merge sharded sweep reports into one, newest record per key."""
    loaded = []
    for path in inputs:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                loaded.append(verify.Report.from_json(fh.read()))
            except (GeometryError, UnicodeDecodeError) as exc:
                raise click.UsageError(f"{path}: {exc}")
    merged = verify.Report.merge(loaded)
    _emit_report(merged, out, fmt)
    sys.exit(0 if merged.passed else 1)


if __name__ == "__main__":
    main()
