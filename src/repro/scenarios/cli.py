"""Command-line interface of the scenario registry.

::

    python -m repro.scenarios list                     # registered scenarios
    python -m repro.scenarios list --tag grid          # filter by tag
    python -m repro.scenarios describe fig2.bicriteria # spec as TOML
    python -m repro.scenarios run cluster.policy-panel # one scenario
    python -m repro.scenarios run --all --smoke        # CI smoke tier
    python -m repro.scenarios run --all --smoke --executor tcp://127.0.0.1:8765
                                       # ... on external distributed workers
    python -m repro.scenarios run fig2.bicriteria --store results/ --campaign serial
                                       # ... streaming rows into a campaign store
    python -m repro.scenarios sweep cluster.load-ramp --smoke --out out.csv
    python -m repro.scenarios sweep cluster.load-ramp --smoke --out out.parquet
    python -m repro.scenarios sweep swf.replay --axis policy.kind=fifo,backfill

Exit codes: 0 on success, 1 when any scenario fails to run, 2 on usage
errors (unknown scenario names, bad axis syntax).

Exports go through ``--out PATH`` (format inferred from the suffix, or
forced with ``--format csv|jsonl|parquet``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.experiments.journal import CampaignJournal
from repro.scenarios import registry
from repro.scenarios.composer import rows_digest, run_scenario, summarize
from repro.scenarios.spec import ScenarioSpec, SpecError


@contextlib.contextmanager
def serve_dashboard(port: Optional[int]) -> Iterator[Any]:
    """Serve the live telemetry dashboard while the body runs.

    ``port=None`` (the flag's default) is a no-op, so callers wrap their
    run unconditionally; ``0`` binds a free port.  The URL goes to stderr
    -- stdout stays reserved for the ok/FAIL summary lines.  Shared by
    ``repro.scenarios`` and the ``repro.distributed`` scheduler/run CLIs.
    """

    if port is None:
        yield None
        return
    from repro.dashboard.app import DashboardServer

    server = DashboardServer(port=port).start()
    print(f"dashboard serving on {server.url}", file=sys.stderr, flush=True)
    try:
        yield server
    finally:
        server.stop()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="List, describe and run the registered simulation scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="list registered scenarios")
    lst.add_argument("--tag", default=None, help="only scenarios carrying this tag")
    lst.add_argument("--names-only", action="store_true", help="one name per line")

    describe = sub.add_parser("describe", help="print one scenario spec")
    describe.add_argument("name")
    describe.add_argument(
        "--format", choices=("toml", "json"), default="toml", dest="fmt",
        help="output format (default: toml)",
    )

    run = sub.add_parser("run", help="run scenarios and print a summary")
    run.add_argument("names", nargs="*", help="scenario names (or use --all)")
    run.add_argument("--all", action="store_true", help="run every registered scenario")
    run.add_argument("--tag", default=None, help="with --all: only this tag")
    run.add_argument("--smoke", action="store_true", help="tiny smoke-tier sizes")
    run.add_argument(
        "--executor", "--jobs", default=None, dest="jobs", metavar="SPEC",
        help="executor spec: a job count, 'serial', 'auto', 'distributed', or "
             "tcp://HOST:PORT to schedule cells onto external distributed workers",
    )
    run.add_argument(
        "--output", type=Path, default=None,
        help="write a JSON summary (per-scenario rows/digest/elapsed) to this file",
    )
    run.add_argument(
        "--spec", type=Path, action="append", default=[], dest="spec_files",
        metavar="FILE.toml", help="also run a scenario spec loaded from a TOML file",
    )
    run.add_argument(
        "--dashboard", type=int, default=None, metavar="PORT",
        help="serve the live telemetry dashboard on this port while the "
             "scenarios run (0 picks a free port; the URL goes to stderr)",
    )
    _add_export_arguments(run)

    swp = sub.add_parser("sweep", help="run one scenario sweep and print the rows")
    swp.add_argument("name")
    swp.add_argument("--smoke", action="store_true", help="start from the smoke tier")
    swp.add_argument(
        "--axis", action="append", default=[], metavar="PATH=V1,V2,...",
        help="override a sweep axis (repeatable), e.g. policy.kind=fifo,backfill",
    )
    swp.add_argument("--repetitions", type=int, default=None)
    swp.add_argument(
        "--executor", "--jobs", default=None, dest="jobs", metavar="SPEC",
        help="executor spec: a job count, 'serial', 'auto', 'distributed', or "
             "tcp://HOST:PORT to schedule cells onto external distributed workers",
    )
    swp.add_argument(
        "--dashboard", type=int, default=None, metavar="PORT",
        help="serve the live telemetry dashboard on this port while the "
             "sweep runs (0 picks a free port; the URL goes to stderr)",
    )
    _add_export_arguments(swp)
    swp.add_argument(
        "--group-by", default=None, metavar="COLUMN",
        help="also print per-group means of every numeric metric",
    )
    return parser


def _add_export_arguments(parser: argparse.ArgumentParser) -> None:
    """The unified export/store flags shared by ``run`` and ``sweep``."""

    from repro.store.api import FORMATS

    parser.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="write the result rows to this file (csv/jsonl/parquet, "
             "inferred from the suffix)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default=None, dest="out_format",
        help="force the --out format instead of inferring it from the suffix",
    )
    parser.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="stream every completed cell into this campaign store directory "
             "(query it with python -m repro.store)",
    )
    parser.add_argument(
        "--campaign", default=None, metavar="NAME",
        help="campaign label inside --store (default: 'default')",
    )


def _open_store(args: argparse.Namespace) -> Optional[Any]:
    if args.store is None:
        if args.campaign:
            raise SpecError("--campaign needs --store DIR")
        return None
    from repro.store.columnar import CampaignStore

    return CampaignStore(args.store, campaign=args.campaign or "default")


def _executor(spec: Optional[str]) -> Any:
    """Resolve an --executor/--jobs value eagerly.

    Resolving here (instead of letting ``run_scenario`` do it per scenario)
    makes a malformed spec a *usage* error -- one message, exit code 2 --
    rather than N per-scenario FAIL lines pretending the scenarios broke.
    Raises :class:`~repro.experiments.executors.ExecutorSpecError`.
    """

    if spec is None:
        return None
    from repro.experiments.executors import resolve_executor

    try:
        value: Any = int(spec)
    except ValueError:
        value = spec
    return resolve_executor(value)


def _parse_axis_value(token: str) -> Any:
    lowered = token.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for converter in (int, float):
        try:
            return converter(token)
        except ValueError:
            continue
    return token


def _parse_axes(pairs: List[str]) -> Dict[str, List[Any]]:
    axes: Dict[str, List[Any]] = {}
    for pair in pairs:
        path, sep, values = pair.partition("=")
        if not sep or not path or not values:
            raise SpecError(f"bad --axis {pair!r}: expected PATH=V1,V2,...")
        axes[path] = [_parse_axis_value(v) for v in values.split(",")]
    return axes


def _cmd_list(args: argparse.Namespace) -> int:
    specs = registry.all_specs(args.tag)
    if args.names_only:
        for spec in specs:
            print(spec.name)
        return 0
    if not specs:
        print("no scenarios registered" + (f" with tag {args.tag!r}" if args.tag else ""))
        return 0
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        tags = ",".join(spec.tags)
        cells = 1
        for values in spec.sweep.values():
            cells *= len(values)
        cells *= spec.repetitions
        print(f"{spec.name:<{width}}  [{spec.model}] ({cells} cells)  {spec.description}"
              + (f"  <{tags}>" if tags else ""))
    print(f"\n{len(specs)} scenario(s) registered")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    try:
        spec = registry.get(args.name)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    if args.fmt == "json":
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
    else:
        print(spec.to_toml(), end="")
    return 0


def select_specs(
    names: List[str],
    use_all: bool,
    tag: Optional[str],
    *,
    usage_hint: str = "give scenario names or --all",
) -> Optional[List[ScenarioSpec]]:
    """Resolve a CLI scenario selection (names, or ``--all`` [``--tag``]).

    Shared by ``repro.scenarios run`` and the ``repro.distributed``
    scheduler/run commands.  On a usage error (unknown name, empty
    selection) prints the message and returns ``None`` -- callers exit 2.
    """

    if use_all:
        return registry.all_specs(tag)
    if names:
        try:
            return registry.resolve(names)
        except KeyError as error:
            print(error, file=sys.stderr)
            return None
    print(f"nothing to run: {usage_hint}", file=sys.stderr)
    return None


def run_specs(
    specs: List[ScenarioSpec],
    *,
    smoke: bool,
    executor: Any = None,
    output: Optional[Path] = None,
    schema: str = "repro.scenarios/1",
    sink: Any = None,
    out: Optional[Path] = None,
    out_format: Optional[str] = None,
    journal: Any = None,
) -> int:
    """Run scenario specs, print ok/FAIL summary lines, optionally write JSON.

    The single implementation behind ``repro.scenarios run`` and the
    ``repro.distributed`` scheduler/run commands, so summary format, failure
    handling and exit codes cannot drift between the CLIs.  Every completed
    cell streams into ``sink`` (a :class:`~repro.store.api.RowSink`, e.g. a
    campaign store) when one is given; ``out`` additionally exports the
    concatenated rows through :func:`repro.store.api.write_rows`.  Every
    scenario shares ``journal`` (a JSONL resume journal, see
    :func:`~repro.experiments.harness.run_experiment`).  Returns 1 when any
    scenario failed, else 0.
    """

    tier = "smoke" if smoke else "full"
    journal = CampaignJournal.coerce(journal)  # loaded once for every scenario
    summaries: List[Dict[str, Any]] = []
    exported: List[Dict[str, Any]] = []
    failures = 0
    for spec in specs:
        try:
            result = run_scenario(
                spec, smoke=smoke, executor=executor, journal=journal, sink=sink
            )
        except Exception as error:  # a broken scenario must fail the build, visibly
            failures += 1
            message = f"{type(error).__name__}: {error}"
            print(f"FAIL {spec.name}: {message.splitlines()[0][:160]}")
            summaries.append({"name": spec.name, "tier": tier, "ok": False, "error": message})
            continue
        outcome = summarize(spec, result, store=sink)
        if out is not None:
            exported.extend(result.rows)
            outcome.rows_path = str(out)
        replayed = f", {outcome.cache_hits} cached" if outcome.cache_hits else ""
        print(
            f"ok   {outcome.name}: {outcome.rows} rows in "
            f"{outcome.elapsed_seconds:.2f}s [{outcome.executor}{replayed}] "
            f"digest {outcome.digest[:12]}"
        )
        summaries.append({"tier": tier, "ok": True, **outcome.to_dict()})
    print(f"\n{len(specs) - failures}/{len(specs)} scenario(s) passed ({tier} tier)")
    if sink is not None:
        sink.flush()
    if out is not None:
        from repro.store.api import write_rows

        write_rows(exported, out, fmt=out_format)
        print(f"{len(exported)} row(s) written to {out}")
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(
            {"schema": schema, "tier": tier, "scenarios": summaries},
            indent=2, sort_keys=True,
        ) + "\n")
        print(f"summary written to {output}")
    return 1 if failures else 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        executor = _executor(args.jobs)
        sink = _open_store(args)
    except (ValueError, SpecError) as error:
        print(error, file=sys.stderr)
        return 2
    if args.all or args.names or not args.spec_files:
        specs = select_specs(
            args.names, args.all, args.tag,
            usage_hint="give scenario names, --spec files or --all",
        )
        if specs is None:
            return 2
    else:
        specs = []
    for path in args.spec_files:
        try:
            specs.append(ScenarioSpec.from_toml(path.read_text()))
        except (OSError, SpecError) as error:
            print(f"cannot load spec {path}: {error}", file=sys.stderr)
            return 2
    if not specs:
        print("no scenarios matched", file=sys.stderr)
        return 2
    with serve_dashboard(args.dashboard):
        return run_specs(
            specs, smoke=args.smoke, executor=executor, output=args.output,
            sink=sink, out=args.out, out_format=args.out_format,
        )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import ascii_table

    try:
        spec = registry.get(args.name)
        axes = _parse_axes(args.axis)
        executor = _executor(args.jobs)
        sink = _open_store(args)
    except (KeyError, SpecError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    sweep = dict(spec.smoke_spec().sweep if args.smoke else spec.sweep)
    sweep.update(axes)
    try:
        with serve_dashboard(args.dashboard):
            result = run_scenario(
                spec,
                smoke=args.smoke,
                sweep=sweep,
                repetitions=args.repetitions,
                executor=executor,
                sink=sink,
            )
    except Exception as error:
        print(f"FAIL {spec.name}: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    print(ascii_table(result.rows, title=f"{spec.name} ({len(result.rows)} rows)"))
    if args.group_by:
        # Group on repr: sweep-axis values may be unhashable (lists, dicts).
        groups: Dict[str, List[Dict[str, Any]]] = {}
        for row in result.rows:
            groups.setdefault(repr(row.get(args.group_by)), []).append(row)
        grouped_rows = []
        for value, rows in sorted(groups.items()):
            row = {args.group_by: value}
            for key in rows[0]:
                values = [r[key] for r in rows if isinstance(r.get(key), (int, float))
                          and not isinstance(r.get(key), bool)]
                if values and key != args.group_by:
                    row[key] = sum(values) / len(values)
            grouped_rows.append(row)
        print(ascii_table(grouped_rows, title=f"means by {args.group_by}"))
    print(f"digest {rows_digest(result.rows)[:12]}, elapsed {result.elapsed_seconds:.2f}s")
    if args.out is not None:
        from repro.store.api import write_rows

        write_rows(result.rows, args.out, fmt=args.out_format)
        print(f"rows written to {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "describe":
        return _cmd_describe(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    parser.error(f"unknown command {args.command!r}")
    return 2
