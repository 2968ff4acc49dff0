"""Command-line interface of the campaign store.

::

    python -m repro.store info --store results/        # manifest overview
    python -m repro.store ingest old-campaign.jsonl --store results/
    python -m repro.store ingest legacy.csv --store results/ --scenario fig2.bicriteria
    python -m repro.store query --list                 # named queries
    python -m repro.store query metric-summary --store results/ --param metric=cmax_ratio
    python -m repro.store query rows --store results/ --param scenario=fig2.bicriteria \\
        --out points.csv                               # bit-identical re-export
    python -m repro.store compare --store results/ --metric cmax_ratio \\
        --campaign-a serial --campaign-b inproc
    python -m repro.store validate --store results/    # paper ratio checks

Exit codes: 0 on success, 1 when a validation rule fails (or a compare
finds differing cells), 2 on usage errors -- including a compare that
checked nothing: an unknown campaign, or no joined cell carrying the metric
on both sides.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.store.api import FORMATS, StoreUnavailableError, write_rows
from repro.store.columnar import CampaignStore
from repro.store.queries import QUERIES, QueryError, run_query
from repro.store.validate import validate_store


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Columnar campaign store: ingest, query, compare, validate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    store_arg = argparse.ArgumentParser(add_help=False)
    store_arg.add_argument(
        "--store", type=Path, required=True, metavar="DIR",
        help="campaign store directory (manifest.json + partitions)",
    )
    out_arg = argparse.ArgumentParser(add_help=False)
    out_arg.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="write the result rows to this file instead of printing a table",
    )
    out_arg.add_argument(
        "--format", choices=FORMATS, default=None, dest="out_format",
        help="output format (default: inferred from the --out suffix)",
    )

    info = sub.add_parser("info", parents=[store_arg], help="show the store manifest")
    info.add_argument("--json", action="store_true", help="machine-readable output")

    ing = sub.add_parser(
        "ingest", parents=[store_arg],
        help="ingest a resume journal (JSONL) or CSV export",
    )
    ing.add_argument("source", type=Path, help="journal .jsonl or .csv file")
    ing.add_argument(
        "--input-format", choices=("journal", "csv"), default=None,
        help="source encoding (default: inferred from the suffix)",
    )
    ing.add_argument("--campaign", default=None, help="campaign label (default: store's)")
    ing.add_argument("--scenario", default=None, help="scenario label for the rows")

    qry = sub.add_parser(
        "query", parents=[store_arg, out_arg],
        help="run a named analytics query",
        description="Run one of the named queries; see --list.",
    )
    qry.add_argument("name", nargs="?", default=None, help="query name (see --list)")
    qry.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="query parameter (repeatable), e.g. --param metric=cmax_ratio",
    )
    qry.add_argument("--list", action="store_true", dest="list_queries",
                     help="list the named queries")

    cmp_ = sub.add_parser(
        "compare", parents=[store_arg, out_arg],
        help="diff one metric cell-by-cell across two campaigns",
    )
    cmp_.add_argument("--metric", required=True, help="metric column to compare")
    cmp_.add_argument("--campaign-a", default=None,
                      help="left campaign (default: the other of exactly two)")
    cmp_.add_argument("--campaign-b", default=None,
                      help="right campaign (default: the other of exactly two)")
    cmp_.add_argument("--scenario", default=None, help="restrict to one scenario")

    val = sub.add_parser(
        "validate", parents=[store_arg],
        help="check the paper's ratio bounds over every stored row",
    )
    val.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def _parse_params(pairs: List[str]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise QueryError(f"bad --param {pair!r}: expected NAME=VALUE")
        params[name] = value
    return params


def _emit(rows: List[Dict[str, Any]], out: Optional[Path], fmt: Optional[str],
          title: str) -> None:
    from repro.experiments.reporting import ascii_table

    if out is not None:
        written = write_rows(rows, out, fmt=fmt)
        print(f"{len(rows)} row(s) written to {written}")
    else:
        print(ascii_table(rows, title=title))


def _cmd_info(args: argparse.Namespace) -> int:
    store = CampaignStore(args.store)
    manifest = store.manifest()
    partitions = store.partitions()
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    if not partitions:
        print(f"store {store.root}: empty (no landed partitions)")
        return 0
    print(f"store {store.root}: {len(store)} row(s) in {len(partitions)} partition(s)")
    for campaign in store.campaigns():
        scenarios = store.scenarios(campaign)
        rows = sum(p.rows for p in store.partitions(campaign=campaign))
        print(f"  campaign {campaign}: {rows} row(s), "
              f"{len(scenarios)} scenario(s): {', '.join(scenarios)}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.store.ingest import ingest

    store = CampaignStore(args.store, campaign=args.campaign or "default")
    try:
        appended = ingest(
            args.source, store,
            fmt=args.input_format, scenario=args.scenario, campaign=args.campaign,
        )
    except OSError as error:
        print(f"cannot read {args.source}: {error}", file=sys.stderr)
        return 2
    store.flush()
    print(
        f"ingested {appended} row(s) from {args.source} into {store.root} "
        f"({store.stats.duplicates} duplicate(s) dropped, "
        f"{store.stats.skipped} skipped)"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.list_queries:
        width = max(len(name) for name in QUERIES)
        for name in sorted(QUERIES):
            query = QUERIES[name]
            params = ", ".join(
                list(query.required) + [f"[{p}]" for p in query.optional]
            )
            print(f"{name:<{width}}  ({params})  {query.description}")
        return 0
    if args.name is None:
        print("give a query name (or --list)", file=sys.stderr)
        return 2
    try:
        params = _parse_params(args.param)
        store = CampaignStore(args.store)
        rows = run_query(store, args.name, params)
    except (QueryError, StoreUnavailableError) as error:
        print(error, file=sys.stderr)
        return 2
    _emit(rows, args.out, args.out_format, title=f"{args.name} ({len(rows)} rows)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    store = CampaignStore(args.store)
    campaigns = store.campaigns()
    campaign_a, campaign_b = args.campaign_a, args.campaign_b
    for named in (campaign_a, campaign_b):
        if named is not None and named not in campaigns:
            print(f"campaign {named!r} is not in the store; it holds {campaigns}",
                  file=sys.stderr)
            return 2
    if campaign_a is None or campaign_b is None:
        if len(campaigns) != 2:
            print(
                f"store holds {len(campaigns)} campaign(s) {campaigns}; "
                "pass --campaign-a and --campaign-b explicitly",
                file=sys.stderr,
            )
            return 2
        # Default only the missing side, to the other of the two campaigns.
        if campaign_a is None:
            campaign_a = next(c for c in campaigns if c != campaign_b)
        if campaign_b is None:
            campaign_b = next(c for c in campaigns if c != campaign_a)
    params = {"metric": args.metric, "campaign_a": campaign_a,
              "campaign_b": campaign_b, "scenario": args.scenario}
    try:
        rows = run_query(
            store, "compare", {k: v for k, v in params.items() if v is not None}
        )
    except (QueryError, StoreUnavailableError) as error:
        print(error, file=sys.stderr)
        return 2
    if not any(row["equal"] is not None for row in rows):
        print(
            f"no joined cell of {campaign_a} vs {campaign_b} ({len(rows)} joined) "
            f"carries {args.metric!r} on both sides: nothing was compared",
            file=sys.stderr,
        )
        return 2
    _emit(rows, args.out, args.out_format,
          title=f"{args.metric}: {campaign_a} vs {campaign_b} ({len(rows)} cells)")
    differing = sum(1 for row in rows if row.get("equal") is False)
    print(f"{len(rows)} joined cell(s), {differing} differing on {args.metric}")
    return 1 if differing else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    store = CampaignStore(args.store)
    try:
        results = validate_store(store)
    except StoreUnavailableError as error:
        print(error, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([result.as_dict() for result in results], indent=2))
    else:
        for result in results:
            print(result.describe())
    failed = [result for result in results if not result.ok]
    checked = sum(1 for result in results if not result.skipped)
    print(f"\n{checked - len(failed)}/{checked} applicable rule(s) passed "
          f"({len(results) - checked} skipped)")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `query --list` is store-free: satisfy the --store requirement before
    # argparse enforces it.
    if argv[:1] == ["query"] and "--list" in argv and "--store" not in argv:
        argv += ["--store", "."]
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "validate":
            return _cmd_validate(args)
    except StoreUnavailableError as error:
        print(error, file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
