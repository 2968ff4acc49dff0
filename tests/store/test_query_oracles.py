"""Hand-checkable oracles for every named query and validation rule.

A twelve-record store is built by hand: six result rows (two campaigns, two
scenarios, two seeds, one replayed row, one row missing ``cmax_ratio``, one
non-numeric ``cmax_ratio``) plus five span events and one non-span event.
Every expected output row below is written out literally and can be checked
with pencil and paper; none of it is computed by the code under test.
"""

from __future__ import annotations

import pytest

from repro.store.columnar import CampaignStore
from repro.store.queries import QUERIES, run_query
from repro.store.validate import RULES, validate_store

# campaign "a": computed rows; scenario s2 holds a non-numeric cmax_ratio.
A1 = {"experiment": "e", "seed": 1, "policy_name": "lpt", "cmax_ratio": 1.5, "wici_ratio": 2.0}
A2 = {"experiment": "e", "seed": 2, "policy_name": "wspt", "cmax_ratio": 2.5, "wici_ratio": 0.5}
A3 = {"experiment": "e", "seed": 1, "policy_name": "lpt", "cmax_ratio": "n/a"}
# campaign "b": B1 is replayed from cache; B3 carries no cmax_ratio at all.
B1 = {"experiment": "e", "seed": 1, "policy_name": "lpt", "cmax_ratio": 1.5, "wici_ratio": 2.0}
B2 = {"experiment": "e", "seed": 2, "policy_name": "wspt", "cmax_ratio": 3.5, "wici_ratio": 9.0}
B3 = {"experiment": "e", "seed": 1, "policy_name": "lpt", "makespan_ratio": 0.75}
# telemetry events recorded into campaign "a" (the last one is not a span).
SPANS = [
    {"kind": "span", "name": "cell.execute", "seconds": 0.5, "worker": "w1"},
    {"kind": "span", "name": "cell.execute", "seconds": 1.5, "worker": "w2"},
    {"kind": "span", "name": "worker.idle", "seconds": 1.0, "worker": "w1"},
    {"kind": "span", "name": "cell.serialize", "seconds": 0.25, "worker": "w2"},
    {"kind": "span", "name": "harness.wait", "seconds": 2.0},
    {"kind": "assign", "worker": "w1"},
]


@pytest.fixture()
def store(tmp_path):
    root = tmp_path / "store"
    a = CampaignStore(root, campaign="a", fmt="jsonl")
    a.append_row(A1, scenario="s1", key="k1", fingerprint="fa", elapsed_seconds=0.5)
    a.append_row(A2, scenario="s1", key="k2", fingerprint="fa", elapsed_seconds=1.5)
    a.append_row(A3, scenario="s2", key="k3", fingerprint="fa", elapsed_seconds=0.25)
    for index, event in enumerate(SPANS):
        a.append_row(event, scenario="telemetry.a", key=f"t{index}")
    a.flush()
    b = CampaignStore(root, campaign="b", fmt="jsonl")
    b.append_row(B1, scenario="s1", key="k1", fingerprint="fb", elapsed_seconds=0.0,
                 replayed=True)
    b.append_row(B2, scenario="s1", key="k2", fingerprint="fb", elapsed_seconds=1.0)
    b.append_row(B3, scenario="s2", key="k3", fingerprint="fb", elapsed_seconds=2.0)
    b.flush()
    return CampaignStore(root)


def test_every_query_and_rule_is_pinned():
    pinned = {
        "rows", "metric-summary", "policy-compare", "compare", "cell-timing",
        "cache-accounting", "span-summary", "worker-occupancy", "phase-attribution",
    }
    assert set(QUERIES) == pinned
    assert [rule.name for rule in RULES] == [
        "bicriteria-cmax-within-4rho", "bicriteria-wici-within-4rho",
        "makespan-ratio-floor", "weighted-completion-ratio-floor",
        "elapsed-nonnegative",
    ]


def test_rows(store):
    assert run_query(store, "rows") == [A1, A2, A3, *SPANS, B1, B2, B3]
    assert run_query(store, "rows", {"campaign": "b"}) == [B1, B2, B3]
    assert run_query(store, "rows", {"campaign": "a", "scenario": "s2"}) == [A3]


def test_metric_summary(store):
    # a/s2 ("n/a") and b/s2 (no cmax_ratio) have no numeric value: no group.
    # std of two values x, y is |x - y| / sqrt(2); ci95 = 1.96 * std / sqrt(2).
    assert run_query(store, "metric-summary", {"metric": "cmax_ratio"}) == [
        pytest.approx({
            "campaign": "a", "scenario": "s1", "metric": "cmax_ratio", "count": 2,
            "mean": 2.0, "std": 0.5 ** 0.5, "min": 1.5, "median": 2.0, "p90": 2.4,
            "max": 2.5, "ci95": 0.98,
        }),
        pytest.approx({
            "campaign": "b", "scenario": "s1", "metric": "cmax_ratio", "count": 2,
            "mean": 2.5, "std": 2.0 ** 0.5, "min": 1.5, "median": 2.5, "p90": 3.3,
            "max": 3.5, "ci95": 1.96,
        }),
    ]


def test_policy_compare(store):
    assert run_query(store, "policy-compare", {"metric": "cmax_ratio"}) == [
        {"campaign": "a", "scenario": "s1", "seed": 1, "axis_value": "lpt",
         "count": 1, "mean": 1.5},
        {"campaign": "a", "scenario": "s1", "seed": 2, "axis_value": "wspt",
         "count": 1, "mean": 2.5},
        {"campaign": "b", "scenario": "s1", "seed": 1, "axis_value": "lpt",
         "count": 1, "mean": 1.5},
        {"campaign": "b", "scenario": "s1", "seed": 2, "axis_value": "wspt",
         "count": 1, "mean": 3.5},
    ]
    # Grouping on another axis pools both seeds of a scenario.
    assert run_query(store, "policy-compare",
                     {"metric": "cmax_ratio", "axis": "experiment", "campaign": "b"}) == [
        {"campaign": "b", "scenario": "s1", "seed": 1, "axis_value": "e",
         "count": 1, "mean": 1.5},
        {"campaign": "b", "scenario": "s1", "seed": 2, "axis_value": "e",
         "count": 1, "mean": 3.5},
    ]


def test_compare(store):
    assert run_query(store, "compare",
                     {"metric": "cmax_ratio", "campaign_a": "a", "campaign_b": "b"}) == [
        {"scenario": "s1", "row_index": 0, "seed": 1, "a_value": 1.5, "b_value": 1.5,
         "equal": True, "diff": 0.0},
        {"scenario": "s1", "row_index": 1, "seed": 2, "a_value": 2.5, "b_value": 3.5,
         "equal": False, "diff": 1.0},
        {"scenario": "s2", "row_index": 0, "seed": 1, "a_value": None, "b_value": None,
         "equal": None, "diff": None},
    ]
    # Swapping the sides flips the sign of diff.
    assert [row["diff"] for row in run_query(
        store, "compare",
        {"metric": "cmax_ratio", "campaign_a": "b", "campaign_b": "a", "scenario": "s1"},
    )] == [0.0, -1.0]


def test_cell_timing(store):
    assert run_query(store, "cell-timing") == [
        pytest.approx({"campaign": "a", "scenario": "s1", "cells": 2,
                       "total_seconds": 2.0, "mean_seconds": 1.0, "p50_seconds": 1.0,
                       "p90_seconds": 1.4, "max_seconds": 1.5, "replayed": 0}),
        {"campaign": "a", "scenario": "s2", "cells": 1, "total_seconds": 0.25,
         "mean_seconds": 0.25, "p50_seconds": 0.25, "p90_seconds": 0.25,
         "max_seconds": 0.25, "replayed": 0},
        {"campaign": "a", "scenario": "telemetry.a", "cells": 6, "total_seconds": 0.0,
         "mean_seconds": 0.0, "p50_seconds": 0.0, "p90_seconds": 0.0,
         "max_seconds": 0.0, "replayed": 0},
        pytest.approx({"campaign": "b", "scenario": "s1", "cells": 2,
                       "total_seconds": 1.0, "mean_seconds": 0.5, "p50_seconds": 0.5,
                       "p90_seconds": 0.9, "max_seconds": 1.0, "replayed": 1}),
        {"campaign": "b", "scenario": "s2", "cells": 1, "total_seconds": 2.0,
         "mean_seconds": 2.0, "p50_seconds": 2.0, "p90_seconds": 2.0,
         "max_seconds": 2.0, "replayed": 0},
    ]


def test_cache_accounting(store):
    assert run_query(store, "cache-accounting") == [
        {"campaign": "a", "scenario": "s1", "fingerprint": "fa", "rows": 2,
         "replayed": 0, "computed": 2, "distinct_keys": 2},
        {"campaign": "a", "scenario": "s2", "fingerprint": "fa", "rows": 1,
         "replayed": 0, "computed": 1, "distinct_keys": 1},
        {"campaign": "a", "scenario": "telemetry.a", "fingerprint": "", "rows": 6,
         "replayed": 0, "computed": 6, "distinct_keys": 6},
        {"campaign": "b", "scenario": "s1", "fingerprint": "fb", "rows": 2,
         "replayed": 1, "computed": 1, "distinct_keys": 2},
        {"campaign": "b", "scenario": "s2", "fingerprint": "fb", "rows": 1,
         "replayed": 0, "computed": 1, "distinct_keys": 1},
    ]


def test_span_summary(store):
    assert run_query(store, "span-summary") == [
        {"campaign": "a", "scenario": "telemetry.a", "name": "cell.execute", "spans": 2,
         "total_seconds": 2.0, "mean_seconds": 1.0, "min_seconds": 0.5,
         "max_seconds": 1.5},
        {"campaign": "a", "scenario": "telemetry.a", "name": "cell.serialize",
         "spans": 1, "total_seconds": 0.25, "mean_seconds": 0.25, "min_seconds": 0.25,
         "max_seconds": 0.25},
        {"campaign": "a", "scenario": "telemetry.a", "name": "harness.wait", "spans": 1,
         "total_seconds": 2.0, "mean_seconds": 2.0, "min_seconds": 2.0,
         "max_seconds": 2.0},
        {"campaign": "a", "scenario": "telemetry.a", "name": "worker.idle", "spans": 1,
         "total_seconds": 1.0, "mean_seconds": 1.0, "min_seconds": 1.0,
         "max_seconds": 1.0},
    ]
    assert run_query(store, "span-summary", {"campaign": "b"}) == []


def test_worker_occupancy(store):
    # occupancy = busy / (busy + idle + overhead): w1 0.5/1.5, w2 1.5/1.75.
    assert run_query(store, "worker-occupancy") == [
        pytest.approx({"campaign": "a", "worker": "w1", "busy_seconds": 0.5,
                       "idle_seconds": 1.0, "overhead_seconds": 0.0, "cells": 1,
                       "occupancy": 1 / 3}),
        pytest.approx({"campaign": "a", "worker": "w2", "busy_seconds": 1.5,
                       "idle_seconds": 0.0, "overhead_seconds": 0.25, "cells": 1,
                       "occupancy": 6 / 7}),
    ]


def test_phase_attribution(store):
    # Campaign a's spans total 0.5 + 1.5 + 1.0 + 0.25 + 2.0 = 5.25 s = 21/4 s.
    assert run_query(store, "phase-attribution") == [
        pytest.approx({"campaign": "a", "phase": "cell.execute", "spans": 2,
                       "total_seconds": 2.0, "mean_seconds": 1.0, "share": 8 / 21}),
        pytest.approx({"campaign": "a", "phase": "cell.serialize", "spans": 1,
                       "total_seconds": 0.25, "mean_seconds": 0.25, "share": 1 / 21}),
        pytest.approx({"campaign": "a", "phase": "harness.wait", "spans": 1,
                       "total_seconds": 2.0, "mean_seconds": 2.0, "share": 8 / 21}),
        pytest.approx({"campaign": "a", "phase": "worker.idle", "spans": 1,
                       "total_seconds": 1.0, "mean_seconds": 1.0, "share": 4 / 21}),
    ]


def test_validation_rules(store):
    assert [result.as_dict() for result in validate_store(store)] == [
        # cmax_ratio 1.5, 2.5, 1.5, 3.5; "n/a" and the missing value are not checked.
        {"rule": "bicriteria-cmax-within-4rho", "metric": "cmax_ratio", "lower": 1.0,
         "upper": 8.0, "checked": 4, "violations": 0, "worst_high": 3.5,
         "worst_low": 1.5, "ok": True, "skipped": False},
        # wici_ratio 2.0, 0.5 (< 1), 2.0, 9.0 (> 8).
        {"rule": "bicriteria-wici-within-4rho", "metric": "wici_ratio", "lower": 1.0,
         "upper": 8.0, "checked": 4, "violations": 2, "worst_high": 9.0,
         "worst_low": 0.5, "ok": False, "skipped": False},
        {"rule": "makespan-ratio-floor", "metric": "makespan_ratio", "lower": 1.0,
         "upper": None, "checked": 1, "violations": 1, "worst_high": 0.75,
         "worst_low": 0.75, "ok": False, "skipped": False},
        {"rule": "weighted-completion-ratio-floor",
         "metric": "weighted_completion_ratio", "lower": 1.0, "upper": None,
         "checked": 0, "violations": 0, "worst_high": None, "worst_low": None,
         "ok": True, "skipped": True},
        # elapsed_seconds of all twelve records; the six events default to 0.
        {"rule": "elapsed-nonnegative", "metric": "elapsed_seconds", "lower": 0.0,
         "upper": None, "checked": 12, "violations": 0, "worst_high": 2.0,
         "worst_low": 0.0, "ok": True, "skipped": False},
    ]
