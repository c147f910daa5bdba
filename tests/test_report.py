import json
import math

import pytest

from pqosc import CheckEntry, CheckReport


def test_pass_iff_residual_within_tol():
    assert CheckEntry("x", 1e-12, 1e-10).passed
    assert CheckEntry("x", 1e-10, 1e-10).passed
    assert not CheckEntry("x", 2e-10, 1e-10).passed


def test_report_aggregates():
    report = CheckReport(
        "demo",
        (CheckEntry("one", 0.0, 1e-10), CheckEntry("two", 5e-11, 1e-10)),
        {"dim": 4},
    )
    assert report.passed
    assert report.max_residual() == 5e-11
    assert [e.residual for e in report.entries if e.label == "two"] == [5e-11]


def test_max_residual_keeps_a_nan_anywhere():
    nan = float("nan")
    report = CheckReport("demo", (CheckEntry("one", 1e-12, 1e-10), CheckEntry("two", nan, 1e-10)))
    assert not report.passed
    assert math.isnan(report.max_residual())
    assert CheckReport("demo", ()).max_residual() == 0.0


def test_json_round_trip():
    report = CheckReport(
        "demo",
        (CheckEntry("one", 1.2345678901234567e-11, 1e-10),),
        {"params": {"p": 2.0, "q": 3.0}, "mode": "grading"},
    )
    text = report.to_json()
    assert text == json.dumps(report.to_dict())  # compact: one line, no indent
    again = CheckReport.from_json(text)
    assert again == report


def test_reports_are_immutable_values():
    entry = CheckEntry("one", 0.5, 1.0)
    assert repr(entry) == "CheckEntry(label='one', residual=0.5, tol=1.0)"
    first, second = CheckReport("demo", (entry,)), CheckReport("demo", (entry,))
    assert first.metadata == {} and first.metadata is not second.metadata
    assert repr(first) == (
        "CheckReport(check='demo', entries=(CheckEntry(label='one', residual=0.5, tol=1.0),), "
        "metadata={})"
    )
    assert first == second and hash(entry) == hash(CheckEntry("one", 0.5, 1.0))
    with pytest.raises(AttributeError):
        entry.tol = 2.0
    with pytest.raises(AttributeError):
        first.check = "other"


def test_non_finite_floats_are_strict_json_strings():
    nan, inf = float("nan"), float("inf")
    report = CheckReport(
        "demo",
        (CheckEntry("one", nan, 1e-10), CheckEntry("two", inf, 1e-10), CheckEntry("three", 0.5, 1.0)),
        {"scale": [1.0, -inf], "worst": {"residual": nan}},
    )

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    data = json.loads(report.to_json(), parse_constant=refuse)
    assert [r["residual"] for r in data["results"]] == ["nan", "inf", 0.5]
    assert data["metadata"] == {"scale": [1.0, "-inf"], "worst": {"residual": "nan"}}
    again = CheckReport.from_json(report.to_json())
    assert math.isnan(again.entries[0].residual) and again.entries[1:] == report.entries[1:]
    assert again.metadata == {"scale": [1.0, "-inf"], "worst": {"residual": "nan"}}
    assert report.metadata["scale"][1] == -inf  # the report itself keeps its floats
