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
    assert report.entry("two").residual == 5e-11


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
