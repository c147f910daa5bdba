"""Named-residual reports shared by all verification routines.

This module is the one place that reduces, judges and serializes
residuals: peak reduces a list of them (keeping NaN), CheckEntry judges
one against its tolerance, result_rows turns reports into the raw
label,residual,tol,pass rows that every command writes and results
keys those rows into the JSON result objects, and strict_json writes
JSON text, a NaN or an infinity as its CSV text in a string.

Both types are namedtuples, not dataclasses, so that a cold CLI process
does not import dataclasses (and with it inspect, ast and dis) to build
them.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

RESULT_HEADER = ("label", "residual", "tol", "pass")


def peak(values) -> float:
    """Largest |v|, 0.0 for no values; NaN if some v is NaN.

    max alone may skip a NaN, and a residual with a NaN entry must fail.
    The sum of the magnitudes is NaN exactly when some entry is.
    """
    mags = list(map(abs, values))
    total = sum(mags)
    return total if total != total else max(mags, default=0.0)


class CheckEntry(namedtuple("CheckEntry", "label residual tol")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


class CheckReport(namedtuple("CheckReport", "check entries metadata")):
    """Result of one verification: a list of labelled residuals.

    An entry passes iff residual <= tol.  `metadata` carries the context
    needed to reproduce the check (parameter echo, dimension, mode, ...)
    and must hold only JSON-representable values; it defaults to a fresh
    empty dict.
    """

    __slots__ = ()

    def __new__(cls, check: str, entries: tuple[CheckEntry, ...], metadata: dict | None = None):
        return super().__new__(cls, check, entries, {} if metadata is None else metadata)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def max_residual(self) -> float:
        """The peak residual: 0.0 for no entries, NaN if some residual is NaN."""
        return peak(e.residual for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "results": results((self,)),
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        """Compact strict JSON of to_dict(); the CLI indents its own output."""
        return strict_json(self.to_dict())

    @staticmethod
    def from_json(text: str) -> "CheckReport":
        """The report that to_json wrote.  Residuals and tols read back as
        floats, "nan", "inf" and "-inf" included; metadata is left as JSON
        decodes it, so a non-finite float there comes back as its string."""
        data = json.loads(text)
        entries = tuple(
            CheckEntry(r["label"], float(r["residual"]), float(r["tol"]))
            for r in data["results"]
        )
        return CheckReport(data["check"], entries, dict(data.get("metadata", {})))


def strict_json(payload, indent: int | None = None) -> str:
    """json.dumps(payload) as strict JSON: a non-finite float is written as
    its CSV text, the string "nan", "inf" or "-inf", which float() reads
    back.  The payload is walked only when it holds such a float."""
    try:
        return json.dumps(payload, indent=indent, allow_nan=False)
    except ValueError:
        return json.dumps(_finite(payload), indent=indent, allow_nan=False)


def _finite(value):
    """value with each non-finite float replaced by its repr, in new containers."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def result_rows(reports) -> list[tuple]:
    """The raw (label, residual, tol, passed) rows, under RESULT_HEADER, of
    the reports' entries, in order."""
    return [(e.label, e.residual, e.tol, e.passed) for report in reports for e in report.entries]


def results(reports) -> list[dict]:
    """The JSON result objects of the reports' entries: result_rows keyed by RESULT_HEADER."""
    return [dict(zip(RESULT_HEADER, row)) for row in result_rows(reports)]
