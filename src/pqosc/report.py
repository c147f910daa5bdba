"""Named-residual reports shared by all verification routines.

Both types are namedtuples, not dataclasses, so that a cold CLI process
does not import dataclasses (and with it inspect, ast and dis) to build
them.
"""

from __future__ import annotations

import json
from collections import namedtuple


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
        return max((e.residual for e in self.entries), default=0.0)

    def entry(self, label: str) -> CheckEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "results": [
                {"label": e.label, "residual": e.residual, "tol": e.tol, "pass": e.passed}
                for e in self.entries
            ],
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        """Compact JSON of to_dict(); the CLI indents its own output."""
        return json.dumps(self.to_dict())

    @staticmethod
    def from_dict(data: dict) -> "CheckReport":
        entries = tuple(
            CheckEntry(r["label"], float(r["residual"]), float(r["tol"]))
            for r in data["results"]
        )
        return CheckReport(data["check"], entries, dict(data.get("metadata", {})))

    @staticmethod
    def from_json(text: str) -> "CheckReport":
        return CheckReport.from_dict(json.loads(text))

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            status = "pass" if e.passed else "FAIL"
            out.append(f"{self.check}: {e.label}: residual={e.residual:.3e} tol={e.tol:.3e} {status}")
        return out
