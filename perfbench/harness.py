"""Operations, checks and the closed measuring loop shared by the workloads."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from speed import NO_SPEED
from tracer import NO_TRACE, Tracer


@dataclass
class Op:
    """One operation: program calls (timed) and a check of their outputs (untimed).

    `run(tracer)` makes the calls and returns their outputs; `check(outputs)`
    returns the list of problems found, empty when the outputs are right.
    `expect_fail` marks an operation that fails because of a known fault in
    the program; it counts as failed and leaves `correct` true.  `argv` is
    the command line of a CLI operation, replayed in-process by a traced run.
    """

    name: str
    run: Callable[[object], dict]
    check: Callable[[dict], list]
    expect_fail: bool = False
    argv: list | None = None


def call(tracer, name: str, fn, *args, **counts):
    """fn(*args) inside a span; an exception is returned for the check to report."""
    with tracer.span(name, **counts):
        try:
            return fn(*args)
        except Exception as exc:  # the op's check turns it into a problem
            return exc


class Checks:
    """Collects the problems one check finds."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, cond: bool, what: str) -> None:
        if not cond:
            self.problems.append(what)

    def within(self, what: str, err: float, tol: float) -> None:
        self.expect(err <= tol, f"{what}: {err:.3g} > {tol:g}")

    def value(self, what: str, result):
        """The result itself, or None (and a problem) if the call raised."""
        if isinstance(result, Exception):
            self.problems.append(f"{what} raised {type(result).__name__}: {result}")
            return None
        return result


def serialize(tracer, out: dict) -> None:
    """to_json of every CheckReport among an operation's outputs, in one span."""
    from pqosc.report import CheckReport  # pqosc loads only after run.py sets its path

    reports = [r for r in out.values() if isinstance(r, CheckReport)]
    with tracer.span("report.to_json") as attrs:
        out["json"] = [(r, r.to_json()) for r in reports]
        attrs["bytes"] = sum(len(text) for _, text in out["json"])


def check_serialized(c: Checks, out: dict) -> None:
    from pqosc.report import CheckReport

    for report, text in out.get("json", ()):
        c.expect(
            CheckReport.from_json(text).to_dict() == report.to_dict(),
            f"{report.check}: JSON round trip changed the report",
        )


def rel_err(got: float, want: float) -> float:
    """|got - want| / |want|, or |got| when want is 0."""
    return abs(got - want) / abs(want) if want != 0.0 else abs(got)


def scaled_err(got: float, want: float) -> float:
    return abs(got - want) / (1.0 + abs(want))


@dataclass
class PassResult:
    seconds: float
    op_seconds: list
    kernel_seconds: list
    attempted: int
    failed: int
    expected: list
    unexpected: list


def run_pass(ops: list, tracer, speed=NO_SPEED) -> PassResult:
    """One pass over `ops`; `speed` samples its kernel between operations, untimed."""
    op_seconds = []
    kernel_seconds = []
    failed = 0
    expected = []
    unexpected = []
    for op in ops:
        with tracer.span("op", label=op.name):
            start = time.perf_counter()
            outputs = op.run(tracer)
            op_seconds.append(time.perf_counter() - start)
        problems = op.check(outputs)
        if problems:
            failed += 1
            (expected if op.expect_fail else unexpected).append((op.name, problems))
        kernel = speed.sample(due=not kernel_seconds)
        if kernel is not None:
            kernel_seconds.append(kernel)
    return PassResult(
        sum(op_seconds), op_seconds, kernel_seconds, len(ops), failed, expected, unexpected
    )


def measure(ops: list, seconds: float, tracer: Tracer | None, speed=NO_SPEED):
    """Whole passes over `ops` until `seconds` have passed.

    Without a tracer every pass is untraced.  With one, passes alternate
    traced / untraced (at least one of each), so the tracing overhead is
    the difference of the two medians within the same run.
    """
    passes: list[tuple[bool, PassResult]] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        passes.append((traced, run_pass(ops, tracer if traced else NO_TRACE, speed)))
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len(passes) >= 2):
            return passes
