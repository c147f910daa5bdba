"""Fast self-test of the benchmark's own references and checks.

    python3 perfbench/selftest.py

Shows that the decimal reference agrees with pqosc's finite-sum oracle at
integer n, that each workload's check passes on the program's outputs and
flags an injected wrong value, and that span self time subtracts children.
Exits 0 when every test passes.
"""

import os
import sys
from dataclasses import replace
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import json  # noqa: E402
import subprocess  # noqa: E402

import cli_cold  # noqa: E402
import hopf_closure  # noqa: E402
import oracle  # noqa: E402
import param_scan  # noqa: E402
from harness import rel_err  # noqa: E402
from pqosc import pq_sum_oracle  # noqa: E402
from tracer import NO_TRACE, Tracer  # noqa: E402


class SelfTestError(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise SelfTestError(what)


def test_reference_matches_finite_sum():
    for p in param_scan.P_GRID:
        for q in param_scan.Q_GRID:
            bracket = oracle.Bracket(p, q, 1.0)
            for n in range(26):
                want = pq_sum_oracle(n, p, q)
                got = float(bracket.f(n, 1.0, 0.0))
                where = f"p={p} q={q} n={n}"
                require(rel_err(want, got) <= 1e-13, f"reference vs pq_sum_oracle at {where}")


def test_param_scan_check_flags_wrong_value():
    case = param_scan.Case(2.0, 3.0, 2.0, 1.0, 16, 0.7, (1, 5, 9, 15))
    case.references()
    out = case.run(NO_TRACE)
    require(case.check(out) == [], f"clean outputs flagged: {case.check(out)}")
    bad = dict(out, f=[v * (1 + 1e-8) if n == 3 else v for n, v in enumerate(out["f"])])
    require(any("f(n)" in p for p in case.check(bad)), "corrupted f(3) not flagged")
    words = [v.copy() for v in out["words"]]
    words[1][5] *= 1.001
    problems = case.check(dict(out, words=words))
    require(any("a+a|5>" in p for p in problems), "corrupted a+a|5> not flagged")
    hc = replace(out["hc"], gamma=out["hc"].gamma * (1 + 1e-9))
    require(any("gamma" in p for p in case.check(dict(out, hc=hc))), "corrupted gamma not flagged")


def test_band_point_fails_today():
    case = param_scan._band_case(1e-8)
    case.references()
    require(case.check(case.run(NO_TRACE)) != [], "band point at 1e-8 passed")


def test_hopf_check_flags_wrong_value():
    case = hopf_closure.Case(2.0, 3.0, 0.7, 6)
    case.references()
    out = case.run(NO_TRACE)
    require(case.check(out) == [], f"clean outputs flagged: {case.check(out)}")
    hc = replace(out["hc"], gamma=out["hc"].gamma * 1.001)
    require(any("gamma" in p for p in case.check(dict(out, hc=hc))), "corrupted gamma not flagged")
    control = hopf_closure.Control(2.0, 3.0, 0.7, "c4")
    require(control.check(control.run(NO_TRACE)) == [], "1% change of c4 not detected")


def test_cli_check_flags_wrong_value():
    ops = cli_cold.build(7, ROOT, HERE / "results")
    by_name = {op.name: op for op in ops}
    out = by_name["numbers json"].run(NO_TRACE)
    require(by_name["numbers json"].check(out) == [], "clean numbers output flagged")
    payload = json.loads(out["proc"].stdout)
    payload["table"][3]["f"] *= 1 + 1e-8
    bad = subprocess.CompletedProcess(out["proc"].args, 0, json.dumps(payload).encode(), b"")
    numbers = by_name["numbers json"]
    require(numbers.check({"proc": bad}) != [], "corrupted numbers output not flagged")
    wrong_code = subprocess.CompletedProcess(out["proc"].args, 1, out["proc"].stdout, b"")
    require(numbers.check({"proc": wrong_code}) != [], "wrong exit code not flagged")


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("op"):
        with tracer.span("child", evals=3):
            pass
    own = tracer.self_times()
    spans = tracer.spans
    whole = spans[0]["end"] - spans[0]["start"]
    child = spans[1]["end"] - spans[1]["start"]
    require(abs(own[0] - (whole - child)) < 1e-12 and own[1] == child, "self time")
    require(tracer.totals("pass")[1] == {"evals": 3}, "span counts")


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
            print(f"ok   {test.__name__}")
        except SelfTestError as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
