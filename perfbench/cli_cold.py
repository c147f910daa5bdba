"""cli_cold: one cold `python -m pqosc` process per operation.

Every pass runs each command once or twice, JSON and CSV, and the exit-code
contract: 0 on passing checks, 1 on the literal-mode negative, 2 on an
invalid parameter, 3 on an undefined gamma.  A process costs the
interpreter, the numpy import, argparse, the work and serialization, so
work moved into import or set-up shows here first.  The seed picks the
grid point, the Hopf offset and the sweep grid; every command's work is
small and fixed in size, so the pass costs the same on every seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import oracle
from harness import Checks, Op, rel_err, scaled_err

# Times are scaled to the reference speed (speed.py): interpreter start-up
# and imports are interpreter-bound, and the kernel follows them.
SCALED = True
P_GRID = (0.5, 1.5, 2.0)
Q_GRID = (0.3, 0.9, 3.0)
ALPHA_GRID = (0.5, 1.0, 2.0)
L_GRID = (0.5, 1.0, 2.0)
N_MAX = 20
REP_DIM = 16
HOPF_DIM = 8
PROCESS_TIMEOUT = 120.0

TOL_F = 1e-10
TOL_SPECTRUM = 1e-11
TOL_GAMMA = 1e-12
TOL_GAP = 1e-12


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(tr, root: Path, argv: list) -> subprocess.CompletedProcess:
    with tr.span("cli.process") as attrs:
        proc = subprocess.run(
            [sys.executable, "-m", "pqosc", *argv],
            cwd=root,
            env=child_env(root),
            capture_output=True,
            timeout=PROCESS_TIMEOUT,
        )
        attrs["stdout_bytes"] = len(proc.stdout)
    return proc


def run_in_process(tr, argv: list) -> int:
    """cli.run on the same argv, with its output discarded."""
    from pqosc import cli

    with tr.span("cli.run"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.run(argv)


class Command:
    """One process: its argv, the exit code the contract gives, and a check."""

    def __init__(self, root: Path, argv: list, code: int, check_output):
        self.root = root
        self.argv = argv
        self.code = code
        self.check_output = check_output

    def run(self, tr) -> dict:
        return {"proc": run_process(tr, self.root, self.argv)}

    def check(self, out: dict) -> list:
        c = Checks()
        proc = out["proc"]
        c.expect(
            proc.returncode == self.code,
            f"exit {proc.returncode}, contract says {self.code}: {proc.stderr.decode()[-300:]}",
        )
        if proc.returncode == self.code:
            self.check_output(c, proc)
        return c.problems


def _json(c: Checks, proc):
    try:
        return json.loads(proc.stdout)
    except ValueError as exc:
        c.expect(False, f"stdout is not JSON: {exc}")
        return None


def _csv(proc) -> list:
    return list(csv.reader(io.StringIO(proc.stdout.decode())))


def _all_pass(c: Checks, payload) -> None:
    if payload is not None:
        results = payload.get("results", [])
        c.expect(bool(results) and all(r["pass"] for r in results), "a check in the report failed")


def _error_named(kind: str):
    def check(c: Checks, proc) -> None:
        err = proc.stderr.decode()
        c.expect(err.startswith("error: ") and kind in err, f"stderr does not name {kind}: {err!r}")
        c.expect(proc.stdout == b"", "a failing command wrote a report")

    return check


def build(seed: int, root: Path, workdir: Path) -> list:
    rng = random.Random(seed)
    p, q = rng.choice(P_GRID), rng.choice(Q_GRID)
    alpha, l = rng.choice(ALPHA_GRID), rng.choice(L_GRID)
    beta = round(rng.uniform(0.5, 2.0), 3)
    same = rng.choice(P_GRID)
    sweep_p = sorted(rng.sample(P_GRID, 2))
    sweep_q = sorted(rng.sample(Q_GRID, 2))

    bracket = oracle.Bracket(p, q, l)
    ref_f = [float(bracket.f(n, alpha, 0.0)) for n in range(N_MAX + 1)]
    ref_lam = [float(bracket.lam(n, alpha, 0.0)) for n in range(N_MAX + 1)]
    ref_gamma = float(oracle.gamma(p, q, 1.0, 1.0, beta, beta))

    point = ["--p", repr(p), "--q", repr(q), "--alpha", repr(alpha), "--l", repr(l)]
    hopf_point = ["--p", repr(p), "--q", repr(q), "--alpha", "1", "--l", "1",
                  "--beta1", repr(beta), "--beta2", repr(beta)]
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / f"sweep-{seed}.cfg"
    config.write_text(
        f"# sweep grid for seed {seed}\n"
        f"p = {', '.join(map(repr, sweep_p))}\n"
        f"q = {', '.join(map(repr, sweep_q))}\n"
        f"alpha = {alpha!r}\nl = {l!r}\ndim = {REP_DIM}\n"
    )
    sweep_points = len(sweep_p) * len(sweep_q)
    first_bytes = {}

    def numbers_json(c, proc):
        payload = _json(c, proc)
        if payload is not None:
            got = [row["f"] for row in payload["table"]]
            c.within("f(n) vs reference", max(map(rel_err, got, ref_f)), TOL_F)
            first_bytes["numbers"] = proc.stdout

    def numbers_again(c, proc):
        same = proc.stdout == first_bytes.get("numbers")
        c.expect(same, "--no-timestamp output differs between processes")

    def numbers_csv(c, proc):
        rows = _csv(proc)
        c.expect(rows[0] == ["n", "f"] and len(rows) == N_MAX + 2, "numbers CSV shape")
        got = [float(r[1]) for r in rows[1:]]
        c.within("CSV f(n) vs reference", max(map(rel_err, got, ref_f)), TOL_F)

    def spectrum_csv(c, proc):
        rows = _csv(proc)
        c.expect(rows[0] == ["n", "lambda", "form32", "form34"], "spectrum CSV header")
        for col in (1, 2, 3):
            got = [float(r[col]) for r in rows[1:]]
            err = max(map(scaled_err, got, ref_lam))
            c.within(f"CSV lambda column {col} vs reference", err, TOL_SPECTRUM)

    def spectrum_json(c, proc):
        payload = _json(c, proc)
        _all_pass(c, payload)
        if payload is not None:
            got = [row["lambda"] for row in payload["table"]]
            c.within("lambda vs reference", max(map(scaled_err, got, ref_lam)), TOL_SPECTRUM)

    def passes(c, proc):
        _all_pass(c, _json(c, proc))

    def literal(c, proc):
        payload = _json(c, proc)
        if payload is not None:
            c.expect(any(not r["pass"] for r in payload["results"]), "literal mode passed")

    def hopf_solve(c, proc):
        payload = _json(c, proc)
        _all_pass(c, payload)
        if payload is not None:
            gamma = payload["coefficients"]["gamma"]
            c.within("gamma vs reference", rel_err(gamma, ref_gamma), TOL_GAMMA)

    def hopf_check(c, proc):
        payload = _json(c, proc)
        _all_pass(c, payload)
        if payload is not None:
            gap = payload["diagnostics"]["N"]
            c.within("antipode N gap - 2|gamma|", abs(gap - 2 * abs(ref_gamma)), TOL_GAP)

    def sweep_json(c, proc):
        payload = _json(c, proc)
        if payload is not None:
            pts = payload["points"]
            c.expect(len(pts) == sweep_points, f"sweep gave {len(pts)} of {sweep_points} points")
            c.expect(all(r["pass"] for pt in pts for r in pt.get("results", [{"pass": False}])),
                     "a sweep point failed")

    def sweep_csv(c, proc):
        rows = _csv(proc)
        c.expect(len(rows) == 1 + 4 * sweep_points, "sweep CSV row count")
        c.expect(all(r[-1] == "true" for r in rows[1:]), "a sweep CSV row failed")

    ts = ["--no-timestamp"]
    as_csv = ["--format", "csv"]
    rep_point = point + ["--dim", str(REP_DIM)]
    literal_point = ["--p", repr(p), "--q", repr(q), "--alpha", "2", "--l", repr(l),
                     "--dim", str(REP_DIM), "--mode", "literal"]
    commands = [
        ("numbers json", ["numbers", *point, "--n-max", str(N_MAX), *ts], 0, numbers_json),
        ("numbers json again", ["numbers", *point, "--n-max", str(N_MAX), *ts], 0, numbers_again),
        ("numbers csv", ["numbers", *point, "--n-max", str(N_MAX), *as_csv], 0, numbers_csv),
        ("spectrum csv", ["spectrum", *point, "--n-max", str(N_MAX), *as_csv], 0, spectrum_csv),
        ("spectrum json", ["spectrum", *point, "--n-max", str(N_MAX), *ts], 0, spectrum_json),
        ("rep-check", ["rep-check", *rep_point, *ts], 0, passes),
        ("rep-check literal", ["rep-check", *literal_point, *ts], 1, literal),
        ("calculus-check", ["calculus-check", *point, *ts], 0, passes),
        ("hopf-solve", ["hopf-solve", *hopf_point, *ts], 0, hopf_solve),
        ("hopf-solve p = q", ["hopf-solve", "--p", repr(same), "--q", repr(same), "--beta1", "1",
                              "--beta2", "0"], 3, _error_named("GammaUndefinedError")),
        ("hopf-check", ["hopf-check", *hopf_point, "--dim", str(HOPF_DIM), *ts], 0, hopf_check),
        ("sweep json", ["sweep", "--config", str(config), *ts], 0, sweep_json),
        ("sweep csv", ["sweep", "--config", str(config), *as_csv], 0, sweep_csv),
        ("numbers p < 0", ["numbers", "--p", "-1", "--q", repr(q)], 2,
         _error_named("NonPositiveBaseError")),
    ]
    ops = []
    for name, argv, code, check in commands:
        command = Command(root, argv, code, check)
        ops.append(Op(name, command.run, command.check, argv=argv))
    return ops


WARMUP_ARGV = (
    ["numbers", "--p", "2", "--q", "3", "--n-max", "2"],
    ["hopf-check", "--p", "2", "--q", "3", "--beta1", "0.7", "--beta2", "0.7", "--dim", "4"],
)


def warmup() -> list:
    """In-process cli.run on fixed small argv: the first-call costs of the CLI."""
    return [
        Op(" ".join(argv), lambda tr, argv=argv: {"code": run_in_process(tr, argv)}, lambda out: [])
        for argv in WARMUP_ARGV
    ]
