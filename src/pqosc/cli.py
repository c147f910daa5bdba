"""Command-line interface.

    osc <command> [--key value | --key=value]... [--config PATH] [--out PATH] [--no-timestamp]

The command comes first.  Each key of a `--config` file (`key = value`
lines, `#` comments) has one flag, `_` written `-` (`--n-max`), with no
abbreviations.  The token after a flag is always its value, and one
_parse_value reads flag and file values.  Flags override the file, the
last of a repeated flag wins, and -h or --help anywhere prints USAGE.
Reports go to stdout or `--out` as JSON (default) or CSV; the JSON is
strict, a NaN or an infinity written as the string "nan", "inf" or
"-inf" (its CSV text).  Exit codes: 0 all checks pass, 1 at least one
check failed (reports are still emitted), 2 invalid parameters, config
or arguments, 3 internal numeric failure (overflow, undefined gamma);
the message names the error.

Every handler returns the CheckReports it ran and its CSV table.  The
driver takes the exit code from CheckReport.passed, once; sweep, whose
error points are not reports, returns its own.  The JSON result objects
and the label,residual,tol,pass CSV rows both come from report.results
and report.result_rows, so a field added to an entry reaches JSON, CSV
and the exit code through report alone.

Each process loads only the modules its command runs: every pqosc
module past params, structure and report is imported inside the handler
that uses it, datetime only when a JSON report is timestamped, and csv
only when a CSV table is written.  No command imports argparse.

    numbers          cli, params, structure, report
    spectrum         + spectrum
    calculus-check   + calculus
    hopf-solve       + coefficients
    rep-check, sweep + fock
    hopf-check       + coefficients, fock, hopf

No command imports numpy: hopf-check decides coassociativity on symbol
words and runs its other checks on tuples and lists of floats.  Every
command but hopf-solve and hopf-check imports no dataclasses either:
every type it builds (Config here, DeformationParams, the reports,
SpectrumTable, Shift, FockRep, HopfParams) is a namedtuple; those two
build the HopfCoefficients dataclass.
"""

from __future__ import annotations

import io
import sys
from collections import namedtuple
from itertools import product

from .params import Beta1Beta2MismatchError, FockError, ParameterError, validate
from .report import RESULT_HEADER, CheckEntry, CheckReport, result_rows, results, strict_json
from .structure import ExponentOverflowError, brackets

_PARAM_KEYS = ("p", "q", "alpha", "beta", "l")
_FLOAT_KEYS = _PARAM_KEYS + ("beta1", "beta2", "tol")
_INT_KEYS = ("dim", "n_max")
_STR_KEYS = ("mode", "format")
_ALL_KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS

_DEFAULTS = {
    "alpha": 1.0,
    "beta": 0.0,
    "l": 1.0,
    "dim": 16,
    "n_max": 20,
    "tol": 1e-10,
    "mode": "grading",
    "format": "json",
}

_CALCULUS_EXPONENTS = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


class ConfigError(ValueError):
    """Unreadable or inconsistent configuration."""


class Config(namedtuple("Config", "params beta1 beta2 dim n_max tol mode fmt")):
    """One validated invocation: DeformationParams, the optional Hopf
    offsets beta1 and beta2 (None when absent), and the options."""

    __slots__ = ()


def _parse_value(key: str, raw: str, where: str, allow_lists: bool):
    """The value of one key, from a config line or a flag; where names it in errors."""
    if not raw:
        raise ConfigError(f"{where}: empty value for key {key!r}")
    if key in _STR_KEYS:
        return raw
    try:
        if "," in raw and allow_lists and key in _PARAM_KEYS:
            return tuple(float(part.strip()) for part in raw.split(","))
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse value {raw!r} for key {key!r}") from None


def read_pairs(source: str, allow_lists: bool = False) -> dict:
    """Parse `key = value` lines into a dict; `#` starts a comment."""
    out: dict = {}
    for line_no, line in enumerate(source.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        out[key] = _parse_value(key, raw, f"line {line_no}", allow_lists)
    return out


def _merged_options(values: dict) -> dict:
    """values over the defaults; raises ConfigError for a missing p or q or a bad option."""
    merged = dict(_DEFAULTS)
    merged.update(values)
    for key in ("p", "q"):
        if key not in merged:
            raise ConfigError(f"missing required parameter {key!r}")
    if merged["mode"] not in ("grading", "literal"):
        raise ConfigError(f"mode must be 'grading' or 'literal', got {merged['mode']!r}")
    if merged["format"] not in ("json", "csv"):
        raise ConfigError(f"format must be 'json' or 'csv', got {merged['format']!r}")
    if not 0 < merged["tol"] < float("inf"):  # NaN fails both comparisons
        raise ConfigError(f"tol must be positive and finite, got {merged['tol']}")
    if merged["n_max"] < 0:
        raise ConfigError(f"n_max must be nonnegative, got {merged['n_max']}")
    return merged


def build_config(values: dict) -> Config:
    """Fill defaults, validate, and produce a Config."""
    merged = _merged_options(values)
    params = validate(merged["p"], merged["q"], merged["alpha"], merged["beta"], merged["l"])
    return Config(
        params=params,
        beta1=merged.get("beta1"),
        beta2=merged.get("beta2"),
        dim=int(merged["dim"]),
        n_max=int(merged["n_max"]),
        tol=float(merged["tol"]),
        mode=merged["mode"],
        fmt=merged["format"],
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _emit(payload: dict, cfg_fmt: str, out_path: str | None, table) -> None:
    if cfg_fmt == "json":
        text = strict_json(payload, indent=2) + "\n"
    else:
        import csv

        header, rows = table
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands: each fills payload and returns (reports, CSV table); sweep returns
# (exit code, CSV table)
# ---------------------------------------------------------------------------


def _cmd_numbers(cfg: Config, payload: dict):
    params = cfg.params
    _, values = brackets(params.beta, params.alpha, cfg.n_max + 1, params)
    table = [{"n": n, "f": f} for n, f in enumerate(values)]
    payload["table"] = table
    return (), (("n", "f"), [(row["n"], repr(row["f"])) for row in table])


def _cmd_spectrum(cfg: Config, payload: dict):
    from . import spectrum

    table = spectrum.spectrum_table(cfg.params, cfg.n_max)
    duality = spectrum.check_pq_inversion(cfg.params, cfg.n_max, cfg.tol)
    forms = CheckReport(
        "spectrum-forms", (CheckEntry("three-form agreement", table.max_form_spread(), cfg.tol),)
    )
    payload["results"] = results((forms, duality))
    payload["table"] = [
        {"n": n, "lambda": main, "form32": fq, "form34": fp} for n, main, fq, fp in table.rows
    ]
    rows = [(n, repr(main), repr(fq), repr(fp)) for n, main, fq, fp in table.rows]
    return (forms, duality), (("n", "lambda", "form32", "form34"), rows)


def _relations_report(cfg: Config) -> CheckReport:
    """Relation residuals at one point, tol relative to the largest ladder weight."""
    from . import fock

    rep = fock.build(cfg.params, cfg.dim)
    tol = cfg.tol * rep.maxweight
    if not tol < float("inf"):  # NaN fails too
        raise ConfigError(f"tol {cfg.tol} times the largest ladder weight is {tol}, not finite")
    return fock.check_relations(rep, cfg.mode, tol)


def _cmd_rep_check(cfg: Config, payload: dict):
    if cfg.dim < 4:
        raise ConfigError(f"rep-check needs dim >= 4, got {cfg.dim}")
    reports = (_relations_report(cfg),)
    payload["results"] = results(reports)
    payload["metadata"] = reports[0].metadata
    return reports, (RESULT_HEADER, result_rows(reports))


def _cmd_calculus_check(cfg: Config, payload: dict):
    from .calculus import check_realization

    reports = (check_realization(cfg.params, _CALCULUS_EXPONENTS, cfg.tol),)
    payload["results"] = results(reports)
    payload["metadata"] = reports[0].metadata
    return reports, (RESULT_HEADER, result_rows(reports))


def _require_hopf(cfg: Config):
    """The HopfParams of cfg; raises ConfigError when an offset is missing."""
    from .coefficients import validate_hopf

    if cfg.beta1 is None or cfg.beta2 is None:
        raise ConfigError("hopf commands need beta1 and beta2")
    return validate_hopf(
        cfg.params.p, cfg.params.q, cfg.params.alpha, cfg.params.l, cfg.beta1, cfg.beta2
    )


def _cmd_hopf_solve(cfg: Config, payload: dict):
    from . import coefficients

    hp = _require_hopf(cfg)
    hc = coefficients.solve_coefficients(hp)
    reports = (coefficients.check_constraints(hc, hp, min(cfg.tol, 1e-12)),)
    payload["coefficients"] = hc.as_dict()
    payload["results"] = results(reports)
    rows = [("coefficient:" + k, repr(v), "", "") for k, v in hc.as_dict().items()]
    return reports, (RESULT_HEADER, rows + result_rows(reports))


def _cmd_hopf_check(cfg: Config, payload: dict):
    if not (4 <= cfg.dim <= 64):
        raise ConfigError(f"hopf-check needs 4 <= dim <= 64, got {cfg.dim}")
    from . import coefficients, fock, hopf

    hp = _require_hopf(cfg)
    hc = coefficients.solve_coefficients(hp)
    rep = fock.build(hp.base_params(), cfg.dim)

    constraints = coefficients.check_constraints(hc, hp, min(cfg.tol, 1e-12))
    coassoc = hopf.check_coassociativity(rep, hc, cfg.tol)
    counit = hopf.check_counit(hc, rep, cfg.tol)
    antipode = hopf.check_antipode(hc, rep, cfg.tol)
    reports = [constraints, coassoc, counit, antipode]
    try:
        reports.append(hopf.check_homomorphism(rep, hc, hp, cfg.tol))
    except Beta1Beta2MismatchError:
        payload["homomorphism"] = "skipped: beta1 - beta2 != l"

    payload["coefficients"] = hc.as_dict()
    payload["results"] = results(reports)
    payload["diagnostics"] = antipode.metadata["axiom_closure"]
    payload["coassociativity"] = {k: coassoc.metadata[k] for k in ("entry_scale", "worst")}
    return reports, (RESULT_HEADER, result_rows(reports))


def _cmd_sweep(cfg_values: dict, payload: dict):
    if int(cfg_values["dim"]) < 4:
        raise ConfigError(f"sweep needs dim >= 4, got {cfg_values['dim']}")
    grid_keys = [k for k in _PARAM_KEYS if isinstance(cfg_values.get(k), tuple)]
    axes = [cfg_values[k] for k in grid_keys]
    points, rows = [], []
    any_fail = False
    for combo in product(*axes) if grid_keys else [()]:
        values = dict(cfg_values)
        values.update(dict(zip(grid_keys, combo)))
        point = {k: values.get(k) for k in _PARAM_KEYS}
        base = tuple(repr(point[k]) for k in _PARAM_KEYS)
        try:
            reports = (_relations_report(build_config(values)),)
        except (ParameterError, FockError, ConfigError, ExponentOverflowError) as exc:
            point["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(base + (point["error"], "", "", "false"))
            any_fail = True
        else:
            point["results"] = results(reports)
            rows += [base + row for row in result_rows(reports)]
            any_fail = any_fail or not reports[0].passed
        points.append(point)
    payload["points"] = points
    return (1 if any_fail else 0), (_PARAM_KEYS + RESULT_HEADER, rows)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


_HANDLERS = {
    "numbers": _cmd_numbers,
    "spectrum": _cmd_spectrum,
    "rep-check": _cmd_rep_check,
    "calculus-check": _cmd_calculus_check,
    "hopf-solve": _cmd_hopf_solve,
    "hopf-check": _cmd_hopf_check,
    "sweep": _cmd_sweep,  # takes the merged values, not a Config
}
_FLAGS = {"--" + key.replace("_", "-"): key for key in _ALL_KEYS}  # --n-max -> n_max

USAGE = """\
usage: osc <command> [--key value | --key=value]... [--config PATH] [--out PATH] [--no-timestamp]

Deformed-oscillator verification toolkit.

commands:
  numbers         table of the structure function f(n), n = 0..n_max
  spectrum        closed-form spectrum with all three forms and the duality residual
  rep-check       defining relations on a truncated matrix representation
  calculus-check  difference-operator realization on monomials
  hopf-solve      solve the coproduct coefficient system
  hopf-check      coassociativity, counit, antipode, and relation transport
  sweep           rep-check over a parameter grid from a config file

options (flags override the config file; a repeated flag's last value wins):
  --p X, --q X            the two bases (required)
  --alpha X, --beta X, --l X
                          exponent slope, offset, grading step (default 1, 0, 1)
  --beta1 X, --beta2 X    Hopf offsets (hopf-solve, hopf-check)
  --dim N                 truncation dimension (default 16)
  --n-max N               highest level n (default 20)
  --tol X                 residual tolerance (default 1e-10)
  --mode grading|literal  rep-check's exponential generators (default grading)
  --format json|csv       report format (default json)
  --config PATH           key = value parameter file, # comments
  --out PATH              write the report here instead of stdout
  --no-timestamp          omit the timestamp field
  -h, --help              print this text

exit codes: 0 all checks pass, 1 a check failed, 2 invalid parameters,
config or arguments, 3 numeric failure
"""


def _read_argv(argv: list[str]):
    """(command, values, config, out, stamp) of one argv; ConfigError on anything else."""
    if not argv or argv[0] not in _HANDLERS:
        got = repr(argv[0]) if argv else "none"
        raise ConfigError(f"expected a command ({', '.join(_HANDLERS)}), got {got}")
    values, paths, stamp = {}, {"--config": None, "--out": None}, True
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--no-timestamp":
            stamp = False
            continue
        flag, eq, raw = token.partition("=")
        if flag not in _FLAGS and flag not in paths:
            raise ConfigError(f"unrecognized argument {token!r}")
        raw = raw if eq else next(tokens, None)
        if raw is None:
            raise ConfigError(f"{flag} expects a value")
        if flag in paths:
            if not raw:
                raise ConfigError(f"{flag}: empty path")
            paths[flag] = raw
        else:
            values[_FLAGS[flag]] = _parse_value(_FLAGS[flag], raw, flag, False)
    return argv[0], values, paths["--config"], paths["--out"], stamp


def run(argv: list[str]) -> int:
    """Execute one CLI invocation and return the process exit code."""
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        return 0
    try:
        command, flag_values, config, out, stamp = _read_argv(argv)
        values = {}
        if config:
            with open(config, "r", encoding="utf-8") as handle:
                values = read_pairs(handle.read(), allow_lists=(command == "sweep"))
        values.update(flag_values)

        payload = {"command": command}
        handler = _HANDLERS[command]
        if command == "sweep":
            merged = _merged_options(values)
            fmt = merged["format"]
            payload["grid"] = {
                k: list(v) for k, v in merged.items() if isinstance(v, tuple)
            }
            code, table = handler(merged, payload)
        else:
            cfg = build_config(values)
            payload["params"] = cfg.params.as_dict()
            if cfg.beta1 is not None:
                payload["params"]["beta1"] = cfg.beta1
            if cfg.beta2 is not None:
                payload["params"]["beta2"] = cfg.beta2
            payload["options"] = {
                "dim": cfg.dim,
                "n_max": cfg.n_max,
                "tol": cfg.tol,
                "mode": cfg.mode,
            }
            fmt = cfg.fmt
            reports, table = handler(cfg, payload)
            code = 0 if all(report.passed for report in reports) else 1

        if fmt == "json" and stamp:  # CSV rows carry no timestamp
            from datetime import datetime, timezone

            payload["timestamp"] = datetime.now(timezone.utc).isoformat()
        _emit(payload, fmt, out, table)
        return code
    except (ConfigError, ParameterError, FockError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # overflow, an undefined gamma, a degenerate A
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
