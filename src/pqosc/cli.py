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

run merges and checks the options once, into one dict, and validates
the DeformationParams once.  Each handler fills payload and returns the
CheckReports it ran and a table of raw rows; the driver takes the exit
code from CheckReport.passed, once (sweep, which validates each grid
point and whose error points are not reports, returns its own).
report.result_rows gives the raw label,residual,tol,pass rows and
report.results keys them for JSON, so a field added to an entry reaches
JSON, CSV and the exit code through report alone.  _emit alone formats
CSV cells: csv writes a float as its repr and None as an empty cell,
and _emit lower-cases a bool.

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
every type it builds (DeformationParams, the reports, SpectrumTable,
Shift, FockRep, HopfParams) is a namedtuple; those two build the
HopfCoefficients dataclass.
"""

from __future__ import annotations

import io
import sys
from itertools import product

from .params import Beta1Beta2MismatchError, DeformationParams, FockError, ParameterError, validate
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


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _emit(payload: dict, fmt: str, out_path: str | None, table) -> None:
    if fmt == "json":
        text = strict_json(payload, indent=2) + "\n"
    else:
        import csv

        header, rows = table
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [str(v).lower() if isinstance(v, bool) else v for v in row] for row in rows
        )
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands: each takes (params, opts, payload), fills payload and returns
# (reports, CSV table); sweep takes (opts, payload) and returns (exit code,
# CSV table)
# ---------------------------------------------------------------------------


def _cmd_numbers(params: DeformationParams, opts: dict, payload: dict):
    _, values = brackets(params.beta, params.alpha, opts["n_max"] + 1, params)
    header, rows = ("n", "f"), list(enumerate(values))
    payload["table"] = [dict(zip(header, row)) for row in rows]
    return (), (header, rows)


def _cmd_spectrum(params: DeformationParams, opts: dict, payload: dict):
    from . import spectrum

    tol = opts["tol"]
    table = spectrum.spectrum_table(params, opts["n_max"])
    duality = spectrum.check_pq_inversion(params, opts["n_max"], tol)
    forms = CheckReport(
        "spectrum-forms", (CheckEntry("three-form agreement", table.max_form_spread(), tol),)
    )
    payload["results"] = results((forms, duality))
    header = ("n", "lambda", "form32", "form34")
    payload["table"] = [dict(zip(header, row)) for row in table.rows]
    return (forms, duality), (header, table.rows)


def _relations_report(params: DeformationParams, opts: dict) -> CheckReport:
    """Relation residuals at one point, tol relative to the largest ladder weight."""
    from . import fock

    rep = fock.build(params, opts["dim"])
    tol = opts["tol"] * rep.maxweight
    if not tol < float("inf"):  # NaN fails too
        raise ConfigError(
            f"tol {opts['tol']} times the largest ladder weight is {tol}, not finite"
        )
    return fock.check_relations(rep, opts["mode"], tol)


def _cmd_rep_check(params: DeformationParams, opts: dict, payload: dict):
    if opts["dim"] < 4:
        raise ConfigError(f"rep-check needs dim >= 4, got {opts['dim']}")
    reports = (_relations_report(params, opts),)
    payload["results"] = results(reports)
    payload["metadata"] = reports[0].metadata
    return reports, (RESULT_HEADER, result_rows(reports))


def _cmd_calculus_check(params: DeformationParams, opts: dict, payload: dict):
    from .calculus import check_realization

    reports = (check_realization(params, _CALCULUS_EXPONENTS, opts["tol"]),)
    payload["results"] = results(reports)
    payload["metadata"] = reports[0].metadata
    return reports, (RESULT_HEADER, result_rows(reports))


def _require_hopf(params: DeformationParams, opts: dict):
    """The HopfParams of params and opts; raises ConfigError when an offset is missing."""
    from .coefficients import validate_hopf

    if "beta1" not in opts or "beta2" not in opts:
        raise ConfigError("hopf commands need beta1 and beta2")
    return validate_hopf(params.p, params.q, params.alpha, params.l, opts["beta1"], opts["beta2"])


def _cmd_hopf_solve(params: DeformationParams, opts: dict, payload: dict):
    from . import coefficients

    hp = _require_hopf(params, opts)
    hc = coefficients.solve_coefficients(hp)
    reports = (coefficients.check_constraints(hc, hp, min(opts["tol"], 1e-12)),)
    payload["coefficients"] = hc.as_dict()
    payload["results"] = results(reports)
    rows = [("coefficient:" + k, v, None, None) for k, v in hc.as_dict().items()]
    return reports, (RESULT_HEADER, rows + result_rows(reports))


def _cmd_hopf_check(params: DeformationParams, opts: dict, payload: dict):
    dim, tol = opts["dim"], opts["tol"]
    if not (4 <= dim <= 64):
        raise ConfigError(f"hopf-check needs 4 <= dim <= 64, got {dim}")
    from . import coefficients, fock, hopf

    hp = _require_hopf(params, opts)
    hc = coefficients.solve_coefficients(hp)
    rep = fock.build(hp.base_params(), dim)

    constraints = coefficients.check_constraints(hc, hp, min(tol, 1e-12))
    coassoc = hopf.check_coassociativity(rep, hc, tol)
    counit = hopf.check_counit(hc, rep, tol)
    antipode = hopf.check_antipode(hc, rep, tol)
    reports = [constraints, coassoc, counit, antipode]
    try:
        reports.append(hopf.check_homomorphism(rep, hc, hp, tol))
    except Beta1Beta2MismatchError:
        payload["homomorphism"] = "skipped: beta1 - beta2 != l"

    payload["coefficients"] = hc.as_dict()
    payload["results"] = results(reports)
    payload["diagnostics"] = antipode.metadata["axiom_closure"]
    payload["coassociativity"] = {k: coassoc.metadata[k] for k in ("entry_scale", "worst")}
    return reports, (RESULT_HEADER, result_rows(reports))


def _cmd_sweep(opts: dict, payload: dict):
    if opts["dim"] < 4:
        raise ConfigError(f"sweep needs dim >= 4, got {opts['dim']}")
    grid_keys = [k for k in _PARAM_KEYS if isinstance(opts[k], tuple)]
    points, rows = [], []
    any_fail = False
    for combo in product(*(opts[k] for k in grid_keys)):
        point = {k: opts[k] for k in _PARAM_KEYS}
        point.update(zip(grid_keys, combo))
        base = tuple(point.values())
        try:
            reports = (_relations_report(validate(*base), opts),)
        except (ParameterError, FockError, ConfigError, ExponentOverflowError) as exc:
            point["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(base + (point["error"], None, None, False))
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
    "sweep": _cmd_sweep,  # takes the options alone and validates each grid point
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
            try:
                with open(config, "r", encoding="utf-8-sig") as handle:  # a BOM is not a key
                    text = handle.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{config} is not UTF-8: {exc}") from None
            values = read_pairs(text, allow_lists=(command == "sweep"))
        values.update(flag_values)
        opts = _merged_options(values)
        fmt = opts["format"]

        payload = {"command": command}
        if command == "sweep":
            payload["grid"] = {k: list(v) for k, v in opts.items() if isinstance(v, tuple)}
            code, table = _cmd_sweep(opts, payload)
        else:
            params = validate(*(opts[k] for k in _PARAM_KEYS))
            payload["params"] = params.as_dict()
            payload["params"].update((k, opts[k]) for k in ("beta1", "beta2") if k in opts)
            payload["options"] = {k: opts[k] for k in ("dim", "n_max", "tol", "mode")}
            reports, table = _HANDLERS[command](params, opts, payload)
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
