"""The scalar CLI path imports no numpy; the lazy package names still resolve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pqosc
from pqosc import cli, coefficients, params

SRC = Path(__file__).resolve().parent.parent / "src"
PATHS = [str(SRC), os.environ.get("PYTHONPATH", "")]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, PATHS)))


def cold(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter under -X importtime, which lists every module it imports."""
    return subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=ENV, capture_output=True, text=True, timeout=60,
    )


def imports_numpy(proc: subprocess.CompletedProcess) -> bool:
    modules = (line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines())
    return any(m == "numpy" or m.startswith("numpy.") for m in modules)


def test_import_pqosc_and_cli_load_no_numpy():
    proc = cold("-c", "import pqosc, pqosc.cli")
    assert proc.returncode == 0, proc.stderr
    assert not imports_numpy(proc)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["numbers", "--p", "2", "--q", "3"], 0),
        (["spectrum", "--p", "2", "--q", "3", "--n-max", "5"], 0),
        (["calculus-check", "--p", "2", "--q", "3"], 0),
        (["hopf-solve", "--p", "2", "--q", "3", "--beta1", "0.7", "--beta2", "0.7"], 0),
        (["numbers", "--p", "-1", "--q", "3"], 2),
        (["hopf-solve", "--p", "2", "--q", "2", "--beta1", "1", "--beta2", "0"], 3),
    ],
    ids=["numbers", "spectrum", "calculus-check", "hopf-solve", "numbers-p<0", "hopf-solve-p=q"],
)
def test_scalar_commands_load_no_numpy(argv, code):
    proc = cold("-m", "pqosc", *argv, "--no-timestamp")
    assert proc.returncode == code, proc.stderr[-500:]
    assert not imports_numpy(proc)


@pytest.mark.parametrize(
    "argv",
    [
        ["rep-check", "--p", "2", "--q", "3"],
        ["hopf-check", "--p", "2", "--q", "3", "--beta1", "0.7", "--beta2", "0.7", "--dim", "4"],
    ],
    ids=["rep-check", "hopf-check"],
)
def test_matrix_commands_still_run(argv):
    proc = cold("-m", "pqosc", *argv, "--no-timestamp")
    assert proc.returncode == 0, proc.stderr[-500:]
    assert imports_numpy(proc)  # the probe sees numpy where it is loaded


def test_public_names_resolve():
    listed = dir(pqosc)
    for name in pqosc.__all__:
        assert getattr(pqosc, name) is not None
        assert name in listed
    assert pqosc.FockRep is pqosc.fock.FockRep
    assert pqosc.check_coassociativity is pqosc.hopf.check_coassociativity
    assert pqosc.hopf.HopfParams is coefficients.HopfParams
    assert pqosc.hopf.validate_hopf is pqosc.validate_hopf
    with pytest.raises(AttributeError):
        pqosc.no_such_name


def test_fock_error_maps_to_exit_two(monkeypatch, capsys):
    from pqosc import fock

    assert fock.FockError is params.FockError
    assert fock.NotLowestWeightError is pqosc.NotLowestWeightError

    def refuse(*args, **kwargs):
        raise pqosc.fock.FockError("refused")

    monkeypatch.setattr(fock, "build", refuse)
    assert cli.run(["rep-check", "--p", "2", "--q", "3"]) == 2
    assert capsys.readouterr().err == "error: FockError: refused\n"
