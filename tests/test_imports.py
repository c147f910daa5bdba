"""Each cold CLI process loads only its command's modules; the lazy package names still resolve."""

import ast
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


def imported(proc: subprocess.CompletedProcess) -> set[str]:
    """The modules the -X importtime lines of a cold process name."""
    lines = (line for line in proc.stderr.splitlines() if line.startswith("import time:"))
    return {line.rsplit("|", 1)[-1].strip() for line in lines}


def imports_numpy(proc: subprocess.CompletedProcess) -> bool:
    return any(m == "numpy" or m.startswith("numpy.") for m in imported(proc))


def pqosc_modules(proc: subprocess.CompletedProcess) -> set[str]:
    """The pqosc submodules a cold process loaded, without the package prefix."""
    return {m[len("pqosc."):] for m in imported(proc) if m.startswith("pqosc.")}


def test_import_pqosc_loads_no_submodule():
    proc = cold("-c", "import pqosc")
    assert proc.returncode == 0, proc.stderr
    assert "pqosc" in imported(proc)
    assert pqosc_modules(proc) == set()


def test_import_pqosc_and_cli_load_no_numpy():
    proc = cold("-c", "import pqosc, pqosc.cli")
    assert proc.returncode == 0, proc.stderr
    assert not imports_numpy(proc)
    assert "dataclasses" not in imported(proc)


SCALAR = {"cli", "params", "structure", "report"}
GRID = "p = 0.5, 2\nq = 3\ndim = 8\n"  # a sweep config, written to "{grid}" in argv


@pytest.mark.parametrize(
    "argv, code, modules, dataclasses",
    [
        (["numbers", "--p", "2", "--q", "3"], 0, SCALAR, False),
        (["spectrum", "--p", "2", "--q", "3", "--n-max", "5"], 0, SCALAR | {"spectrum"}, False),
        (["calculus-check", "--p", "2", "--q", "3"], 0, SCALAR | {"calculus"}, False),
        (["hopf-solve", "--p", "2", "--q", "3", "--beta1", "0.7", "--beta2", "0.7"], 0,
         SCALAR | {"coefficients"}, True),
        (["numbers", "--p", "-1", "--q", "3"], 2, SCALAR, False),
        (["hopf-solve", "--p", "2", "--q", "2", "--beta1", "1", "--beta2", "0"], 3,
         SCALAR | {"coefficients"}, True),
        (["rep-check", "--p", "2", "--q", "3"], 0, SCALAR | {"fock"}, False),
        (["rep-check", "--p", "2", "--q", "3", "--alpha", "2", "--mode", "literal"], 1,
         SCALAR | {"fock"}, False),
        (["sweep", "--config", "{grid}"], 0, SCALAR | {"fock"}, False),
        (["sweep", "--config", "{grid}", "--format", "csv"], 0, SCALAR | {"fock"}, False),
        (["hopf-check", "--p", "2", "--q", "3", "--beta1", "0.7", "--beta2", "0.7", "--dim", "4"], 0,
         SCALAR | {"coefficients", "fock", "hopf"}, True),
        (["hopf-check", "--p", "0.5", "--q", "3", "--alpha", "2", "--beta1", "1", "--beta2", "0",
          "--dim", "8"], 1, SCALAR | {"coefficients", "fock", "hopf"}, True),
    ],
    ids=["numbers", "spectrum", "calculus-check", "hopf-solve", "numbers-p<0", "hopf-solve-p=q",
         "rep-check", "rep-check-literal", "sweep-json", "sweep-csv", "hopf-check",
         "hopf-check-transport"],
)
def test_scalar_commands_load_no_numpy(tmp_path, argv, code, modules, dataclasses):
    """No numpy, only the command's own pqosc modules, and no dataclasses
    where every type the command builds is a namedtuple."""
    grid = tmp_path / "grid.cfg"
    grid.write_text(GRID)
    argv = [str(grid) if arg == "{grid}" else arg for arg in argv]
    proc = cold("-m", "pqosc", *argv, "--no-timestamp")
    assert proc.returncode == code, proc.stderr[-500:]
    assert not imports_numpy(proc)
    assert pqosc_modules(proc) == modules
    assert ("dataclasses" in imported(proc)) == dataclasses
    assert "datetime" not in imported(proc)
    assert not {"argparse", "gettext"} & imported(proc)
    assert ("csv" in imported(proc)) == ("csv" in argv)  # only --format csv loads it


@pytest.mark.parametrize("fmt, stamped", [("csv", False), ("json", True)])
def test_only_a_json_report_loads_datetime(fmt, stamped):
    """Without --no-timestamp, JSON carries a timestamp and loads datetime; CSV has no field for it."""
    proc = cold("-m", "pqosc", "numbers", "--p", "2", "--q", "3", "--format", fmt)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert ("datetime" in imported(proc)) == stamped
    assert ('"timestamp"' in proc.stdout) == stamped


def parsed(folder: Path):
    """(path, syntax tree) of every Python file in folder."""
    paths = sorted(folder.glob("*.py"))
    assert paths
    for path in paths:
        yield path, ast.parse(path.read_text(), str(path))


def package_imports():
    """(path, node) for every import statement in the package, at any depth."""
    for path, tree in parsed(SRC / "pqosc"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path, node


def test_no_module_imports_numpy():
    """No import statement in the package names numpy, at any depth: one
    inside a function or under TYPE_CHECKING counts too."""
    for path, node in package_imports():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or ""]
        numpy = [n for n in names if n == "numpy" or n.startswith("numpy.")]
        assert not numpy, f"{path.name}:{node.lineno} imports {numpy}"


def test_no_module_imports_a_private_name_of_another():
    """No pqosc module imports an underscore name from a sibling: what one
    module shares with another is public there."""
    for path, node in package_imports():
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("pqosc")):
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, f"{path.name}:{node.lineno} imports {private}"


def references(tree: ast.Module) -> set[str]:
    """The names and attributes a module reads, each outside its own top-level definition."""
    seen = set()
    for stmt in tree.body:
        loads = [n for n in ast.walk(stmt) if isinstance(getattr(n, "ctx", None), ast.Load)]
        read = {n.id for n in loads if isinstance(n, ast.Name)}
        read |= {n.attr for n in loads if isinstance(n, ast.Attribute)}
        read.discard(getattr(stmt, "name", None))  # a def or a class
        seen |= read
    return seen


def public_definitions(tree: ast.Module) -> set[str]:
    """The public top-level defs, classes and constants a module defines,
    and the public methods and properties of its classes."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
            if isinstance(stmt, ast.ClassDef):
                names |= {n.name for n in stmt.body if isinstance(n, ast.FunctionDef)}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if not name.startswith("_")}


# Public names that no command runs and no benchmark calls: the tests compare against them.
TEST_REFERENCES = {
    "lambda_forms": "the three forms of each level, which test_spectrum and test_acceptance compare",
    "hamiltonian_eigs": "the Fock cross-check of the levels, until a command runs it (ROADMAP item 9)",
}


def test_every_export_has_a_caller():
    """src/pqosc keeps what osc runs: each exported name, each public
    top-level def, class and constant of a package module, and each public
    method and property of its classes, is read elsewhere in the package
    or by perfbench, or is a named test reference."""
    modules = [tree for _, tree in parsed(SRC / "pqosc")]
    package = set().union(*map(references, modules))
    perfbench = set().union(*(references(tree) for _, tree in parsed(SRC.parent / "perfbench")))
    public = set(pqosc._HOME).union(*map(public_definitions, modules))
    orphans = sorted(public - package - perfbench - set(TEST_REFERENCES))
    assert not orphans, f"public but run by no command, no benchmark and no test table: {orphans}"


def test_every_import_is_used_or_a_re_export():
    """Each top-level import in a package module binds a name the module
    reads, unless a comment on the import statement calls it a re-export."""
    for path, tree in parsed(SRC / "pqosc"):
        lines = path.read_text().splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(stmt, "module", None) == "__future__":
                continue
            span = lines[stmt.lineno - 1:stmt.end_lineno]
            if any("re-export" in line.partition("#")[2] for line in span):
                continue
            bound = [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
            unused = [name for name in bound if name not in read]
            assert not unused, f"{path.name}:{stmt.lineno} imports {unused} and never reads them"


def test_public_names_resolve():
    listed = dir(pqosc)
    for name in pqosc.__all__:
        assert getattr(pqosc, name) is not None
        assert name in listed
    for module, names in pqosc._EXPORTS.items():
        home = getattr(pqosc, module)
        assert home.__name__ == f"pqosc.{module}"
        for name in names:
            assert getattr(pqosc, name) is getattr(home, name)
            assert getattr(home, name).__module__ == home.__name__  # its defining module
            assert name in vars(pqosc)  # stored on first access: later reads skip __getattr__
    assert set(pqosc.__all__) == {*pqosc._HOME, "__version__"}
    assert pqosc.hopf.HopfParams is coefficients.HopfParams
    assert pqosc.hopf.validate_hopf is pqosc.validate_hopf
    with pytest.raises(AttributeError):
        pqosc.no_such_name


@pytest.mark.parametrize("name", ["GammaUndefinedError", "ADegenerateError", "Beta1Beta2MismatchError"])
def test_solve_errors_are_one_class(name):
    from pqosc import hopf

    assert getattr(params, name) is getattr(coefficients, name) is getattr(hopf, name)
    assert getattr(pqosc, name) is getattr(params, name)


def test_fock_error_maps_to_exit_two(monkeypatch, capsys):
    from pqosc import fock

    assert fock.FockError is params.FockError
    assert fock.NotLowestWeightError is pqosc.NotLowestWeightError

    def refuse(*args, **kwargs):
        raise pqosc.fock.FockError("refused")

    monkeypatch.setattr(fock, "build", refuse)
    assert cli.run(["rep-check", "--p", "2", "--q", "3"]) == 2
    assert capsys.readouterr().err == "error: FockError: refused\n"
