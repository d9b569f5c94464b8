"""The public API: the names ``gpkrige`` exports, what importing it loads, the
imports of its modules and of the tests, and the README examples that use it."""

import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gpkrige
from gpkrige import cli, model_from_json, study_config_from_json

PUBLIC_NAMES = {
    "GpKrigeError", "InputError", "NumericalError", "SingularityError", "StudyError",
    "Dataset", "KernelSpec", "MeanSpec", "build_gram",
    "empirical_semivariogram", "kernel_matrix",
    "model_from_json", "semivariogram_of",
    "Prediction", "gls_beta", "ls_predict",
    "ordinary_krige", "predict_points", "simple_krige", "universal_krige",
    "gpr_predict", "gpr_predict_basis",
    "StudyConfig", "run_study", "sample_field",
    "study_config_from_json",
}

README = Path(__file__).resolve().parents[1] / "README.md"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
README_CLI = [line for _, block in re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(),
                                               re.M | re.S)
              for line in block.splitlines() if line.startswith("gpkrige ")]
README_JSON = [json.loads(block) for block in
               re.findall(r"^```json\n(.*?)^```", README.read_text(), re.M | re.S)]
# the first cell of each row of the function table
README_FUNCTIONS = re.findall(r"^\| `([\w.]+)` \|", README.read_text(), re.M)


def run_python(args):
    """Run a fresh interpreter that imports this checkout's gpkrige."""
    src = str(Path(gpkrige.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def test_public_names_are_pinned():
    assert len(gpkrige.__all__) == len(PUBLIC_NAMES) == 26
    assert set(gpkrige.__all__) == PUBLIC_NAMES
    for name in gpkrige.__all__:
        assert getattr(gpkrige, name) is not None


def test_retired_names_live_in_their_modules_only():
    for module, name in (("kernels", "basis_matrix"), ("kriging", "KrigingWeights"),
                         ("gpr", "GaussianPredictive"), ("simulate", "StudyReport")):
        assert not hasattr(gpkrige, name)
        assert getattr(importlib.import_module(f"gpkrige.{module}"), name) is not None


def test_import_does_not_load_the_oracles():
    out = run_python(["-c", "import sys, gpkrige; print('gpkrige.oracle' in sys.modules)"])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


SOURCES = sorted(Path(gpkrige.__file__).resolve().parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
ORACLE = Path(gpkrige.__file__).resolve().parent / "oracle.py"
ORACLE_FUNCTIONS = sorted(node.name for node in ast.parse(ORACLE.read_text()).body
                          if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))


@pytest.mark.parametrize("path", SOURCES + TESTS,
                         ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TESTS])
def test_every_imported_name_is_used(path):
    # a name in __all__ counts as used: the package imports to re-export
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for value in ast.literal_eval(node.value)}
    assert sorted(imported - used - exported) == []


def test_only_the_oracle_imports_scipy_special():
    # scipy.special is kept for gpkrige.oracle alone
    importers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            else:
                names = []
            if any(n == "scipy.special" or n.startswith("scipy.special.") for n in names):
                importers.add(path.name)
    assert sorted(importers - {"oracle.py"}) == []


def test_every_private_definition_is_read():
    # a module-level _name (function, class or constant) that no module in
    # src/ reads is left behind; tests alone do not keep one alive
    defined, read = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined |= {(path.name, name) for name in names
                        if name.startswith("_") and not name.startswith("__")}
        read |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(f"{module}:{name}" for module, name in defined if name not in read) == []


def test_every_oracle_function_has_a_reader():
    # an oracle route earns its place when verify (or another module in src/)
    # reads it outside its own definition, or when an acceptance criterion imports it
    read = set()
    for path in SOURCES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = {n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if isinstance(node, ast.FunctionDef):
                names.discard(node.name)
            read |= names
    acceptance = ast.parse((Path(__file__).resolve().parent / "test_acceptance.py").read_text())
    read |= {alias.name for node in ast.walk(acceptance)
             if isinstance(node, ast.ImportFrom) and node.module == "gpkrige.oracle"
             for alias in node.names}
    assert ORACLE_FUNCTIONS
    assert sorted(set(ORACLE_FUNCTIONS) - read) == []


def test_no_oracle_route_runs_the_engine():
    # a route that runs the engine, or solves against its factor, checks the
    # engine against itself
    names = set()
    for node in ast.walk(ast.parse(ORACLE.read_text(), filename=str(ORACLE))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert "bordered_solve" in names
    assert sorted(names & {"_Engine", "_engine_route", "_clamped", "_factor_in_place",
                           "_whiten", "SpdFactor", "_mean_parts"}) == []


def test_readme_function_table_matches_the_code():
    from gpkrige import oracle

    assert README_FUNCTIONS
    for row in README_FUNCTIONS:
        module, _, name = row.rpartition(".")
        assert module in ("", "gpkrige.oracle"), row
        assert callable(getattr(oracle if module else gpkrige, name, None)), row
    assert sorted({f"gpkrige.oracle.{name}" for name in ORACLE_FUNCTIONS}
                  - set(README_FUNCTIONS)) == []


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS)
def test_readme_example_runs(block):
    out = run_python(["-W", "error", "-c", block])
    assert out.returncode == 0, out.stderr


def test_readme_cli_lines_cover_every_command():
    assert {shlex.split(line)[1] for line in README_CLI} == {
        "predict", "variogram", "study", "verify"}


@pytest.mark.parametrize("line", README_CLI)
def test_readme_cli_line_parses(line):
    command, *argv = shlex.split(line)[1:]
    args = cli._build_parser().parse_args([command, *argv])
    assert args.func.__name__ == f"cmd_{command}"


def test_readme_json_covers_model_and_study():
    assert {"variant" in doc for doc in README_JSON} == {True, False}


@pytest.mark.parametrize("doc", README_JSON, ids=lambda doc: ",".join(doc))
def test_readme_json_block_parses(doc):
    # the strict readers: a quoted or boolean number would fail here
    if "variant" in doc:
        model_from_json(doc)
    else:
        assert "n_train" in doc
        study_config_from_json(doc)
