"""The standing invariants of the runtime, read from the source with ``ast``.

Every module under ``src/cosetlab`` imports only the standard library or
cosetlab itself, and the core holds no floating point: no float or complex
literal, no ``float(...)`` call, and no ``math.sqrt``, ``math.floor`` or
``math.log``, called as attributes or imported by name.  Within
``charflow`` only the seed reader builds a root system; every character
carries the one it was validated against, and within ``latticekit`` only
the ``IntegralLattice`` constructor classifies a Gram's signature.  Within
``opecalc`` one ``derivative`` serves both the Taylor moves of ``_contract``
and the skew check.
There too one routine, ``_report``, compares poles and builds every
``VerifyReport``: the three ``verify_*`` functions and the skew check all
report through it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cosetlab"
MODULES = sorted(PACKAGE.glob("*.py"))
FLOAT_MATH = {"sqrt", "floor", "log"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_module_is_read():
    names = {p.name for p in MODULES}
    assert {"charflow.py", "cli.py", "latticekit.py", "ratlinalg.py"} <= names


def foreign_imports(tree: ast.Module):
    """Top-level names imported from outside the stdlib and cosetlab."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue  # relative imports stay inside cosetlab
        for name in names:
            top = name.split(".")[0]
            if top != "cosetlab" and top not in sys.stdlib_module_names:
                yield node.lineno, name


def floating_point(tree: ast.Module):
    """Float literals, float() calls and float-valued math functions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "float":
                yield node.lineno, "float()"
            elif (isinstance(f, ast.Attribute) and f.attr in FLOAT_MATH
                  and isinstance(f.value, ast.Name) and f.value.id == "math"):
                yield node.lineno, f"math.{f.attr}()"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_MATH:
                    yield node.lineno, f"from math import {alias.name}"


def callers_of(tree: ast.Module, name: str):
    """Top-level definitions (or "<module>") whose code calls name, plainly
    or as an attribute."""
    for node in tree.body:
        if any(isinstance(sub, ast.Call)
               and name in (getattr(sub.func, "id", None),
                            getattr(sub.func, "attr", None))
               for sub in ast.walk(node)):
            yield getattr(node, "name", "<module>")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_stdlib_or_cosetlab(path):
    assert list(foreign_imports(_tree(path))) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_core_has_no_floating_point(path):
    assert list(floating_point(_tree(path))) == []


def test_only_the_seed_reader_builds_a_root_system_in_charflow():
    tree = _tree(PACKAGE / "charflow.py")
    assert list(callers_of(tree, "build_root_system")) == ["validate_seed"]


@pytest.mark.parametrize("name", ["mat_inv", "mat_vec", "dot"])
def test_charflow_does_no_rational_linear_algebra(name):
    # the transport enumerates each kernel coset on integers
    assert list(callers_of(_tree(PACKAGE / "charflow.py"), name)) == []


def test_only_the_lattice_classifies_its_signature():
    # a lattice's signature comes from its Gram, never from a caller
    tree = _tree(PACKAGE / "latticekit.py")
    assert list(callers_of(tree, "_signature")) == ["IntegralLattice"]


def test_the_ope_engine_has_one_derivative():
    # Taylor's rule moves the z side of a contraction by the same derivative
    # the skew check takes, with no Bell-tail recurrence beside it
    tree = _tree(PACKAGE / "opecalc.py")
    assert list(callers_of(tree, "derivative")) == ["_contract", "lambda_bracket_skew_check"]
    assert not any(getattr(node, "name", None) == "_bell_tails" for node in ast.walk(tree))


def test_every_ope_identity_reports_through_one_loop():
    # the skew check compares its poles as the verifiers do, with no verdict
    # type or comparison loop of its own
    tree = _tree(PACKAGE / "opecalc.py")
    assert list(callers_of(tree, "VerifyReport")) == ["_report"]
    assert list(callers_of(tree, "_report")) == [
        "lambda_bracket_skew_check", "verify_Jalpha_heisenberg",
        "verify_Hminus_heisenberg", "verify_fst_homomorphism"]


def test_the_guards_see_what_they_forbid():
    bad = ast.parse("import numpy\nfrom scipy.linalg import det\n"
                    "from math import sqrt\nx = 0.5 + float(1) + math.log(2)\n"
                    "from . import charflow\nimport fractions, cosetlab.cli\n")
    assert list(foreign_imports(bad)) == [(1, "numpy"), (2, "scipy.linalg")]
    assert sorted(floating_point(bad)) == [
        (3, "from math import sqrt"), (4, "0.5"), (4, "float()"),
        (4, "math.log()")]
    calls = ast.parse("def f():\n    return [rootsys.build()]\n"
                      "class C:\n    def m(self):\n        build()\n"
                      "def g():\n    build\nx = build()\n")
    assert list(callers_of(calls, "build")) == ["f", "C", "<module>"]
