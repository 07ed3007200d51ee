"""Guards on the package as a whole: standard-library imports only, no unused import,
a pinned export list, the modules each CLI command loads, a pinned set of process-wide caches, one
int rule for every public integer argument, and no public name that only the tests reach."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import hyperoct
from helpers import cold_warm_differences, integer_probe
from hyperoct.orbit import make_config

SOURCE = Path(hyperoct.__file__).parent

EXPORTS = [
    "BasisElement", "ConfigError", "CriterionBasis", "DegenerateRadiusSystem", "DesignConfig",
    "FeasibilityResult", "FisherBound", "GegenbauerPoly", "Layer", "OrbitSizeError", "Polynomial",
    "StrengthReport", "as_rational", "binomial", "building_block_g", "classify", "criterion_basis",
    "double_factorial", "embed", "first_failure", "fisher_bound", "five_design_possible",
    "format_rational", "full_basis", "fully_even_subset", "g_function", "gegenbauer", "is_tight",
    "layer_sum_f42", "layer_sum_f63", "layer_sum_f82", "layer_sum_f84", "make_config",
    "max_strength_oracle", "monomial_residual", "orbit_size", "property_g",
    "seven_design_possible", "solve_radius_Q", "solve_t5", "solve_t7", "sphere_monomial_average",
    "tau", "tau_table", "tight_5_3d", "tight_7_3d", "tight_7_4d", "tightness_certificate",
    "verify_strength",
]


def test_imports_are_relative_or_standard_library():
    outside = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside


def test_source_parses_at_the_declared_python_floor():
    # the tests run on a newer Python than the declared floor, so syntax added since,
    # such as 3.11's except*, must be refused here
    assert 'requires-python = ">=3.10"' in (SOURCE.parents[1] / "pyproject.toml").read_text()
    for path in sorted(SOURCE.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_every_import_is_used():
    # __init__.py imports names only to re-export them
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in imported if name not in used]
    assert not unused


def test_export_list_is_pinned():
    # adding or removing a public name is deliberate: update this list and the README.  The
    # package root loads each name on first use, from the submodule its table names
    assert sorted(hyperoct.__all__) == EXPORTS
    assert set(dir(hyperoct)) >= set(EXPORTS)
    for name in EXPORTS:
        value = getattr(hyperoct, name)
        assert not isinstance(value, types.ModuleType)
        assert value.__module__ == f"hyperoct.{hyperoct._MODULE_OF[name]}"
    with pytest.raises(AttributeError):
        hyperoct.no_such_name


# The hyperoct modules each documented CLI command loads, beyond the package root, cli,
# numeric and orbit; start-up is paid in every fresh interpreter, so a new eager import
# has to change this table.  No command loads `dataclasses`, nor the `inspect` it imports
UNLOADED_STDLIB = ("dataclasses", "inspect")
COMMAND_MODULES = {
    ("orbit", "--n", "4", "--k", "2"): set(),
    ("classify", "--config", "{path}"): {"strength"},
    ("property-g", "--max", "50"): {"strength"},
    ("tau", "--n", "10"): {"solver", "strength"},
    ("solve", "--n", "5", "--J", "1,3", "--t", "5"): {"solver", "strength"},
    ("solve", "--n", "5", "--J", "1,2,4", "--t", "7"): {"solver", "strength"},
    ("verify", "--config", "{path}", "--t", "5"): {"moments"},
    ("fisher", "--n", "3", "--p", "2", "--t", "5"): {"tight"},
    ("tight", "--family", "5-3d", "--r2", "1", "--rho2", "2"): {"moments", "solver", "strength", "tight"},
    ("basis", "--n", "3", "--s", "4"): {"harmonic", "poly"},
}
_LOADED = "sorted(m for m in sys.modules if m.startswith('hyperoct'))"


def _fresh_interpreter(code: str, *argv: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_import_of_the_package_loads_no_submodule():
    assert _fresh_interpreter(f"import json, sys, hyperoct; print(json.dumps({_LOADED}))") == ["hyperoct"]


def test_each_command_loads_only_what_it_runs(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(make_config(3, [(1, 1, 1), (3, 2, 1)]).to_json())
    code = (
        "import contextlib, io, json, sys\n"
        "from hyperoct.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    exit_code = main(sys.argv[1:])\n"
        f"print(json.dumps([exit_code, {_LOADED}, [m for m in {UNLOADED_STDLIB!r} if m in sys.modules]]))"
    )
    base = {"hyperoct", "hyperoct.cli", "hyperoct.numeric", "hyperoct.orbit"}
    for argv, modules in COMMAND_MODULES.items():
        exit_code, loaded, stdlib = _fresh_interpreter(code, *(arg.format(path=path) for arg in argv))
        assert exit_code in (0, 1), argv
        assert set(loaded) == base | {f"hyperoct.{m}" for m in modules}, argv
        assert stdlib == [], argv


def test_one_process_wide_cache():
    # a cache pins memory for the life of the process and can answer a call its gates
    # would refuse; a new one has to be measured and then added here.  The package root
    # only re-exports
    cached = set()
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"hyperoct.{path.stem}")
        cached |= {
            f"{value.__module__}.{value.__qualname__}"
            for value in vars(module).values() if callable(value) and hasattr(value, "cache_info")
        }
    assert cached == {
        "hyperoct.moments._layer_residual", "hyperoct.moments._partitions", "hyperoct.solver._column",
        "hyperoct.strength._criterion_sums",
    }


def test_every_public_dimension_answers_the_same_cold_and_warm():
    # sixteen entries at ten dimensions, normal and hostile, and monomial_residual at three
    # exponent tuples, each called with every cache cleared and again after a fixed warm
    # history: a cache must never answer a call that the cold path refuses (Fraction(5)
    # hashes like 5, and (2.0, 0, 0, 0) sorts and hashes like (2, 0, 0, 0))
    assert cold_warm_differences() == []


def test_no_integer_argument_answers_a_float_a_fraction_or_a_bool():
    # every probe call raises ValueError for 2.0, Fraction(2) and True, but for the documented
    # exception: a bool exponent is an exact 0 or 1, and testing each exponent costs a warm
    # monomial_residual about 7% (README)
    assert [line.partition(":")[0] for line in integer_probe()] == [
        "monomial_residual(tight_7_4d(1, 2, 1), (v, v, 0, 0)) with v=True",
        "sphere_monomial_average(4, (v, v, 0, 0), 1) with v=True",
    ]


def _is_int_type_test(node) -> bool:
    """Whether node is a comparison ``type(...) is int`` or ``type(...) is not int``."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Call) and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(isinstance(other, ast.Name) and other.id == "int" for other in node.comparators)
    )


def test_the_int_rule_is_written_once():
    # numeric.integer is the one type test of a public integer argument.  as_rational
    # follows the rational rule and raises TypeError; _json_int raises the ConfigError
    # that golden rows pin
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        # breadth first, so a nested function's name overwrites the one around it
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        found |= {(path.stem, owner.get(id(node), "<module>")) for node in ast.walk(tree) if _is_int_type_test(node)}
    assert found == {("numeric", "integer"), ("numeric", "as_rational"), ("orbit", "_json_int")}


def _referenced_names(node) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_no_public_name_is_reached_only_from_tests():
    # code that only tests use belongs in tests/helpers.py.  A public function, class or
    # method counts as used when other src/ code names it (its own definition and the
    # re-exports of __init__.py do not count), when bench/ code names it, or when the
    # README names it outside its list of removed names
    root = SOURCE.parents[1]
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"
    }
    in_src = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    readme = (root / "README.md").read_text().split("### Removed from the public API")[0]
    outside = "\n".join([readme, *(path.read_text() for path in sorted((root / "bench").glob("*.py")))])
    unreached = []
    for module, tree in trees.items():
        members = [
            (node, node.name) for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        members += [
            (method, f"{node.name}.{method.name}")
            for node in tree.body if isinstance(node, ast.ClassDef)
            for method in node.body if isinstance(method, ast.FunctionDef)
        ]
        for node, qualname in members:
            name = node.name
            used_in_src = in_src[name] > _referenced_names(node)[name]
            if not (name.startswith("_") or used_in_src or re.search(rf"\b{name}\b", outside)):
                unreached.append(f"{module}:{qualname}")
    assert not unreached
