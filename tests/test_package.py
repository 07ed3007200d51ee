"""Guards on the package as a whole: standard-library imports only, no unused import,
a pinned export list, and no public name that only the tests reach."""

import ast
import re
import sys
import types
from collections import Counter
from pathlib import Path

import hyperoct

SOURCE = Path(hyperoct.__file__).parent

EXPORTS = [
    "BasisElement", "ConfigError", "CriterionBasis", "DegenerateRadiusSystem", "DesignConfig",
    "FeasibilityResult", "FisherBound", "GegenbauerPoly", "Layer", "OrbitSizeError", "Polynomial",
    "StrengthReport", "as_rational", "binomial", "building_block_g", "classify", "criterion_basis",
    "double_factorial", "embed", "first_failure", "fisher_bound", "five_design_possible",
    "format_rational", "full_basis", "fully_even_subset", "g_function", "gegenbauer", "is_tight",
    "layer_sum_f42", "layer_sum_f63", "layer_sum_f82", "layer_sum_f84", "make_config",
    "max_strength_oracle", "monomial_residual", "orbit_size", "orbit_sum", "property_g",
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
    # adding or removing a public name is deliberate: update this list and the README
    exported = sorted(
        name for name, value in vars(hyperoct).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == EXPORTS


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
