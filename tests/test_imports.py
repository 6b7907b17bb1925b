"""Every name a module of the package imports is read in that module, and
the package exports the names it did when it imported every module.

Re-exports live in ``__init__.py``, which is skipped, and ``from
__future__`` imports bind no name that is read.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cupcalc

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cupcalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read, in order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_unused_imports_finds_what_is_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json.decoder\n"
        "from typing import List, Dict\n"
        "from . import linalg\n"
        "def f(x: List) -> int:\n"
        "    return json.decoder.scanstring and linalg.rank(x)\n"
    )
    assert unused_imports(source) == ["os", "osp", "Dict"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# The names ``import cupcalc`` bound when it imported every module eagerly,
# by the module that defines each.
EXPORTS = {
    "diagrams": """CapDiagram Cup CupDiagram DiagramError DiagramSet DiagramSyntaxError
        InvalidDiagramError Ray dot_parity_involution encode enumerate_diagrams from_json
        maximal_diagrams parse_dsl render validate""",
    "orientation": """ComponentDecomposition InconsistentOrientationError
        OrientedCircleDiagram Weight cup_of_weight decompose degree_zero_weight
        diagram_degree force_lines graded_orientations half_degree is_orientable
        is_oriented min_degree_element orient_circle_diagram orientations_of_cup""",
    "movegraph": """CupForest Move MoveGraph NoFiniteDistanceError boundary_census
        cell_census cup_forest distance free_cell_count geodesic_meet move_graph
        nesting_census predecessors successors total_order""",
    "ringcalc": """BasisDictionary CentreBasis GammaMap LinearMap NotOrientableError
        QuotientPresentation centre component_quotient diagram_basis_dictionary gamma_maps
        intersection_quotient restriction_maps""",
    "springer": """FixedPointTable GradedDimension MalformedIndexSetError PresentationRing
        UnequalRowShapeError arc_algebra_graded_dimension
        arc_algebra_graded_dimension_closed_form equivariant_specialization
        filtration_census fixed_point_table index_set_of_weight presentation_ring
        weight_of_index_set""",
    "tableaux": """Bitableau Cluster Domino DominoTableau InadmissibleShapeError
        NotStandardError STable ShapeMismatchError SignedDominoTableau bitableau_of_cup
        cl_class clusters cup_of_bitableau cup_to_stable cups_to_std cyc cyc_inverse
        domino_tableau enumerate_adt enumerate_dt enumerate_signed enumerate_stables
        from_cup is_admissible signed_domino_tableau stable stable_to_cup std_to_cups
        to_cup""",
    "selftest": "SelfTestReport selftest",
}


def test_package_exports_the_names_it_bound():
    assert cupcalc.__all__ == [name for names in EXPORTS.values() for name in names.split()]


@pytest.mark.parametrize("module", EXPORTS)
def test_each_export_is_its_modules_object(module):
    submodule = importlib.import_module(f"cupcalc.{module}")
    for name in EXPORTS[module].split():
        assert getattr(cupcalc, name) is getattr(submodule, name)
    # the function ``selftest`` keeps the name of its module
    assert getattr(cupcalc, module) is (submodule if module != "selftest" else submodule.selftest)


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
        cupcalc.frobnicate


def test_readme_library_example_gives_its_commented_values():
    """The README's "Library example" runs in a fresh interpreter, and
    each line whose comment is a Python literal evaluates to it."""
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    checks = {}
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        try:
            checks[code.strip()] = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            pass  # no comment, or one in words
    assert len(checks) == 4
    path = [str(PACKAGE.parent), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    done = subprocess.run(
        [sys.executable, "-c", block + f"print(repr([{', '.join(checks)}]))\n"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1"),
    )
    assert done.returncode == 0, done.stderr
    assert ast.literal_eval(done.stdout) == list(checks.values())
