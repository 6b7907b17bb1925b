"""Decorated cup-diagram calculus.

Diagram enumeration and rendering, orientations and degrees, the local
move graph with its cup forests and cell censuses, exact quotient-ring
cohomology (component rings, intersections, the equalizer centre and
presentation rings with their deformations), fixed-point tables, and
the full stack of two-row domino-tableau bijections.

Importing the package loads none of its modules.  Each name of
``__all__`` and each module of ``_EXPORTS`` is imported on first access
(PEP 562), so ``from cupcalc import parse_dsl`` loads only ``diagrams``
and what it imports.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Every module of the library, with the names the package exports from it.
_EXPORTS = {
    "diagrams": """CapDiagram Cup CupDiagram DiagramError DiagramSet DiagramSyntaxError
        InvalidDiagramError Ray dot_parity_involution encode enumerate_diagrams from_json
        maximal_diagrams parse_dsl render validate""".split(),
    "orientation": """ComponentDecomposition InconsistentOrientationError
        OrientedCircleDiagram Weight cup_of_weight decompose degree_zero_weight
        diagram_degree force_lines graded_orientations half_degree is_orientable
        is_oriented min_degree_element orient_circle_diagram orientations_of_cup""".split(),
    "movegraph": """CupForest Move MoveGraph NoFiniteDistanceError boundary_census
        cell_census cup_forest distance free_cell_count geodesic_meet move_graph
        nesting_census predecessors successors total_order""".split(),
    "ringcalc": """BasisDictionary CentreBasis GammaMap LinearMap NotOrientableError
        QuotientPresentation centre component_quotient diagram_basis_dictionary gamma_maps
        intersection_quotient restriction_maps""".split(),
    "springer": """FixedPointTable GradedDimension MalformedIndexSetError PresentationRing
        UnequalRowShapeError arc_algebra_graded_dimension
        arc_algebra_graded_dimension_closed_form equivariant_specialization
        filtration_census fixed_point_table index_set_of_weight presentation_ring
        weight_of_index_set""".split(),
    "tableaux": """Bitableau Cluster Domino DominoTableau InadmissibleShapeError
        NotStandardError STable ShapeMismatchError SignedDominoTableau bitableau_of_cup
        cl_class clusters cup_of_bitableau cup_to_stable cups_to_std cyc cyc_inverse
        domino_tableau enumerate_adt enumerate_dt enumerate_signed enumerate_stables
        from_cup is_admissible signed_domino_tableau stable stable_to_cup std_to_cups
        to_cup""".split(),
    "selftest": ["SelfTestReport", "selftest"],
    "linalg": [],
    "errors": [],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
        value = globals()[name] = getattr(module, name)  # read here from now on
        return value
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading a submodule binds it here by name; the function
        # ``selftest`` keeps that name over its module, as in ``__all__``.
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
