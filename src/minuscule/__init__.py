"""Exact-arithmetic engine for rotation of minuscule Littelmann paths,
tableau promotion, crystal commutors, Kostka-Foulkes polynomials, and
cyclic-sieving verification."""

from .errors import InvalidWeight, MinusculeError
from .rootsys import (
    RootSystem,
    apply_word,
    build_root_system,
    dual_index,
    in_root_lattice,
    minuscule_weights,
    simple_reflection,
    to_dominant,
    two_rho_pairing,
    weyl_orbit,
)
from .poly import IntPolynomial
from .paths import (
    LittelmannPath,
    OrbitStructure,
    WeightSequence,
    enumerate_paths,
    orbit_structure,
    rotate,
    rotate_all,
)
from .crystals import (
    TensorCrystalElement,
    commutor_rotate,
    crystal_op,
    invariant_elements,
    path_bijection,
    schutzenberger,
    schutzenberger_all,
)
from .tableaux import RowStrictTableau, path_to_tableau, promote, tableau_to_path
from .kostka import charge, invariant_dim, kostka_foulkes, q_kostant
from .csp import CSPReport, csp_check, cyclotomic, eval_matches, type_a_csp_polynomial

__version__ = "0.1.0"

__all__ = [
    "InvalidWeight",
    "MinusculeError",
    "RootSystem",
    "apply_word",
    "build_root_system",
    "dual_index",
    "in_root_lattice",
    "minuscule_weights",
    "simple_reflection",
    "to_dominant",
    "two_rho_pairing",
    "weyl_orbit",
    "IntPolynomial",
    "LittelmannPath",
    "OrbitStructure",
    "WeightSequence",
    "enumerate_paths",
    "orbit_structure",
    "rotate",
    "rotate_all",
    "TensorCrystalElement",
    "commutor_rotate",
    "crystal_op",
    "invariant_elements",
    "path_bijection",
    "schutzenberger",
    "schutzenberger_all",
    "RowStrictTableau",
    "path_to_tableau",
    "promote",
    "tableau_to_path",
    "charge",
    "invariant_dim",
    "kostka_foulkes",
    "q_kostant",
    "CSPReport",
    "csp_check",
    "cyclotomic",
    "eval_matches",
    "type_a_csp_polynomial",
]
