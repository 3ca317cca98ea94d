"""Exact-arithmetic decision engine for isotropic almost-simple groups
over Q: rank computation, minimality verdicts, and independently verified
witness subgroups, plus root-system verification suites.

The names below are re-exported lazily (PEP 562): `import almin` loads no
submodule, and `almin.analyze` imports `almin.minimal` when it is first read."""

import importlib

_HOMES = {
    "arith": "FinitePrime Place REAL RealPlace hilbert_symbol"
    " is_rational_square relevant_places squarefree_part",
    "quadform": "DiagForm QuadForm SearchExhausted WittDecomposition diagonalize"
    " find_isotropic_vector is_isotropic represent_constrained signature"
    " witt_decompose witt_index",
    "numfield": "NumberFieldCert QuadElement QuadraticField SubfieldCert"
    " compositum_quadratic field_cert quadratic_field_cert"
    " quadratic_subfields_of_quartic verify_subfield",
    "algebra": "HermForm QuatForm QuatSecondKindForm QuaternionAlgebra"
    " find_splitting_quadratic is_division is_ramified_at_infinity ramification_set",
    "qgroup": "GroupSpec NotAlmostSimple Orthogonal RankProfile ResSL2 ResSU3"
    " SpecialLinear Symplectic Unitary1 Unitary2 Unitary2Quat Unsupported"
    " is_absolutely_almost_simple q_rank rank_profile real_rank",
    "minimal": "Minimal NotApplicable NotMinimal UnsupportedVerdict Verdict analyze",
    "verify": "VerifyReport Witness verify_witness",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
