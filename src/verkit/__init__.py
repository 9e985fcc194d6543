"""Exact invariants of the symmetric tensor categories Ver_{p^n}.

The categories are built from tilting modules of SL2 in characteristic p
modulo the ideal of the n-th Steinberg module.  This package computes their
combinatorial skeleton with exact arithmetic: tilting characters and their
tensor products, decomposition and Cartan matrices by three independent
routes, block structure, Steinberg labels, Ext^1, cyclotomic
Frobenius-Perron dimensions, fusion rules, and stable Grothendieck rings.
Even the numeric values are exact: dyadic rationals within a stated bound,
from integer tables of q's powers, with no floating point anywhere.

Import policy: importing the package loads none of its modules.  Each name
in `__all__` is looked up in its defining module on first access (PEP 562),
so `from verkit import build` loads `catalog` and what it needs, and
`import verkit.cli` loads only the command line and `errors`.  Inside the package, an
import that only a build or a check needs sits in the function that needs
it, and numpy only in the functions that take or return arrays, so no warm
command line call and no passing build loads numpy: only a Cartan block
the certificate refuses, a dense view and `fold_projectives` do.  Nor
does a passing build load `dataclasses` (the records are NamedTuples and
plain classes) or `charring` (only the dense tilting characters import
it).  No module imports mpmath; the tests use it as an independent oracle.
"""

import importlib


# Defining module of each exported name.
_EXPORTS = {
    "catalog": ["CategoryData", "VerificationReport", "build", "verify_all"],
    "charring": ["SymChar", "dim_at_one", "frobenius_twist", "inner", "mul", "weyl_char", "weyl_expand"],
    "cyclo": ["CycloInt", "chebyshev_Q", "dim_simple", "fpdim_projective", "fpdim_simple", "qint"],
    "digits": [
        "block_partition",
        "cartan_descendant",
        "cartan_kronecker",
        "decomposition_matrix",
        "descendants",
        "ext1",
        "frobenius_on_simple",
        "simple_of_projective",
        "steinberg_label",
    ],
    "errors": [
        "BoundExceeded",
        "NegativeLeadingCoefficient",
        "OutOfRange",
        "UnsupportedPrime",
        "VerkitError",
    ],
    "grring": ["GrElement", "base_fusion", "fold_projectives", "fuse_simples", "tilting_class"],
    "linalg": ["smith_normal_form"],
    "tilting": [
        "TiltingSum",
        "decompose_tilting",
        "hom_dim",
        "invariant_dims",
        "series_fn",
        "tensor_decompose",
        "tilting_char",
        "truncate",
    ],
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
