"""Exact-arithmetic toolkit for derivations and local derivations of
structure-constant Lie algebras."""

from importlib import import_module

from .exactfield import (
    FIELD_Q,
    FIELD_QI,
    Field,
    FieldMismatchError,
    GaussianRational,
    format_scalar,
    inv,
)
from .linalg import Matrix, Subspace
from .liealg import (
    AlgebraElement,
    JacobiError,
    LieAlgebra,
    check_jacobi,
    load,
    make_abelian,
    make_heisenberg,
    make_sl2,
    save,
)
from .dersolve import (
    DerivationSpace,
    LeibnizError,
    derivation_space,
    inner_space,
    is_derivation,
)
from .locder import (
    CandidateSpace,
    CertificationError,
    Probe,
    basis_probe_space,
    constrain,
    fold,
    random_probe_closure,
)
from .schrodinger import (
    make_schrodinger,
    make_schrodinger_labels,
    replay_proof,
    schrodinger_rank,
    schrodinger_trimmed_schedule,
)

__version__ = "0.1.0"

# the module of each name bound on first use only, so that
# `import liederiv.cli` compiles neither the certifier (and poly) nor the
# structure of Der(S_n)
_LAZY = {
    "LocalityCertificate": "certifier",
    "certify_local_symbolic": "certifier",
    "witness": "certifier",
    "DerDecomposition": "schrodinger_der",
    "asos_shape_check": "schrodinger_der",
    "decompose": "schrodinger_der",
    "sigma": "schrodinger_der",
    "tau": "schrodinger_der",
}


def __getattr__(name: str):
    # PEP 562: called for a name the imports above do not bind
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)
