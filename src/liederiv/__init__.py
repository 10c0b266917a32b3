"""Exact-arithmetic toolkit for derivations and local derivations of
structure-constant Lie algebras."""

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
    DerDecomposition,
    asos_shape_check,
    decompose,
    make_schrodinger,
    make_schrodinger_labels,
    replay_proof,
    schrodinger_rank,
    schrodinger_trimmed_schedule,
    sigma,
    tau,
)

__version__ = "0.1.0"


def _certifier_export(name: str):
    # the certifier's names load it (and poly) on first use only, so that
    # `import liederiv.cli` compiles neither
    if name in ("LocalityCertificate", "certify_local_symbolic", "witness"):
        from .certifier import LocalityCertificate, certify_local_symbolic, witness

        return vars()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# PEP 562: called for a name the imports above do not bind
__getattr__ = _certifier_export
