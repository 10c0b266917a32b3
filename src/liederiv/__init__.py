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
    LocalityCertificate,
    Probe,
    basis_probe_space,
    certify_local_symbolic,
    constrain,
    fold,
    random_probe_closure,
    witness,
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
