"""Exact rational computations with weak Lie 2-algebras.

The package represents two-term structures whose skew-symmetry and Jacobi
identity hold only up to coherent homotopies, checks every defining identity
exactly, and implements the constructions around them: the correspondence
with linear categories, morphism calculus, skew-symmetrization onto
semistrict structures, the degree-3 classification cohomology with its
comparison map to Chevalley-Eilenberg cohomology, homotopy transfer to
skeletal models, and derived-bracket symmetry structures of Maurer-Cartan
elements in graded Lie algebras.
"""

from .exactla import (
    Rat,
    ShapeError,
    Subspace,
    SubspaceError,
    contract,
    full_space,
    identity,
    image_basis,
    kernel_basis,
    matrix,
    membership,
    quotient,
    rat,
    rref,
    tensor,
    vector,
    zeros,
)
from .dkcore import (
    Arrow,
    BilinearBracket,
    ChainHomotopy,
    ChainMap,
    CompositionError,
    LinearCategory,
    TwoTermComplex,
    compose_arrows,
    crossed_module_report,
    gamma,
    hodge_decompose,
    is_quasi_iso,
    normalize,
)
from .el2 import (
    EL2Algebra,
    InvalidStructureError,
    LeibnizAlgebraFD,
    LieAlgebraFD,
    PairingError,
    RepresentationFD,
    categorical_coherence_check,
    check_el2,
    from_leibniz,
    from_quadratic_lie,
    from_skeletal_cocycle,
    is_hemistrict,
    is_semistrict,
    is_strict,
    string_2_algebra,
)
from .morph import (
    ELMorphism,
    ELTwoMorphism,
    check_2morphism,
    check_morphism,
    compose,
    horizontal_compose,
    identity_morphism,
    is_equivalence,
    vertical_compose,
)
from .skew import skew_symmetrize, skew_symmetrize_2morphism, skew_symmetrize_morphism
from .cohom import (
    CocycleError,
    CocyclePair,
    TransferError,
    ce_h3,
    classes_equal,
    coboundary,
    exact_sequence_report,
    extract_class,
    hl3,
    is_cocycle,
    ss_class,
    transfer_to_skeletal,
)
from .defo import (
    DegreeError,
    GradedL3Algebra,
    MaurerCartanError,
    check_graded,
    inner_symmetries_n2,
    inner_symmetries_n3,
    mc_residual,
    symmetry_action_residual,
    theorem_n3_report,
    twist,
)
from .documents import MCProblem, ParseError, parse, serialize
from .report import CheckReport, Violation

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
