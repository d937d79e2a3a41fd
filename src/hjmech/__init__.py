"""hjmech: symbolic-numeric tools for higher-order mechanics.

The package works on the higher-order tangent bundles T^k Q of an
n-dimensional configuration space, with jet coordinates ``q<i>_<A>``
(order i, axis A, so q0_1 is the first position and q1_1 its velocity)
and, on the phase space T*(T^(k-1)Q), momenta ``p<i>_<A>``.  From a
Lagrangian on T^k Q it derives the Cartan forms, the energy, the
dynamical fields, and the Legendre transform; checks candidate
solutions of the associated Hamilton-Jacobi problems on both the
Lagrangian and Hamiltonian sides; and integrates the resulting fields
numerically.  The ``hjmech`` command line drives everything from
line-oriented model files.

``hjmech.hamiltonian`` is the submodule; calling it calls the function
``hamiltonian.hamiltonian``, so ``hjmech.hamiltonian(sys, fl)`` gives h
and ``import hjmech.hamiltonian`` gives the module.
"""

from .expr import (
    Constant,
    Coordinate,
    DomainEvalError,
    ExprError,
    ExprSyntaxError,
    Expression,
    SymbolTable,
    UnboundSymbolError,
    UnknownSymbolError,
    diff,
    evaluate,
    jet,
    momentum,
    parse,
    placeholder,
    probably_equal,
    substitute,
)
from .jets import Curve, JetError, JetSpace, VectorField, sample_curve
from .forms import (
    CoordMap,
    FormError,
    OneFormField,
    TwoFormField,
    contract,
    differential,
    exterior_derivative,
    pair,
    three_form_coefficients,
    wedge,
)
from .lagrangian import (
    CartanData,
    HessianResult,
    LagrangianError,
    LagrangianSystem,
    SemisprayField,
)
from .hamiltonian import (
    HamiltonianError,
    HamiltonianSystem,
    LegendreMap,
    PhaseSpace,
    hamiltonian_field,
    legendre,
    poisson,
)
from .hj import (
    GENERALIZED,
    NOT_A_SOLUTION,
    STRICT,
    CompleteSolutionFamily,
    DegenerateFamilyError,
    GeneratingFunction,
    HJError,
    OneForm,
    ResidualEntry,
    ResidualReport,
    Section,
    associated_field,
    classify,
    combine,
    gen_ham_residuals,
    gen_lag_residuals,
    ham_closedness,
    ham_energy_residuals,
    hj_equation,
    involution_check,
    lag_closedness,
    lag_energy_residuals,
    lag_genfunc_residuals,
    transport,
)
from .numeric import (
    GradientCheck,
    LiftingResult,
    NumericError,
    Trajectory,
    fd_gradient_check,
    integrate,
    verify_lifting,
)
from .model import ModelFile, ModelError, dumps, load, loads

__version__ = "0.1.0"

__all__ = [
    "CartanData",
    "CompleteSolutionFamily",
    "Constant",
    "CoordMap",
    "Coordinate",
    "Curve",
    "DegenerateFamilyError",
    "DomainEvalError",
    "ExprError",
    "ExprSyntaxError",
    "Expression",
    "FormError",
    "GENERALIZED",
    "GeneratingFunction",
    "GradientCheck",
    "HJError",
    "HamiltonianError",
    "HamiltonianSystem",
    "HessianResult",
    "JetError",
    "JetSpace",
    "LagrangianError",
    "NOT_A_SOLUTION",
    "LagrangianSystem",
    "LegendreMap",
    "LiftingResult",
    "ModelError",
    "ModelFile",
    "NumericError",
    "OneForm",
    "OneFormField",
    "PhaseSpace",
    "ResidualEntry",
    "ResidualReport",
    "STRICT",
    "Section",
    "SemisprayField",
    "SymbolTable",
    "Trajectory",
    "TwoFormField",
    "UnboundSymbolError",
    "UnknownSymbolError",
    "VectorField",
    "associated_field",
    "classify",
    "combine",
    "contract",
    "diff",
    "differential",
    "dumps",
    "evaluate",
    "exterior_derivative",
    "fd_gradient_check",
    "gen_ham_residuals",
    "gen_lag_residuals",
    "ham_closedness",
    "ham_energy_residuals",
    "hamiltonian",
    "hamiltonian_field",
    "hj_equation",
    "integrate",
    "involution_check",
    "jet",
    "lag_closedness",
    "lag_energy_residuals",
    "lag_genfunc_residuals",
    "legendre",
    "load",
    "loads",
    "momentum",
    "pair",
    "parse",
    "placeholder",
    "poisson",
    "probably_equal",
    "sample_curve",
    "substitute",
    "three_form_coefficients",
    "transport",
    "verify_lifting",
    "wedge",
]
