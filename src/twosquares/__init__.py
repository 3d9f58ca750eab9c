"""Empirical toolkit for detecting sums of two squares in admissible tuples
with a half-dimensional Maynard-Tao sieve, plus the sphere-shell
eigenfunction constructions on flat tori that the detection enables.

Everything the underlying estimates assert numerically is recomputed
directly (exact integer or rational arithmetic wherever possible) and
compared against the predicted main terms; see the demos/ scripts for
worked examples of each capability.
"""

from .arith import (
    FactorTable,
    Factorization,
    build_factor_table,
    chi4,
    euler_phi,
    g_function,
    is_sum_of_two_squares,
    mobius,
    r2,
    r2_lattice_range,
    r2_on,
    ramanujan_sum,
    rd_bruteforce,
    rd_square_identity,
    sigma,
    tau_k,
)
from .constants import ConstantEstimate, landau_ramanujan_A, special_constants
from .errors import InternalError, ResourceGuardError, ValidationError
from .hooley import rho, rho_on, t_weight
from .ap_sums import APQuery, run_experiment
from .aux_sums import AuxParams
from .report import CorrelationReport
from .sieve import (
    AdmissibleTuple,
    SieveParams,
    TestFunctionSpec,
    WeightTable,
    check_admissible,
    enumerate_support,
    find_v0,
    functional_value,
    lambda_from_F,
    s_direct,
    s_predicted,
    y_from_lambda,
)
from .bins import (
    BinPartition,
    Witnesses,
    jakobson_tuple,
    pigeonhole_extract,
    second_moment_lhs,
    theorem_constants,
    witness_search,
)
from .quantum import (
    CoefficientFamily,
    FamilyInputs,
    SphereShell,
    b_tau,
    build_family,
    ctau_limit,
    enumerate_shell,
)

__version__ = "0.1.0"
