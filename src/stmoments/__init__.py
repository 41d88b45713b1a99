"""Desk-scale computation and verification lab for moment statistics of the
Sato-Tate error over families of elliptic curves y^2 = x^3 + ax + b.

The package computes curve-family statistics exactly where exactness is
possible (trace grids, class numbers, Hecke traces, combinatorial
expansions) and cross-checks every identity the moment machinery rests on
through independent routes; see the README for the layout.
"""

from .arith_curves import (
    ApTable,
    CurveParams,
    Interval,
    PrimeWindow,
    Reduction,
    SumCondition,
    TraceValue,
    ap_table,
    count_in_interval,
    curve_ap,
    legendre,
    primes_in_window,
)
from .chebycomb import (
    PowerPoly,
    a_lk,
    f_eval,
    f_poly,
    gaussian_moment_constant,
    melzak_eval,
    partition_coeff,
    set_partitions,
    u_product_expand,
)
from .classnumbers import (
    HurwitzTable,
    ReducedForm,
    build_hurwitz_table,
    eichler_mass,
    family_moment_classnum,
    hurwitz,
    hurwitz_table,
    reduced_forms,
)
from .errors import BudgetError
from .family_averages import (
    FactoredInteger,
    box_average,
    s0_brute,
    s0_formula,
    s12,
    s_grid_brute,
    s_multiplicative,
)
from .hecke import (
    TraceRecord,
    TraceStore,
    delta_qexp,
    dim_cusp_forms,
    hecke_trace,
    miller_basis,
    normalized_trace,
    trace_average_probe,
    traces_via_birch,
)
from .moments_engine import (
    CltSample,
    MomentPlan,
    MomentReport,
    Profile,
    almost_all_report,
    clt_histogram,
    error_term,
    family_moments,
    hypothesis2_probe,
    moment_via_expansion,
    psum_moment_direct,
)
from .st_approx import (
    BSCoefficients,
    CoeffMode,
    exact_st_coeffs,
    p_polynomial_sum,
    parseval_check,
    profile_M,
    sandwich_coeffs,
    sandwich_error_bound,
    st_measure,
)

__version__ = "0.1.0"
