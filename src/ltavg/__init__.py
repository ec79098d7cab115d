"""Prime-splitting statistics of Galois number fields, Hurwitz class numbers,
traces of Frobenius, and the average trace-multiplicity constant, with
desk-scale experiment runners."""

import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read as numpy loads; more threads oversubscribe forked workers

from .classnumber import (
    L1_formula,
    class_number_h,
    hurwitz_H,
    is_valid_discriminant,
    kronecker,
    unit_count_w,
)
from .curves import (
    CurveModel,
    ReducedCurve,
    SmallField,
    aut_size,
    isogeny_mass_oracle,
    isomorphism_orbit,
    trace_mod_p,
    trace_mod_q,
)
from .experiments import (
    CurveBox,
    box_average,
    box_variance,
    count_box_reductions,
    count_box_reductions_pair,
    deuring_check,
    pi_E_rf,
)
from .ltconstant import (
    ConstantEstimate,
    constant_product,
    constant_sum,
    finite_product_factor,
    local_factor_2,
    pi_half,
)
from .numberfield import (
    DegreeFPrime,
    GaloisFieldSpec,
    degree_f_primes,
    empirical_norm_residues,
    parse_field,
)
from .report import ExperimentReport

__version__ = "0.1.0"

__all__ = [
    "ConstantEstimate",
    "CurveBox",
    "CurveModel",
    "DegreeFPrime",
    "ExperimentReport",
    "GaloisFieldSpec",
    "L1_formula",
    "ReducedCurve",
    "SmallField",
    "aut_size",
    "box_average",
    "box_variance",
    "class_number_h",
    "constant_product",
    "constant_sum",
    "count_box_reductions",
    "count_box_reductions_pair",
    "degree_f_primes",
    "deuring_check",
    "empirical_norm_residues",
    "finite_product_factor",
    "hurwitz_H",
    "is_valid_discriminant",
    "isogeny_mass_oracle",
    "isomorphism_orbit",
    "kronecker",
    "local_factor_2",
    "parse_field",
    "pi_E_rf",
    "pi_half",
    "trace_mod_p",
    "trace_mod_q",
    "unit_count_w",
]
