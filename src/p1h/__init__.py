"""Exact-arithmetic classification and certification of naive homotopy
classes of rational functions over Q and prime fields.

The core objects are pointed rational functions (a monic numerator and a
lower-degree denominator with unit resultant), their addition law by
unimodular 2x2 matrix products, and the symmetric bilinear form attached
to each function whose stable class plus exact determinant classifies the
homotopy classes completely.  Certificates are explicit k[T]-paths that an
independent verifier re-checks from scratch, and an exhaustive
finite-field oracle cross-validates every classification claim.
"""

from .fields import GF, QQ, FieldError, PrimeField, Rationals, field_from_name
from .poly import (
    Poly,
    PolyRing,
    X,
    bezout_pair,
    const,
    laurent_expand,
    poly,
    poly_divmod,
    poly_gcd,
    poly_str,
    poly_xgcd,
    resultant_nn,
    zero,
)
from .ratmap import (
    CFExpansion,
    PointedRat,
    RejectedPath,
    RejectedPoint,
    UnpointedRat,
    cf_assemble,
    cf_expand,
    cf_values,
    compose,
    eval_path,
    ga_act,
    identity_point,
    mk_pointed,
    mk_unpointed,
    monomial_sum,
    normalize_unpointed,
    oplus,
    phi_n,
    pointed_from_pair,
    poly_point,
    unpointed_of_pointed,
    x_over,
)
from .bezout_hankel import (
    HankelMatrix,
    SymMatrix,
    bezout_form,
    f2_iso,
    f2_iso_inv,
    hankel_of,
    psi_n,
)
from .quadform import (
    REAL_PLACE,
    BlockNormalForm,
    DiagForm,
    WittInvariant,
    diagonalize,
    hermite_reduce,
    hilbert_symbol,
    kt_short_vector,
    stable_equal,
    stable_invariant,
    tensor_diag,
)
from .classify import (
    PdPoint,
    PointedInvariant,
    UnpointedInvariant,
    compose_invariant,
    mk_pd,
    pd_equiv,
    pointed_difference,
    pointed_equiv,
    pointed_invariant,
    sum_invariant,
    unpointed_equiv,
    unpointed_invariant,
)
from .certify import (
    EXHAUSTED,
    Certificate,
    NotEquivalent,
    connect,
    diag_chain,
    lift_chain_to_cert,
    normal_form_cert,
    pd_cert,
    reverse_certificate,
    unpointed_connect,
    verify,
)
from .oracle import ComponentReport, CrossCheckReport, EnumSpec, components, cross_check
from .expr import parse_poly, parse_ratfun, parse_ratfun_sum, format_ratfun

__version__ = "0.1.0"
