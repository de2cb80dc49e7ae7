"""Centralizers of involutions in Coxeter groups, via conjugation certificates.

For any involution w the library computes a pair (I, u) with u w u^-1 the
longest element of a (-1)-type standard parabolic W_I, so that
Z_W(w) = u^-1 N_W(W_I) u.  On finite groups the identity is verified by
exhaustion, on index tables over the enumerated group: normalizers from one
conjugation pass per generator, and for each (-1)-type subset every member
of N_W(W_I) must commute with rho_I, with
|N_W(W_I)| |class of rho_I| = |W|; an involution's identity is its
certificate's subset's, once u w u^-1 = rho_I.  All arithmetic is exact.
"""

from .scalar import AlgebraicScalar, FieldContext, FieldDegreeError
from .group import (
    CoxeterContext,
    GroupElement,
    word_from_string,
    word_to_string,
)
from .involution import (
    InvolutionCertificate,
    involution_certificate,
    is_finite_parabolic,
    is_involution,
    is_minus_one_type,
    longest_element,
    negated_simples,
)
from .finite import (
    DEFAULT_ENUMERATION_CAP,
    ElementSet,
    EnumerationCapExceeded,
    FiniteGroup,
    InfiniteGroupError,
    centralizer,
    enumerate_group,
    involution_classes,
    involutions,
    normalizer,
    verify_centralizer_certificate,
    verify_centralizer_is_normalizer,
    verify_suite,
)
from . import catalog

__all__ = [
    "AlgebraicScalar",
    "FieldContext",
    "FieldDegreeError",
    "CoxeterContext",
    "GroupElement",
    "word_from_string",
    "word_to_string",
    "InvolutionCertificate",
    "involution_certificate",
    "is_finite_parabolic",
    "is_involution",
    "is_minus_one_type",
    "longest_element",
    "negated_simples",
    "DEFAULT_ENUMERATION_CAP",
    "ElementSet",
    "EnumerationCapExceeded",
    "FiniteGroup",
    "InfiniteGroupError",
    "centralizer",
    "enumerate_group",
    "involution_classes",
    "involutions",
    "normalizer",
    "verify_centralizer_certificate",
    "verify_centralizer_is_normalizer",
    "verify_suite",
    "catalog",
]
