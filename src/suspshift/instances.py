"""Canonical experiment instances: the Sturmian(sqrt(2)-1) base with the
constant sqrt(2) roof, and marker searches tuned to the two-valued and
marked-binary recodings on it."""

from __future__ import annotations

from fractions import Fraction

from suspshift.quadratic import qr, sqrt_d
from suspshift.recode import (
    _choose_two_valued_pair,
    find_marker_with_feasible_gaps,
    marked_pair,
    recode_marked_binary,
    recode_two_valued,
)
from suspshift.subshifts import Sturmian
from suspshift.suspension import Roof, SuspensionFlow


def sturmian_root2_flow() -> SuspensionFlow:
    return SuspensionFlow(Sturmian(sqrt_d(2) - 1), Roof.constant(sqrt_d(2)))


def _validate_pq(p, q, delta):
    from suspshift.quadratic import rationally_independent
    from suspshift.recode import PreconditionFailed

    if not rationally_independent(p, q):
        raise PreconditionFailed("rational independence violated: p/q is rational")
    if not delta.sign() > 0:
        raise PreconditionFailed("delta must be positive")


def find_two_valued_marker(flow, p, q, epsilon, delta, max_word_len=110, depth=420):
    eps = Fraction(epsilon)
    _validate_pq(p, q, delta)

    def ok(gap, t):
        return _choose_two_valued_pair(t, p, q, delta, eps) is not None

    return find_marker_with_feasible_gaps(flow, ok, max_word_len, depth)


def find_marked_binary_marker(flow, p, q, M, delta, max_word_len=60, depth=420,
                    lang_bound=130, k_range=(2, 7)):
    _validate_pq(p, q, delta)

    def ok(gap, t):
        return any(
            marked_pair(t, p, q, delta, M, K, lang_bound) is not None
            for K in range(*k_range)
        )

    return find_marker_with_feasible_gaps(flow, ok, max_word_len, depth)


def build_two_valued_instance(flow=None, p=None, q=None, epsilon=Fraction(1, 10),
                       delta=None, depth=420):
    """The acceptance two-valued instance: p=1, q=sqrt(2), eps=delta=1/10."""
    flow = flow or sturmian_root2_flow()
    p = p if p is not None else qr(1)
    q = q if q is not None else sqrt_d(2)
    delta = delta if delta is not None else qr(Fraction(1, 10))
    marker = find_two_valued_marker(flow, p, q, epsilon, delta, depth=depth)
    return recode_two_valued(flow, marker, p, q, epsilon, delta)


def build_marked_binary_instance(flow=None, p=None, q=None, M=2, delta=None, depth=420):
    """The acceptance marked-binary instance: p=1, q=sqrt(2), M=2,
    delta = sqrt(2)-1 (so the generator's alpha = q - p matches delta)."""
    flow = flow or sturmian_root2_flow()
    p = p if p is not None else qr(1)
    q = q if q is not None else sqrt_d(2)
    delta = delta if delta is not None else sqrt_d(2) - 1
    marker = find_marked_binary_marker(flow, p, q, M, delta, depth=depth)
    return recode_marked_binary(flow, marker, p, q, M, delta)
