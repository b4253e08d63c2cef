"""Canonical experiment instances: the Sturmian(sqrt(2)-1) base with the
constant sqrt(2) roof, and marker searches tuned to the two-valued and
marked-binary recodings on it."""

from __future__ import annotations

from fractions import Fraction

from suspshift.quadratic import qr, sqrt_d
from suspshift.recode import (
    MarkedBinaryLayout,
    TwoValuedLayout,
    find_marker_with_feasible_gaps,
    recode_marked_binary,
    recode_two_valued,
)
from suspshift.subshifts import Sturmian
from suspshift.suspension import Roof, SuspensionFlow


def sturmian_root2_flow() -> SuspensionFlow:
    return SuspensionFlow(Sturmian(sqrt_d(2) - 1), Roof.constant(sqrt_d(2)))


def find_two_valued_marker(flow, p, q, epsilon, delta, max_word_len=110, depth=420):
    layout = TwoValuedLayout(p, q, epsilon, delta)
    return find_marker_with_feasible_gaps(
        flow, lambda gap, t: layout.pair(t) is not None, max_word_len, depth)


def find_marked_binary_marker(flow, p, q, M, delta, max_word_len=60, depth=420,
                    lang_bound=130, k_range=(2, 7)):
    layout = MarkedBinaryLayout(p, q, M, delta, range(*k_range))
    return find_marker_with_feasible_gaps(
        flow, lambda gap, t: layout.feasible(t, lang_bound), max_word_len, depth)


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
