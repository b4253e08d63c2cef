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


def find_two_valued_marker(flow, layout, max_word_len=110, depth=420):
    return find_marker_with_feasible_gaps(
        flow, lambda gap, t: layout.pair(t) is not None, max_word_len, depth)


def find_marked_binary_marker(flow, layout, max_word_len=60, depth=420,
                    lang_bound=130, k_range=(2, 7)):
    ks = range(*k_range)
    return find_marker_with_feasible_gaps(
        flow, lambda gap, t: layout.feasible(t, lang_bound, ks), max_word_len, depth)


def build_two_valued_instance(flow=None, p=None, q=None, epsilon=Fraction(1, 10),
                       delta=None, depth=420):
    """The acceptance two-valued instance: p=1, q=sqrt(2), eps=delta=1/10.
    The search and the build share one layout, so each exact return time
    gets one pair."""
    flow = flow or sturmian_root2_flow()
    p = p if p is not None else qr(1)
    q = q if q is not None else sqrt_d(2)
    delta = delta if delta is not None else qr(Fraction(1, 10))
    layout = TwoValuedLayout(p, q, epsilon, delta)
    marker = find_two_valued_marker(flow, layout, depth=depth)
    return recode_two_valued(flow, marker, layout)


def build_marked_binary_instance(flow=None, p=None, q=None, M=2, delta=None, depth=420):
    """The acceptance marked-binary instance: p=1, q=sqrt(2), M=2,
    delta = sqrt(2)-1 (so the generator's alpha = q - p matches delta).
    The search tries K in 2..6 and the build 2..8, on one layout, so each
    exact return time gets one candidate list."""
    flow = flow or sturmian_root2_flow()
    p = p if p is not None else qr(1)
    q = q if q is not None else sqrt_d(2)
    delta = delta if delta is not None else sqrt_d(2) - 1
    layout = MarkedBinaryLayout(p, q, M, delta, range(2, 9))
    marker = find_marked_binary_marker(flow, layout, depth=depth)
    return recode_marked_binary(flow, marker, layout)
