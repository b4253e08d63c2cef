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


# the longest marker word the two-valued search tries before it gives up
# (the shipped marker has length 5)
TWO_VALUED_MAX_WORD_LEN = 110
# the same for the marked-binary search (the shipped marker has length 12)
MARKED_BINARY_MAX_WORD_LEN = 60
# the code words each marked-binary atom must have room for during the
# search: it stands in for |language(n)|, unknown until the marker fixes n
# (54 on the shipped build), and the build plans again at the true count
MARKED_BINARY_LANG_BOUND = 130
# the K the search screens with; the build's layout tries its own range
MARKED_BINARY_KS = range(2, 7)


def find_two_valued_marker(flow, layout, depth=420):
    return find_marker_with_feasible_gaps(
        flow, lambda t: layout.pair(t) is not None, TWO_VALUED_MAX_WORD_LEN, depth)


def find_marked_binary_marker(flow, layout, depth=420):
    return find_marker_with_feasible_gaps(
        flow, lambda t: layout.feasible(t, MARKED_BINARY_LANG_BOUND, MARKED_BINARY_KS),
        MARKED_BINARY_MAX_WORD_LEN, depth)


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
