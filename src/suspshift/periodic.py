"""Periodic censuses, global periodic growth, and the local counting
functions p_k.

All censuses are exact: SFT periodic points come from cycle enumeration in
the vertex graph, and each orbit's measure counts a word's occurrences over
one period, so its masses are rational whatever the word's length.  The
distances between periodic measures use the truncated convex metric D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from suspshift.measures import DMetricConfig, EmpiricalMeasure, d_distance
from suspshift.subshifts import PeriodicPoint, Subshift


@dataclass(frozen=True)
class CensusEntry:
    orbit_id: int
    period: int            # minimal period
    point: PeriodicPoint   # orbit representative (lexicographically least)
    measure: EmpiricalMeasure


class PeriodicCensus:
    """All periodic orbits of minimal period <= n_max, one entry per orbit."""

    def __init__(self, subshift: Subshift, n_max: int):
        self.subshift = subshift
        self.n_max = n_max
        self.entries = []
        self.fixed_counts = {}
        seen = set()
        for n in range(1, n_max + 1):
            pts = subshift.periodic_points(n)
            self.fixed_counts[n] = len(pts)
            for pt in pts:
                word = pt.word
                period = _minimal_period(word)
                if period != n:
                    continue  # counted at its minimal period
                rep = min(word[i:] + word[:i] for i in range(period))
                if rep in seen:
                    continue
                seen.add(rep)
                rep_pt = PeriodicPoint(rep)
                self.entries.append(
                    CensusEntry(
                        orbit_id=len(self.entries),
                        period=period,
                        point=rep_pt,
                        measure=EmpiricalMeasure(rep_pt, subshift),
                    )
                )

    def orbits_up_to(self, t: int):
        return [e for e in self.entries if e.period <= t]

    def __len__(self):
        return len(self.entries)


def _minimal_period(word):
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[: d] * (n // d):
            return d
    return n


@dataclass(frozen=True)
class GrowthReport:
    value: float            # rate estimate at the horizon (a lower bound)
    per_n: dict             # n -> (1/n) log #Fix(sigma^n)


def global_periodic_growth(census: PeriodicCensus) -> GrowthReport:
    """Horizon-limited estimate of the periodic growth rate: the slope
    (1/n) log #Fix(sigma^n) at n = n_max, with the per-n table attached.

    This is a lower bound for the true supremum over all n.
    """
    per_n = {
        n: (math.log(c) / n if c > 0 else 0.0)
        for n, c in census.fixed_counts.items()
    }
    n_last = census.n_max
    count = census.fixed_counts.get(n_last, 0)
    value = math.log(count) / n_last if count > 0 else 0.0
    return GrowthReport(value=value, per_n=per_n)


def _census_distance(census: PeriodicCensus, config: DMetricConfig, i: int, j: int):
    cache = census.__dict__.setdefault("_dist_cache", {})
    key = (config.depth, min(i, j), max(i, j))
    if key not in cache:
        cache[key] = d_distance(
            census.entries[i].measure, census.entries[j].measure, config
        ).value
    return cache[key]


def p_k(census: PeriodicCensus, entry: CensusEntry, eps_k, config: DMetricConfig) -> float:
    """(1/t) log of the number of periodic orbits gamma' with minimal period
    <= t(gamma) whose measures sit within eps_k of entry's measure in D
    (the flow convention: distinct orbits sharing one measure all count)."""
    count = sum(1 for other in census.orbits_up_to(entry.period)
                if _census_distance(census, config, other.orbit_id, entry.orbit_id) < eps_k)
    return math.log(max(count, 1)) / entry.period

