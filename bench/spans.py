"""Span tracing for the benchmark, installed from outside the library.

`Tracer.install()` replaces the public entry points of each suspshift layer
with timing wrappers: module-level functions are replaced in every loaded
module that imported them by name, methods on the class that owns them.
Entry points a later version of the library no longer has are skipped and
simply report zero.  Nothing under `src/` is modified on disk.

Each wrapper records one span: its duration, and the time its child spans
covered, so a span's self time is duration minus child time.  Spans of the
fine-grained entry points (exact arithmetic, symbol reads) are only
aggregated per name; spans of the coarse entry points are also kept in
memory and written out with `write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (layer.name, module, owner class or None, attribute, keep the span, context)
# A context entry point keeps a count of its open spans so that work done
# beneath it (symbols read inside a return, distances inside p_k) can be
# attributed to it.
ENTRY_POINTS = [
    # quadratic: every operator, including the reflected aliases that were
    # bound when the class was created
    *[("quadratic." + op.strip("_"), "suspshift.quadratic", "QuadraticReal", op, False, False)
      for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__lt__", "__le__",
                 "__gt__", "__ge__", "__eq__", "sign", "floor")],
    # subshifts: the Sturmian oracle and the SFT language
    ("subshifts.symbol_at", "suspshift.subshifts", "Sturmian", "symbol_at", False, False),
    ("subshifts.block", "suspshift.subshifts", "SturmianPoint", "block", False, False),
    ("subshifts.language", "suspshift.subshifts", "SFT", "language", True, True),
    ("subshifts.admissible", "suspshift.subshifts", "SFT", "admissible", False, False),
    # suspension
    ("suspension.return_to_section", "suspshift.suspension", None, "return_to_section", True, True),
    ("suspension.match_at", "suspshift.suspension", "CrossSection", "match_at", False, True),
    ("suspension.word_block", "suspshift.suspension", "FiniteWordOracle", "block", False, False),
    # markers
    ("markers.return_spectrum", "suspshift.markers", None, "return_spectrum", True, False),
    ("markers.verify_coverage", "suspshift.markers", None, "verify_coverage", True, False),
    ("markers.verify_disjointness", "suspshift.markers", None, "verify_disjointness", True, False),
    ("markers.build_marker", "suspshift.markers", None, "build_marker", True, False),
    # recode
    ("recode.find_marker", "suspshift.recode", None, "find_marker_with_feasible_gaps", True, False),
    ("recode.build", "suspshift.recode", None, "recode_two_valued", True, False),
    ("recode.build", "suspshift.recode", None, "recode_marked_binary", True, False),
    ("recode.section", "suspshift.recode", "RecodedFlow", "section", True, False),
    ("recode.encode", "suspshift.recode", "RecodedFlow", "encode", True, False),
    ("recode.decode", "suspshift.recode", "RecodedFlow", "decode", True, False),
    ("recode.rank", "suspshift.recode", "BalancedCode", "rank", False, False),
    ("recode.chain_block", "suspshift.recode", "ChainPoint", "block", False, False),
    ("recode.atom_boundaries", "suspshift.recode", "ChainPoint", "atom_boundaries", False, False),
    # generator
    ("generator.model", "suspshift.generator", "GeneratorModel", "__init__", True, False),
    ("generator.round_trip", "suspshift.generator", None, "round_trip", True, False),
    ("generator.name_of", "suspshift.generator", "GeneratorModel", "name_of", True, False),
    ("generator.step", "suspshift.generator", "GeneratorModel", "step", False, False),
    ("generator.step_back", "suspshift.generator", "GeneratorModel", "step_back", False, False),
    ("generator.roof_at", "suspshift.generator", "GeneratorModel", "roof_at", False, False),
    ("generator.decode_name", "suspshift.generator", None, "decode_name", True, False),
    # measures
    ("measures.d_distance", "suspshift.measures", None, "d_distance", False, False),
    *[("measures.mass", "suspshift.measures", cls, "mass", False, False)
      for cls in ("MarkovMeasure", "EmpiricalMeasure", "SturmianMeasure", "ConvexCombination")],
    ("measures.empirical", "suspshift.measures", "EmpiricalMeasure", "__init__", False, False),
    # periodic
    ("periodic.census", "suspshift.periodic", "PeriodicCensus", "__init__", True, False),
    ("periodic.p_k", "suspshift.periodic", None, "p_k", False, True),
    # instances
    ("instances.build", "suspshift.instances", None, "build_two_valued_instance", True, False),
    ("instances.build", "suspshift.instances", None, "build_marked_binary_instance", True, False),
    ("instances.find_marker", "suspshift.instances", None, "find_two_valued_marker", True, False),
    ("instances.find_marker", "suspshift.instances", None, "find_marked_binary_marker", True, False),
    ("instances.gap_feasible", "suspshift.instances", None, "marked_binary_gap_feasible", False, False),
]

# oracle reads: each read made inside CrossSection.match_at is one piece test
ORACLE_READS = ("subshifts.block", "suspension.word_block", "recode.chain_block")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack = []            # open frames: [start, child_time, span index]
        self.stats = {}            # span name -> [calls, total_s, self_s]
        self.busy = Counter()      # layer -> time with at least one span open
        self.layer_depth = Counter()
        self.open = Counter()      # context span name -> open spans
        self.under_return = Counter()  # layer -> self time inside returns
        self.counts = Counter()
        self.spans = []            # kept spans: [name, parent, start, end]
        self.missing = []          # entry points this library version lacks

    # -- installation ----------------------------------------------------

    def install(self):
        for name, modname, clsname, attr, keep, context in ENTRY_POINTS:
            mod = sys.modules.get(modname)
            owner = mod if clsname is None else getattr(mod, clsname, None)
            fn = None if owner is None else vars(owner).get(attr)
            if fn is None and clsname is not None and owner is not None:
                fn = getattr(owner, attr, None)  # inherited, e.g. SFT.language
            if fn is None:
                self.missing.append(f"{modname}.{clsname + '.' if clsname else ''}{attr}")
                continue
            wrapped = self._wrap(name, fn, keep, context)
            if clsname is not None:
                setattr(owner, attr, wrapped)
            else:
                for other in list(sys.modules.values()):
                    if getattr(other, "__dict__", None) is None:
                        continue
                    for key, val in list(vars(other).items()):
                        if val is fn:
                            setattr(other, key, wrapped)

    def _wrap(self, name, fn, keep, context):
        layer = name.partition(".")[0]
        stack, stats, busy, depth_of = self.stack, self.stats, self.busy, self.layer_depth
        open_, under_return, counts, spans = self.open, self.under_return, self.counts, self.spans
        st = stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        hook = _HOOKS.get(name)
        is_quadratic = layer == "quadratic"
        is_read = name in ORACLE_READS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if is_quadratic:
                if all(getattr(a, "is_rational", True) for a in args):
                    counts["quadratic.rational_ops"] += 1
            elif is_read and open_["suspension.match_at"]:
                counts["suspension.pieces_tested"] += 1
            if keep:
                parent = stack[-1][2] if stack else -1
                index = len(spans)
                spans.append([name, parent, 0.0, 0.0])
            else:
                index = stack[-1][2] if stack else -1
            depth = depth_of[layer]
            depth_of[layer] = depth + 1
            if context:
                open_[name] += 1
            frame = [clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                self_time = dur - frame[1]
                st[0] += 1
                st[1] += dur
                st[2] += self_time
                depth_of[layer] = depth
                if depth == 0:
                    busy[layer] += dur
                if context:
                    open_[name] -= 1
                if open_["suspension.return_to_section"]:
                    under_return[layer] += self_time
                if stack:
                    stack[-1][1] += dur
                if keep:
                    spans[index][2] = frame[0]
                    spans[index][3] = end
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    # -- results ---------------------------------------------------------

    def calls(self, *names):
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def self_s(self, *names):
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(s[2] for n, s in self.stats.items() if n.startswith(prefix))

    def layer_calls(self, layer):
        prefix = layer + "."
        return sum(s[0] for n, s in self.stats.items() if n.startswith(prefix))

    def table(self):
        """Per span name: calls, total seconds, self seconds."""
        return {n: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                for n, s in sorted(self.stats.items()) if s[0]}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def _count_symbols(tracer, result):
    tracer.counts["subshifts.block.symbols"] += len(result)
    if tracer.open["suspension.return_to_section"]:
        tracer.counts["symbols_in_returns"] += len(result)


def _count_words(tracer, result):
    tracer.counts["subshifts.language.words"] += len(result)


def _count_admissible(tracer, result):
    if tracer.open["subshifts.language"]:
        tracer.counts["admissible_in_language"] += 1


def _count_hits(tracer, result):
    if result:
        tracer.counts["suspension.match_hits"] += 1


def _count_distance(tracer, result):
    if tracer.open["periodic.p_k"]:
        tracer.counts["distances_in_p_k"] += 1


_HOOKS = {
    "subshifts.block": _count_symbols,
    "subshifts.language": _count_words,
    "subshifts.admissible": _count_admissible,
    "suspension.match_at": _count_hits,
    "measures.d_distance": _count_distance,
}
