"""Suspension flows over subshifts, cross-section recoding and uniform generators."""

from suspshift.quadratic import QuadraticReal, qr, sqrt_d, rationally_independent
from suspshift.subshifts import (
    Cylinder,
    SFT,
    Sturmian,
    ProductSubshift,
    full_shift,
    golden_mean_sft,
    topological_entropy,
)
from suspshift.measures import (
    MarkovMeasure,
    EmpiricalMeasure,
    SturmianMeasure,
    DMetricConfig,
    bernoulli,
    parry_measure,
    block_entropy,
    d_distance,
    integrate_locally_constant,
)
from suspshift.suspension import (
    Roof,
    SuspensionFlow,
    FlowPoint,
    CrossSection,
    flow,
    make_flow_point,
    return_to_section,
    abramov_entropy,
)
from suspshift.markers import MarkerSet, build_marker, return_spectrum, return_words
from suspshift.recode import (
    BalancedCode,
    RecodedFlow,
    d_gap,
    recode_near_constant,
    recode_marked_binary,
    recode_two_valued,
)
from suspshift.generator import GeneratorModel, decode_name, round_trip
from suspshift.periodic import PeriodicCensus, global_periodic_growth

__all__ = [
    "QuadraticReal", "qr", "sqrt_d", "rationally_independent",
    "Cylinder", "SFT", "Sturmian", "ProductSubshift",
    "full_shift", "golden_mean_sft", "topological_entropy",
    "MarkovMeasure", "EmpiricalMeasure", "SturmianMeasure", "DMetricConfig",
    "bernoulli", "parry_measure", "block_entropy", "d_distance",
    "integrate_locally_constant",
    "Roof", "SuspensionFlow", "FlowPoint", "CrossSection", "flow",
    "make_flow_point", "return_to_section", "abramov_entropy",
    "MarkerSet", "build_marker", "return_spectrum", "return_words",
    "BalancedCode", "RecodedFlow", "d_gap", "recode_near_constant", "recode_marked_binary",
    "recode_two_valued",
    "GeneratorModel", "decode_name", "round_trip",
    "PeriodicCensus", "global_periodic_growth",
]
