"""Diversity-multiplexing tradeoff analysis for weighted parallel fading
channels and MISO broadcast channels under ZF / DPC precoding: closed-form
curves, independent LP certification, and Monte Carlo outage validation."""

from .core import (
    AntennaProfile,
    BadSumError,
    DimensionMismatchError,
    DmtCurve,
    DmtError,
    NonPositiveWeightError,
    OutOfRangeError,
    RankDeficientError,
    Scenario,
    TooLargeError,
    TooManyUsersError,
    Weights,
    ordering,
    validate_weights,
)
from .dmt_analytic import (
    ExponentSolution,
    curve_for_scenario,
    dmt_different,
    lp_greedy,
    optimal_weights,
)
from .lp_oracle import LpInstance, lp_grid, lp_vertex
from .channel_sim import (
    ChannelMatrix,
    EffectiveGains,
    GainDistributionReport,
    OutageEstimate,
    confidence_interval,
    dpc_gains,
    outage_probability,
    sample_channel,
    validate_gain_distribution,
    weighted_capacity,
    zf_gains,
)
from .exponent_fit import (
    CompareReport,
    InsufficientDataError,
    InsufficientEventsError,
    SlopeFit,
    compare,
    fit_slope,
)

__version__ = "0.1.0"

__all__ = [
    "AntennaProfile",
    "BadSumError",
    "ChannelMatrix",
    "CompareReport",
    "DimensionMismatchError",
    "DmtCurve",
    "DmtError",
    "EffectiveGains",
    "ExponentSolution",
    "GainDistributionReport",
    "InsufficientDataError",
    "InsufficientEventsError",
    "LpInstance",
    "NonPositiveWeightError",
    "OutOfRangeError",
    "OutageEstimate",
    "RankDeficientError",
    "Scenario",
    "SlopeFit",
    "TooLargeError",
    "TooManyUsersError",
    "Weights",
    "compare",
    "confidence_interval",
    "curve_for_scenario",
    "dmt_different",
    "dpc_gains",
    "fit_slope",
    "lp_greedy",
    "lp_grid",
    "lp_vertex",
    "optimal_weights",
    "ordering",
    "outage_probability",
    "sample_channel",
    "validate_gain_distribution",
    "validate_weights",
    "weighted_capacity",
    "zf_gains",
]
