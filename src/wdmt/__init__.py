"""Diversity-multiplexing tradeoff analysis for weighted parallel fading
channels and MISO broadcast channels under ZF / DPC precoding: closed-form
curves, independent LP certification, and Monte Carlo outage validation."""

from .core import *
from .dmt_analytic import *
from .lp_oracle import *
from .channel_sim import *
from .exponent_fit import *

__version__ = "0.1.0"

__all__ = (core.__all__ + dmt_analytic.__all__ + lp_oracle.__all__
           + channel_sim.__all__ + exponent_fit.__all__)
