"""Spectral simulation of row-wise ridge operator learning.

Synthetic operator regression problems with power-law input/output spectra,
the estimators that learn them (single ridge, contour-scheduled ridges, the
multilevel staircase), and the analytic oracles and convergence harness used
to check the predicted error rates.

Each module's __all__ is the one list of its public names; the package
re-exports all of them.
"""

from . import core, estimators, harness, schedules, synth
from .core import *
from .estimators import *
from .harness import *
from .schedules import *
from .synth import *

__version__ = "0.1.0"

__all__ = (
    core.__all__ + estimators.__all__ + harness.__all__ + schedules.__all__ + synth.__all__
)
