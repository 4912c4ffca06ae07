"""Bayesian filtering: particle filters and motion/measurement models.

Implements the recursive Bayes update of paper Eq. (1): a prediction step
through a probabilistic motion model and a correction step weighting
hypotheses by measurement likelihood, realised with a sampling (particle)
representation.  Measurement likelihoods are pluggable: an exact digital
GMM backend, a precision-limited digital backend, or the CIM inverter-array
backend.
"""

from repro.filtering.particles import ParticleSet
from repro.filtering.motion import (
    MotionModel,
    OdometryMotionModel,
)
from repro.filtering.measurement import (
    CIMArrayBackend,
    DepthScanMeasurementModel,
    DigitalGMMBackend,
    MapFieldBackend,
)
from repro.filtering.resampling import systematic_resample
from repro.filtering.particle_filter import ParticleFilter

__all__ = [
    "ParticleSet",
    "MotionModel",
    "OdometryMotionModel",
    "MapFieldBackend",
    "DigitalGMMBackend",
    "CIMArrayBackend",
    "DepthScanMeasurementModel",
    "systematic_resample",
    "ParticleFilter",
]
