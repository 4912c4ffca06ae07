"""Experiment drivers: one module per paper figure/table (the README's
"Experiment registry" table maps each to its id).

Each module declares its experiment once: a frozen config dataclass
(its only parameter list, ``seed`` included) and the driver that takes
it, registered with :func:`repro.api.registry.experiment`.  ``repro
run`` and the examples and tests that call a driver directly therefore
share one set of defaults.  Callers import the driver's submodule
directly.  Shared world/model construction (with in-process caching)
lives in :mod:`repro.experiments.common`.
"""
