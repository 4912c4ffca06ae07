"""Experiment drivers: one per paper figure/table (the README's
"Experiment registry" table maps each to its id).

Each driver is a plain function returning a dict of arrays/rows, so the
experiment registry and the examples consume the same code path.
Callers import the driver's submodule directly.  Shared world/model
construction (with in-process caching) lives in
:mod:`repro.experiments.common`.
"""
