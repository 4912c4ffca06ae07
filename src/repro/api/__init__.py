"""Public entry point to the reproduction stack.

This package is the single front door to everything below it:

- **Substrates** (:mod:`repro.api.substrates`): named, registered compute
  backends (``"digital"``, ``"cim"``, ``"cim-reuse"``, ``"cim-ordered"``)
  opening uniform ``session.run(inputs) -> InferenceResult`` sessions over
  the co-designed engines in :mod:`repro.core`.
- **Results** (:mod:`repro.api.results`): :class:`InferenceResult` and
  :class:`ExperimentResult` schemas that round-trip through JSON.
- **Experiments** (:mod:`repro.api.registry`): a decorator-based
  registry of the paper experiments (E1, E3-E11) and the scenario
  runner (SCN).  Each is declared once, in its driver module: a typed
  config (seed included) and the driver that takes it; the registry
  adds config overrides and substrate substitution.
- **CLI** (:mod:`repro.api.cli`):
  ``python -m repro list|run|sweep|report|bench``.

Sweep grids are executed by the batch runtime (:mod:`repro.runtime`):
plans, the parallel executor and the structured on-disk
:class:`~repro.runtime.RunStore`.

Quick start::

    from repro.api import get_substrate, run_experiment

    # run a registered experiment on a chosen backend
    result = run_experiment("E6", seed=1, substrate="cim-reuse")
    print(result.metrics["ate_rmse_m"])

    # or drive a substrate session directly
    session = get_substrate("cim-ordered").mc_dropout_session(model)
    inference = session.run(features)
"""

from repro.api.registry import (
    ExperimentSpec,
    experiment,
    get_experiment,
    list_experiments,
    result_stem,
    run_experiment,
)
from repro.api.results import (
    BatchResult,
    ExperimentResult,
    InferenceResult,
    config_hash,
    from_jsonable,
    to_jsonable,
)
from repro.api.substrates import (
    LocalizationSession,
    MacroOptions,
    MaskPlan,
    MCDropoutSession,
    ReusePolicy,
    SubstrateConfig,
    available_substrates,
    get_substrate,
    register_substrate,
)

__all__ = [
    # substrates
    "SubstrateConfig",
    "MacroOptions",
    "ReusePolicy",
    "MaskPlan",
    "MCDropoutSession",
    "LocalizationSession",
    "register_substrate",
    "get_substrate",
    "available_substrates",
    # results
    "InferenceResult",
    "BatchResult",
    "ExperimentResult",
    "config_hash",
    "to_jsonable",
    "from_jsonable",
    # experiments
    "ExperimentSpec",
    "experiment",
    "get_experiment",
    "list_experiments",
    "result_stem",
    "run_experiment",
]
