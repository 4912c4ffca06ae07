"""Serving imports only what serving runs.

``scipy.stats`` and ``scipy.optimize`` cost most of a process's warm-up
and about half its memory, yet no served op calls them: E7's correlations
import ``scipy.stats`` and ``HMGMixture.with_refined_weights`` imports
``scipy.optimize`` inside the functions that use them.  A shard keeps
``scipy.special`` (the RNG calibration's ``ndtri``); the CLI, which is
what the ``repro serve`` parent runs, loads no scipy at all.  Each check
runs in a fresh interpreter, since this test session has imported scipy
long before.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_REPORT = """
import json, sys
print(json.dumps(sorted(
    name for name in sys.modules if name == "scipy" or name.startswith("scipy.")
)))
"""


def _scipy_modules_after(code: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + _REPORT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_scipy():
    assert _scipy_modules_after("import repro.api.cli") == []


def test_served_shard_loads_no_stats_or_optimize():
    """A demo shard (cim + tracks) built, then one ``/infer`` batch and
    one track step through ``ShardState.run``."""
    loaded = _scipy_modules_after(
        """
        import numpy as np
        from repro.serve.demo import (
            demo_inputs, demo_model, demo_track_measurements, demo_track_world,
        )
        from repro.serve.execution import ShardState, WorkerSpec
        from repro.serve.types import TrackInit

        state = ShardState(WorkerSpec(
            models={"default": demo_model()},
            substrates=("cim",),
            n_iterations=8,
            track_world=demo_track_world(),
        ))
        [(tag, _)] = state.run(
            "batch", (("cim", "default"), [(demo_inputs(0, batch=1)[0], 3, None)])
        )
        assert tag == "ok", tag
        controls, depths, truths = demo_track_measurements(2)
        init = TrackInit(state=truths[0], sigma=np.full(4, 0.05))
        [(tag, _)] = state.run("open", ("t", "cim", init, 1))
        assert tag == "ok", tag
        [(tag, _)] = state.run("steps", [("t", controls[1], depths[1], truths[1])])
        assert tag == "ok", tag
        """
    )
    assert not [
        name
        for name in loaded
        if name.startswith(("scipy.stats", "scipy.optimize"))
    ]
