"""`repro bench` harness: every gate fails the run and leaves its
suite's file untouched, and `--check` resolves every declared ratio
against the committed baselines (and fails closed when one is missing).

The cases' measurements are replaced by their committed entries, so
these tests exercise the harness, not the host's timings.
"""

import copy
import json
from pathlib import Path

import pytest

from repro import bench
from repro.api.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
COMMITTED = {
    suite.name: json.loads((REPO_ROOT / suite.path).read_text())
    for suite in bench.SUITES
}
CHECK_LABELS = {
    "engine.reference.speedup",
    "engine.reuse.speedup",
    "serve.speedup_vs_direct",
    "serve.speedup_sharded_vs_coalesced",
    "serve.tracking.throughput_vs_direct",
    "serve.scenario_mix.throughput_vs_direct",
}


def committed_entry(suite, index):
    case = suite.cases[index]
    payload = COMMITTED[suite.name]
    return payload[case.key] if case.key else payload["cases"][index]


@pytest.fixture
def replayed(monkeypatch, tmp_path):
    """Every case measures its committed entry, updated by
    ``overrides[case key]``; every suite file starts as a copy of the
    committed one.  Returns the overrides dict and the CLI output flags.
    """
    overrides: dict[str, dict] = {}
    flags = []
    for suite in bench.SUITES:
        for index, case in enumerate(suite.cases):
            entry = committed_entry(suite, index)

            def measure(args, entry=entry, key=case.key):
                entry = copy.deepcopy(entry)
                if key in overrides:
                    entry.update(overrides[key])
                return entry

            monkeypatch.setattr(case, "measure", measure)
        out = tmp_path / suite.path
        out.write_bytes((REPO_ROOT / suite.path).read_bytes())
        flags += ["--" + suite.out.replace("_", "-"), str(out)]
    return overrides, flags


def test_every_check_label_resolves_in_the_committed_baselines():
    labels = set()
    for suite in bench.SUITES:
        for label, key, metric in suite.ratios():
            value = COMMITTED[suite.name][key][metric]
            assert isinstance(value, float) and value > 0, label
            labels.add(label)
    assert labels == CHECK_LABELS


def test_passing_run_checks_all_labels_and_rewrites_the_files(
    replayed, tmp_path, capsys
):
    _, flags = replayed
    assert main(["bench", "--suite", "all", "--check", *flags]) == 0
    out = capsys.readouterr().out
    for label in CHECK_LABELS:
        assert f"  {label}: " in out and f"  {label}: fresh=" in out
    assert "MISSING" not in out and "FAIL" not in out
    for suite in bench.SUITES:
        written = json.loads((tmp_path / suite.path).read_text())
        assert written == COMMITTED[suite.name]


# (--suite, case key, entry overrides, extra flags, expected stderr)
GATES = {
    "engine-reference-parity": (
        "core", "reference", {"parity_exact": False}, [],
        "engine-predict-no-reuse: the fast path differs from the loop",
    ),
    "engine-reuse-parity": (
        "core", "reuse", {"parity_exact": False}, [],
        "engine-predict-reuse-refresh: the fast path differs from the loop",
    ),
    "engine-speedup": (
        "core", "reference", {"speedup": 0.9}, [],
        "engine fast path slower than the loop path",
    ),
    "serve-value-parity": (
        "serve", "serve", {"parity_max_abs_diff": 1e-12}, [],
        "served responses diverged from the pinned-mask reference",
    ),
    "serve-metering-parity": (
        "serve", "serve", {"parity_metering_exact": False}, [],
        "served responses diverged from the pinned-mask reference",
    ),
    "tracking-stream-parity": (
        "serve", "tracking", {"parity_exact": False}, [],
        "serve-tracking: streamed track steps diverged",
    ),
    "scenario-mix-stream-parity": (
        "serve", "scenario_mix", {"parity_exact": False}, [],
        "serve-scenario-mix: streamed track steps diverged",
    ),
    "coalesced-beats-direct": (
        "serve", "serve", {"speedup_vs_direct": 0.95}, [],
        "coalesced serving is not faster than sequential",
    ),
    "sharded-beats-coalesced": (
        "serve", "serve", {"speedup_sharded_vs_coalesced": 0.95}, [],
        "sharded serving (workers=2) is not faster",
    ),
    "check-tolerance": (
        "serve", "tracking", {"throughput_vs_direct": 0.5}, ["--check"],
        "serve.tracking.throughput_vs_direct: throughput regression >30%",
    ),
}


@pytest.mark.parametrize("gate", sorted(GATES))
def test_failing_gate_exits_1_and_leaves_the_suite_file(
    gate, replayed, tmp_path, capsys
):
    suite_flag, key, entry_overrides, extra, message = GATES[gate]
    overrides, flags = replayed
    overrides[key] = entry_overrides
    [suite] = [
        suite
        for suite in bench.SUITES
        if suite.name != "runtime"
        and suite_flag in suite.runs_for
        and any(case.key == key for case in suite.cases)
    ]
    target = tmp_path / suite.path
    before = target.read_bytes()
    assert main(["bench", "--suite", suite_flag, *extra, *flags]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert f"{target} left untouched" in err
    assert target.read_bytes() == before


def test_check_fails_closed_on_a_missing_ratio(replayed, tmp_path, capsys):
    _, flags = replayed
    baseline = tmp_path / "BENCH_serve.json"
    payload = json.loads(baseline.read_text())
    del payload["scenario_mix"]["throughput_vs_direct"]
    baseline.write_text(json.dumps(payload))
    before = baseline.read_bytes()
    assert main(["bench", "--suite", "serve", "--check", *flags]) == 1
    captured = capsys.readouterr()
    assert "serve.scenario_mix.throughput_vs_direct: fresh=" in captured.out
    assert "MISSING" in captured.out
    assert "serve.scenario_mix.throughput_vs_direct is missing" in captured.err
    assert baseline.read_bytes() == before


def test_check_without_a_baseline_file_is_a_setup_error(
    replayed, tmp_path, capsys
):
    _, flags = replayed
    (tmp_path / "BENCH_engine.json").unlink()
    assert main(["bench", "--check", *flags]) == 2
    assert "needs a committed baseline" in capsys.readouterr().err
    # Nothing ran, so nothing was written.
    assert not (tmp_path / "BENCH_engine.json").exists()
