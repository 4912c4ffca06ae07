"""repro.analysis: the determinism linter (rules, suppressions, baseline,
CLI gate) plus the self-hosting check over src/repro."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    PARSE_ERROR,
    RULES,
    SUPPRESSION_NEEDS_REASON,
    Baseline,
    all_rules,
    compare,
    lint_paths,
    lint_source,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
DET_CODES = sorted(code for code in RULES if code.startswith("DET"))


def lint_fixture(name: str, code: str):
    """Lint one fixture file with exactly one rule active."""
    path = FIXTURES / name
    return lint_source(path.read_text(), name, rules={code: RULES[code]})


class TestRuleRegistry:
    def test_all_eight_det_rules_registered(self):
        assert DET_CODES == [f"DET00{n}" for n in range(1, 9)]

    def test_every_rule_carries_metadata(self):
        for rule in all_rules():
            assert rule.code and rule.name and rule.rationale and rule.hint


class TestRuleFixtures:
    """Each rule must fire on its anti-pattern fixture and stay silent on
    the corrected twin -- the executable spec of what the rule means."""

    @pytest.mark.parametrize("code", DET_CODES)
    def test_rule_fires_on_anti_pattern(self, code):
        findings = lint_fixture(f"det{code[-3:]}_fires.py", code)
        assert findings, f"{code} did not fire on its fixture"
        assert {finding.rule for finding in findings} == {code}
        for finding in findings:
            assert finding.line > 0
            assert finding.text
            assert finding.hint

    @pytest.mark.parametrize("code", DET_CODES)
    def test_rule_silent_on_corrected_code(self, code):
        assert lint_fixture(f"det{code[-3:]}_clean.py", code) == []

    def test_det002_catches_the_pr7_collision_pattern(self):
        # The exact bug class that motivated the rule: scene/dataset.py
        # once derived per-scene streams as seed + 1000 * scene_index.
        source = (
            "import numpy as np\n"
            "def rng(seed, scene_index):\n"
            "    return np.random.default_rng(seed + 1000 * scene_index)\n"
        )
        findings = lint_source(source, "dataset.py")
        assert [finding.rule for finding in findings] == ["DET002"]

    def test_det002_allows_keyed_spawns(self):
        source = (
            "import numpy as np\n"
            "def rng(seed, scene_index):\n"
            "    return np.random.default_rng(\n"
            "        np.random.SeedSequence(seed, spawn_key=(scene_index,))\n"
            "    )\n"
        )
        assert lint_source(source, "dataset.py") == []


class TestSuppressions:
    def fixture_findings(self):
        path = FIXTURES / "suppressed.py"
        return lint_source(
            path.read_text(), "suppressed.py",
            rules={"DET006": RULES["DET006"]},
        )

    def test_trailing_and_standalone_comments_suppress(self):
        findings = self.fixture_findings()
        flagged = {f.line for f in findings if f.rule == "DET006"}
        lines = (FIXTURES / "suppressed.py").read_text().splitlines()
        assert lines[4].startswith("standalone")  # shielded by line above
        assert "inline" in lines[5]  # shielded by trailing comment
        assert not any("standalone" in lines[line - 1] for line in flagged)
        assert not any(
            "inline" in lines[line - 1] and "reasonless" not in lines[line - 1]
            for line in flagged
        )

    def test_reasonless_suppression_does_not_suppress(self):
        findings = self.fixture_findings()
        lnt = [f for f in findings if f.rule == SUPPRESSION_NEEDS_REASON]
        assert len(lnt) == 1
        # ...and the DET006 on that same line still fires.
        assert any(
            f.rule == "DET006" and f.line == lnt[0].line for f in findings
        )

    def test_unsuppressed_line_still_fires(self):
        findings = self.fixture_findings()
        assert any(
            f.rule == "DET006" and "unsuppressed" in f.text for f in findings
        )

    def test_suppression_only_covers_named_codes(self):
        source = "import json\nx = json.dumps({})  # repro: ignore[DET001] wrong code\n"
        findings = lint_source(source, "f.py", rules={"DET006": RULES["DET006"]})
        assert [f.rule for f in findings] == ["DET006"]

    def test_parse_error_yields_lnt002(self):
        findings = lint_source(
            (FIXTURES / "broken.py").read_text(), "broken.py"
        )
        assert [f.rule for f in findings] == [PARSE_ERROR]


class TestBaseline:
    def findings(self):
        return lint_fixture("det006_fires.py", "DET006")

    def test_round_trip(self, tmp_path):
        baseline = Baseline.from_findings(self.findings(), notes=["note"])
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.notes == ["note"]
        assert [e.key() for e in loaded.entries] == [
            e.key() for e in baseline.entries
        ]
        new, stale = compare(self.findings(), loaded)
        assert new == [] and stale == []

    def test_new_finding_detected(self):
        findings = self.findings()
        baseline = Baseline.from_findings(findings[:-1])
        new, stale = compare(findings, baseline)
        assert [f.key() for f in new] == [findings[-1].key()]
        assert stale == []

    def test_stale_entry_detected(self):
        findings = self.findings()
        baseline = Baseline.from_findings(findings)
        new, stale = compare(findings[:-1], baseline)
        assert new == []
        assert [e.key() for e in stale] == [findings[-1].key()]

    def test_line_number_drift_does_not_break_match(self):
        findings = self.findings()
        shifted = [
            type(f)(
                rule=f.rule, path=f.path, line=f.line + 40, col=f.col,
                message=f.message, hint=f.hint, text=f.text,
            )
            for f in findings
        ]
        new, stale = compare(shifted, Baseline.from_findings(findings))
        assert new == [] and stale == []

    def test_multiset_counting(self):
        # One baselined occurrence of a duplicated line covers exactly one
        # fresh occurrence; the duplicate is new.
        findings = self.findings()
        doubled = findings + findings
        new, _ = compare(doubled, Baseline.from_findings(findings))
        assert len(new) == len(findings)

    def test_rejects_non_baseline_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(ValueError, match="not a lint baseline"):
            Baseline.load(path)


class TestSelfHosting:
    """src/repro must lint clean modulo the committed baseline -- the
    linter's own acceptance criterion."""

    def test_src_repro_clean_modulo_baseline(self):
        findings = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        baseline = Baseline.load(REPO_ROOT / "lint_baseline.json")
        new, stale = compare(findings, baseline)
        assert new == [], [f.render() for f in new]
        assert stale == [], [e.render() for e in stale]

    def test_baseline_carries_tracking_notes(self):
        """Every grandfathered rule has a migration note, and no note
        outlives its rule's last entry."""
        baseline = Baseline.load(REPO_ROOT / "lint_baseline.json")
        rules = {entry.rule for entry in baseline.entries}
        noted = {note.split()[0] for note in baseline.notes}
        assert rules == noted
        # Retired: every CLI JSON emit goes through results.emit_json.
        assert "DET006" not in rules


class TestLintCLI:
    def run_cli(self, *argv, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *argv],
            capture_output=True,
            text=True,
            cwd=str(cwd or REPO_ROOT),
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": "/usr/bin:/bin",
            },
        )

    def test_gate_passes_on_repo(self):
        result = self.run_cli()
        assert result.returncode == 0, result.stdout + result.stderr
        assert "-- ok" in result.stdout

    def test_reintroduced_pr7_pattern_fails_gate(self, tmp_path):
        bad = tmp_path / "dataset.py"
        bad.write_text(
            "import numpy as np\n"
            "def rng(seed, scene_index):\n"
            "    return np.random.default_rng(seed + 1000 * scene_index)\n"
        )
        result = self.run_cli(str(bad), "--no-baseline")
        assert result.returncode == 1
        assert "DET002" in result.stdout
        assert "determinism lint gate failed" in result.stderr

    def test_json_output(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import json\nx = json.dumps({})\n")
        result = self.run_cli(str(bad), "--no-baseline", "--json")
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert payload["n_findings"] == 1
        assert payload["new"][0]["rule"] == "DET006"
        assert payload["stale"] == []

    def test_update_baseline_preserves_notes(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import json\nx = json.dumps({})\n")
        baseline_path = tmp_path / "baseline.json"
        Baseline(entries=[], notes=["keep me"]).save(baseline_path)
        update = self.run_cli(
            str(bad), "--baseline", str(baseline_path), "--update-baseline"
        )
        assert update.returncode == 0, update.stdout + update.stderr
        refreshed = Baseline.load(baseline_path)
        assert refreshed.notes == ["keep me"]
        assert len(refreshed.entries) == 1
        gated = self.run_cli(str(bad), "--baseline", str(baseline_path))
        assert gated.returncode == 0

    def test_rules_listing(self):
        result = self.run_cli("--rules", "--json")
        assert result.returncode == 0
        listed = json.loads(result.stdout)
        assert [rule["code"] for rule in listed] == sorted(RULES)
        assert all(rule["rationale"] for rule in listed)
