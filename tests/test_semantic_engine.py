"""Semantic engine: two-tier caching, SARIF output, baseline mode, CLI.

The cache assertions use the hit/miss counters carried on
:class:`LintResult` — the same numbers the acceptance criterion "a warm
second run reuses cached facts for unchanged modules" is stated in.
"""

from __future__ import annotations

import json
from textwrap import dedent

import pytest

from repro.lint import lint_paths
from repro.lint.cli import main
from repro.lint.engine import (apply_baseline, load_baseline,
                               rules_signature, write_baseline)
from repro.lint.reporters import sarif_payload
from repro.lint.semantic.engine import SEMANTIC_CACHE_VERSION
from repro.lint.semantic.rules import semantic_rules

CLEAN_APP = """
    from proj.util import double

    def run(value):
        return double(value)
"""
CLEAN_UTIL = """
    def double(value):
        return value * 2
"""
DIRTY_POOL = """
    from concurrent.futures import ProcessPoolExecutor

    STATE = 0

    def worker(n):
        global STATE
        STATE += n
        return n

    def fan_out(jobs):
        with ProcessPoolExecutor() as pool:
            return [pool.submit(worker, job) for job in jobs]
"""


def write_project(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(source))
    return tmp_path


@pytest.fixture
def clean_project(tmp_path):
    return write_project(tmp_path, {
        "src/proj/__init__.py": "",
        "src/proj/app.py": CLEAN_APP,
        "src/proj/util.py": CLEAN_UTIL,
    })


class TestSemanticCache:
    def test_warm_run_reuses_facts_and_findings(self, clean_project):
        root = clean_project
        cold = lint_paths([str(root / "src")], root=root, semantic=True)
        warm = lint_paths([str(root / "src")], root=root, semantic=True)
        assert cold.semantic_facts_computed == 3
        assert cold.semantic_facts_from_cache == 0
        assert warm.semantic_facts_from_cache == 3
        assert warm.semantic_facts_computed == 0
        assert warm.semantic_findings_from_cache == 3
        assert warm.semantic_findings_computed == 0

    def test_editing_a_module_invalidates_only_its_dependents(
            self, clean_project):
        root = clean_project
        lint_paths([str(root / "src")], root=root, semantic=True)
        util = root / "src/proj/util.py"
        util.write_text(util.read_text() + "\nEXTRA = 1\n")
        warm = lint_paths([str(root / "src")], root=root, semantic=True)
        # Facts: only the edited file re-extracts.
        assert warm.semantic_facts_from_cache == 2
        assert warm.semantic_facts_computed == 1
        # Findings: util itself and its importer app recompute;
        # __init__ (no dependency on util) replays.
        assert warm.semantic_findings_computed == 2
        assert warm.semantic_findings_from_cache == 1

    def test_semantic_cache_is_a_separate_file(self, clean_project):
        root = clean_project
        lint_paths([str(root / "src")], root=root, semantic=True)
        assert (root / ".lint-semantic-cache.json").is_file()
        payload = json.loads(
            (root / ".lint-semantic-cache.json").read_text())
        assert set(payload) >= {"version", "signature", "facts",
                                "findings"}

    def test_cached_findings_replay_identically(self, tmp_path):
        root = write_project(tmp_path, {"src/pool.py": DIRTY_POOL})
        cold = lint_paths([str(root / "src")], root=root, semantic=True)
        warm = lint_paths([str(root / "src")], root=root, semantic=True)
        assert warm.semantic_findings_from_cache == 1
        assert [v.format() for v in warm.violations] \
            == [v.format() for v in cold.violations]
        assert any(v.rule == "SIM101" for v in warm.violations)

    @pytest.mark.parametrize("payload", [
        "{not json", "null", "[]", "7",
        json.dumps({"version": SEMANTIC_CACHE_VERSION,
                    "signature": rules_signature(),
                    "facts": [], "findings": {}}),
        json.dumps({"version": SEMANTIC_CACHE_VERSION,
                    "signature": rules_signature(),
                    "facts": {}, "findings": []}),
        json.dumps({"version": SEMANTIC_CACHE_VERSION,
                    "signature": rules_signature(),
                    "facts": {"src/pool.py": 7},
                    "findings": {"src/pool.py": None}}),
    ], ids=["not-json", "null", "list", "number", "facts-not-a-dict",
            "findings-not-a-dict", "entries-not-dicts"])
    def test_corrupt_cache_ignored(self, tmp_path, payload):
        root = write_project(tmp_path, {"src/pool.py": DIRTY_POOL})
        cache_file = root / ".lint-semantic-cache.json"
        cache_file.write_text(payload)
        result = lint_paths([str(root / "src")], root=root, semantic=True,
                            semantic_cache_file=cache_file)
        assert result.semantic_facts_from_cache == 0
        assert result.semantic_facts_computed == 1
        assert any(v.rule == "SIM101" for v in result.violations)


class TestSarif:
    def test_payload_has_the_schema_required_fields(self, tmp_path):
        root = write_project(tmp_path, {"src/pool.py": DIRTY_POOL})
        result = lint_paths([str(root / "src")], root=root,
                            use_cache=False, semantic=True)
        payload = sarif_payload(result)
        # sarifLog required: version + runs; $schema pins 2.1.0.
        assert payload["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in payload["$schema"]
        (run,) = payload["runs"]
        driver = run["tool"]["driver"]  # run requires tool.driver.name
        assert driver["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert {"SIM001", "SIM101", "SIM105"} <= rule_ids
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
        assert run["results"], "the dirty fixture must produce results"
        for entry in run["results"]:
            # result requires message; ruleId/locations make GitHub
            # code scanning render it usefully.
            assert entry["message"]["text"]
            assert entry["ruleId"] in rule_ids
            location = entry["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].endswith(".py")
            assert location["region"]["startLine"] >= 1
            assert location["region"]["startColumn"] >= 1

    def test_cli_emits_parseable_sarif(self, tmp_path, capsys):
        root = write_project(tmp_path, {"src/ok.py": CLEAN_UTIL})
        status = main(["--format", "sarif", "--no-cache",
                       str(root / "src")])
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["runs"][0]["results"] == []


class TestBaseline:
    def test_baselined_findings_do_not_fail_but_new_ones_do(
            self, tmp_path, capsys):
        root = write_project(tmp_path, {"src/pool.py": DIRTY_POOL})
        baseline = root / ".lint-baseline.json"
        status = main(["--no-cache", "--semantic", "--update-baseline",
                       str(baseline), str(root / "src")])
        assert status == 0
        assert "recorded 1 finding" in capsys.readouterr().out

        # Same findings: accepted.
        status = main(["--no-cache", "--semantic", "--baseline",
                       str(baseline), str(root / "src")])
        out = capsys.readouterr().out
        assert status == 0
        assert "suppressed 1 known finding" in out

        # A fresh violation in another file still fails the run.
        (root / "src/fresh.py").write_text(
            "import random\nPICK = random.randint(0, 3)\n")
        status = main(["--no-cache", "--semantic", "--baseline",
                       str(baseline), str(root / "src")])
        out = capsys.readouterr().out
        assert status == 1
        assert "SIM001" in out
        assert "pool.py" not in out

    def test_matching_ignores_line_drift(self, tmp_path):
        root = write_project(tmp_path, {"src/pool.py": DIRTY_POOL})
        result = lint_paths([str(root / "src")], root=root,
                            use_cache=False, semantic=False)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(result, baseline_file)
        # Shift every finding by prepending a comment line.
        pool = root / "src/pool.py"
        pool.write_text("# a new leading comment\n" + pool.read_text())
        shifted = lint_paths([str(root / "src")], root=root,
                             use_cache=False, semantic=False)
        new, matched = apply_baseline(
            shifted, load_baseline(baseline_file))
        assert new == []
        assert matched == len(shifted.violations)

    def test_missing_baseline_means_everything_is_new(self, tmp_path):
        root = write_project(tmp_path, {"src/pool.py": DIRTY_POOL})
        result = lint_paths([str(root / "src")], root=root,
                            use_cache=False, semantic=True)
        new, matched = apply_baseline(
            result, load_baseline(tmp_path / "absent.json"))
        assert matched == 0
        assert len(new) == len(result.violations)


class TestCli:
    def test_semantic_codes_are_known_to_select_and_ignore(
            self, tmp_path, capsys):
        root = write_project(tmp_path, {"src/pool.py": DIRTY_POOL})
        status = main(["--no-cache", "--semantic", "--select", "SIM101",
                       str(root / "src")])
        out = capsys.readouterr().out
        assert status == 1
        assert "SIM101" in out

        status = main(["--no-cache", "--semantic", "--ignore", "SIM101",
                       str(root / "src")])
        capsys.readouterr()
        assert status == 0

    def test_unknown_code_is_still_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", "SIM999", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_list_rules_includes_the_semantic_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in semantic_rules():
            assert rule.code in out


class TestSemanticRegistry:
    def test_all_families_with_stable_codes(self):
        codes = [rule.code for rule in semantic_rules()]
        assert codes == ["SIM101", "SIM102", "SIM103", "SIM104", "SIM105",
                         "SIM201", "SIM202", "SIM203", "SIM204", "SIM205",
                         "SIM206",
                         "SIM301", "SIM302", "SIM303", "SIM304",
                         "SIM305"]

    def test_scopes_partition_cacheable_from_global(self):
        scopes = {rule.code: rule.scope for rule in semantic_rules()}
        assert scopes["SIM101"] == "module"
        assert scopes["SIM103"] == "module"
        assert scopes["SIM105"] == "module"
        assert scopes["SIM102"] == "program"
        assert scopes["SIM104"] == "program"
