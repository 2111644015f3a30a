"""File discovery, per-file result caching, and the lint pass itself.

The cache (``.lint-cache.json``, git-ignored) maps each file's content
hash to its violations and its project-rule facts, keyed by a signature
of the lint package's own sources — editing any rule invalidates every
cached entry.  Unchanged files are replayed without re-parsing, so the
CI pass is incremental in local use.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.core import (FileContext, FileRule, ProjectRule, Violation,
                             all_rules, parse_suppressions)

CACHE_VERSION = 1
_SKIP_DIR_PARTS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache",
                   ".benchmarks"}


@dataclass
class LintResult:
    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    files_from_cache: int = 0
    # Semantic pass bookkeeping (zeros unless semantic=True).
    semantic_enabled: bool = False
    semantic_modules: int = 0
    semantic_facts_from_cache: int = 0
    semantic_facts_computed: int = 0
    semantic_findings_from_cache: int = 0
    semantic_findings_computed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def discover_files(paths: list[str]) -> list[Path]:
    """Every ``*.py`` under the given files/directories, sorted.

    A path that does not exist raises: a typo'd CI invocation must not
    pass vacuously on zero files.
    """
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"lint path does not exist: {raw}")
        if path.is_file() and path.suffix == ".py":
            found.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                parts = set(candidate.parts)
                if parts & _SKIP_DIR_PARTS:
                    continue
                if any(part.endswith(".egg-info") for part in candidate.parts):
                    continue
                found.add(candidate)
    return sorted(found)


def rules_signature() -> str:
    """Hash of the lint package's own sources (rule-edit invalidation)."""
    package_dir = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for source in sorted(package_dir.rglob("*.py")):
        digest.update(source.name.encode())
        digest.update(source.read_bytes())
    return digest.hexdigest()


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def load_cache_payload(cache_file: Path, version: int, signature: str,
                       sections: tuple[str, ...]) -> dict:
    """The cache record in ``cache_file``, or ``{}`` when it cannot be
    used: unreadable, not JSON, another version or rules signature, or
    not a JSON object whose ``sections`` are all objects."""
    try:
        payload = json.loads(cache_file.read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict) \
            or payload.get("version") != version \
            or payload.get("signature") != signature \
            or not all(isinstance(payload.get(name, {}), dict)
                       for name in sections):
        return {}
    return payload


class _Cache:
    def __init__(self, cache_file: Path | None, signature: str) -> None:
        self.cache_file = cache_file
        self.signature = signature
        self.entries: dict[str, dict] = {}
        self.dirty = False
        if cache_file is not None and cache_file.is_file():
            payload = load_cache_payload(cache_file, CACHE_VERSION,
                                         signature, ("files",))
            self.entries = payload.get("files", {})

    def get(self, rel: str, sha: str) -> dict | None:
        entry = self.entries.get(rel)
        if isinstance(entry, dict) and entry.get("sha") == sha:
            return entry
        return None

    def put(self, rel: str, entry: dict) -> None:
        self.entries[rel] = entry
        self.dirty = True

    def save(self) -> None:
        if self.cache_file is None or not self.dirty:
            return
        payload = {"version": CACHE_VERSION, "signature": self.signature,
                   "files": self.entries}
        try:
            self.cache_file.write_text(json.dumps(payload))
        except OSError:
            pass  # caching is best-effort; the lint result is unaffected


def lint_paths(paths: list[str], *, root: str | os.PathLike | None = None,
               select: set[str] | None = None,
               ignore: set[str] | None = None,
               use_cache: bool = True,
               cache_file: str | os.PathLike | None = None,
               semantic: bool = False,
               semantic_cache_file: str | os.PathLike | None = None
               ) -> LintResult:
    """Run every registered rule over the Python files under ``paths``.

    With ``semantic=True`` the whole-program families (SIM1xx, SIM2xx,
    SIM3xx) run on top; their facts/findings cache in
    ``semantic_cache_file`` (default
    ``<root>/.lint-semantic-cache.json``).
    """
    root_path = Path(root) if root is not None else Path.cwd()
    rules = all_rules()
    if select:
        rules = [rule for rule in rules if rule.code in select]
    if ignore:
        rules = [rule for rule in rules if rule.code not in ignore]
    file_rules = [rule for rule in rules if isinstance(rule, FileRule)]
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]

    cache_path = Path(cache_file) if cache_file is not None \
        else root_path / ".lint-cache.json"
    # A filtered run would poison the cache with partial results.
    cache_enabled = use_cache and not select and not ignore
    cache = _Cache(cache_path if cache_enabled else None, rules_signature())

    result = LintResult()
    facts: dict[str, dict[str, object]] = {r.code: {} for r in project_rules}
    suppressions: dict[str, tuple[dict[int, set[str]], set[str]]] = {}
    sources: dict[str, str] = {}

    for path in discover_files(paths):
        rel = _relpath(path, root_path)
        source = path.read_text(encoding="utf-8", errors="replace")
        sha = hashlib.sha256(source.encode("utf-8", "replace")).hexdigest()
        result.files_checked += 1
        sources[rel] = source

        cached = cache.get(rel, sha)
        if cached is not None:
            result.files_from_cache += 1
            result.violations.extend(
                Violation(path=rel, line=line, col=col, rule=rule,
                          message=message)
                for rule, line, col, message in cached["violations"]
            )
            for code, file_facts in cached.get("facts", {}).items():
                if code in facts:
                    facts[code][rel] = file_facts
            suppressions[rel] = _decode_suppressions(cached)
            continue

        try:
            ctx = FileContext.parse(rel, source)
        except SyntaxError as error:
            result.violations.append(Violation(
                path=rel, line=error.lineno or 1, col=error.offset or 0,
                rule="PARSE", message=f"syntax error: {error.msg}",
            ))
            cache.put(rel, {"sha": sha, "violations": [
                ["PARSE", error.lineno or 1, error.offset or 0,
                 f"syntax error: {error.msg}"]], "facts": {},
                "line_suppress": {}, "file_suppress": []})
            continue

        file_violations: list[Violation] = []
        for rule in file_rules:
            for violation in rule.check(ctx):
                if not ctx.is_suppressed(violation.rule, violation.line):
                    file_violations.append(violation)
        entry_facts = {}
        for rule in project_rules:
            collected = rule.collect(ctx)
            facts[rule.code][rel] = collected
            entry_facts[rule.code] = collected

        suppressions[rel] = (ctx.line_suppressions, ctx.file_suppressions)
        result.violations.extend(file_violations)
        cache.put(rel, {
            "sha": sha,
            "violations": [[v.rule, v.line, v.col, v.message]
                           for v in file_violations],
            "facts": entry_facts,
            "line_suppress": {str(line): sorted(codes) for line, codes
                              in ctx.line_suppressions.items()},
            "file_suppress": sorted(ctx.file_suppressions),
        })

    for rule in project_rules:
        for violation in rule.finalize(facts[rule.code]):
            if _suppressed(suppressions, violation):
                continue
            result.violations.append(violation)

    if semantic:
        from repro.lint.semantic.engine import (SemanticCache,
                                                semantic_pass)
        semantic_path = Path(semantic_cache_file) \
            if semantic_cache_file is not None \
            else root_path / ".lint-semantic-cache.json"
        semantic_cache = SemanticCache(
            semantic_path if use_cache else None, rules_signature())
        semantic_result = semantic_pass(sources, cache=semantic_cache,
                                        select=select, ignore=ignore)
        result.semantic_enabled = True
        result.semantic_modules = semantic_result.modules_analyzed
        result.semantic_facts_from_cache = semantic_result.facts_from_cache
        result.semantic_facts_computed = semantic_result.facts_computed
        result.semantic_findings_from_cache = \
            semantic_result.findings_from_cache
        result.semantic_findings_computed = \
            semantic_result.findings_computed
        for violation in semantic_result.violations:
            if not _suppressed(suppressions, violation):
                result.violations.append(violation)

    cache.save()
    result.violations.sort()
    return result


def _suppressed(suppressions: dict[str, tuple[dict[int, set[str]],
                                              set[str]]],
                violation: Violation) -> bool:
    per_line, whole_file = suppressions.get(violation.path, ({}, set()))
    if violation.rule in whole_file or "ALL" in whole_file:
        return True
    codes = per_line.get(violation.line, set())
    return violation.rule in codes or "ALL" in codes


def _decode_suppressions(entry: dict) -> tuple[dict[int, set[str]], set[str]]:
    per_line = {int(line): set(codes)
                for line, codes in entry.get("line_suppress", {}).items()}
    return per_line, set(entry.get("file_suppress", ()))


# ----------------------------------------------------------------------
# Baselines: land strict rules without blocking unrelated work
# ----------------------------------------------------------------------
BASELINE_VERSION = 1


def _baseline_key(violation: Violation) -> tuple[str, str, str]:
    # Line numbers drift with unrelated edits; identity is
    # (file, rule, message).  Multiplicity is honoured via counting.
    return (violation.path, violation.rule, violation.message)


def write_baseline(result: LintResult,
                   path: str | os.PathLike) -> int:
    """Record the run's findings as the accepted baseline."""
    findings = [{"path": v.path, "rule": v.rule, "line": v.line,
                 "message": v.message} for v in result.violations]
    payload = {"version": BASELINE_VERSION, "findings": findings}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return len(findings)


def load_baseline(path: str | os.PathLike) -> dict[tuple, int]:
    """Accepted finding keys with multiplicities; {} for a missing or
    unreadable file (every finding then counts as new)."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {}
    counts: dict[tuple, int] = {}
    for finding in payload.get("findings", ()):
        key = (finding.get("path", ""), finding.get("rule", ""),
               finding.get("message", ""))
        counts[key] = counts.get(key, 0) + 1
    return counts


def apply_baseline(result: LintResult,
                   baseline: dict[tuple, int]
                   ) -> tuple[list[Violation], int]:
    """(new violations, number suppressed as already-baselined)."""
    remaining = dict(baseline)
    new: list[Violation] = []
    matched = 0
    for violation in result.violations:
        key = _baseline_key(violation)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            matched += 1
        else:
            new.append(violation)
    return new, matched
