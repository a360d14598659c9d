"""Shipped scenario corpus and its verification.

Every expected value in the corpus was recomputed from first principles by
the exact backends before being frozen here; verification re-runs the
scenarios and diffs the machine-readable output against those values. Where
a published source table disagrees with exact recomputation, the corpus
records the published row as a documented divergence next to the computed
truth, and verification reports it without failing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .core import _Value
from .report import AnalysisResult, RunOptions, result_json, run_analysis
from .scenario import ScenarioValidationError, parse

DEFAULT_INTERPRETATIONS = ("percent",)


def corpus_dir() -> Path:
    return Path(__file__).with_name("corpus")


def corpus_names() -> list[str]:
    return sorted(p.stem for p in corpus_dir().glob("*.json"))


class CheckOutcome(_Value):
    scenario: str
    analysis_index: int
    interpretation: str
    passed: bool
    mismatches: tuple[str, ...] = ()
    divergence: str | None = None


class CorpusReport(_Value):
    """The outcomes of a corpus verification, in scenario order."""

    outcomes: tuple[CheckOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def summary_lines(self) -> list[str]:
        lines = []
        by_scenario: dict[str, list[CheckOutcome]] = {}
        for outcome in self.outcomes:
            by_scenario.setdefault(outcome.scenario, []).append(outcome)
        for name, outcomes in sorted(by_scenario.items()):
            ok = all(o.passed for o in outcomes)
            divergences = sum(1 for o in outcomes if o.divergence)
            status = "PASS" if ok else "FAIL"
            extra = f", {divergences} documented divergence(s)" if divergences else ""
            lines.append(f"{status} {name} ({len(outcomes)} checks{extra})")
            for outcome in outcomes:
                if not outcome.passed:
                    for mismatch in outcome.mismatches:
                        lines.append(
                            f"  analysis {outcome.analysis_index}"
                            f" [{outcome.interpretation}]: {mismatch}"
                        )
                if outcome.divergence:
                    lines.append(
                        f"  analysis {outcome.analysis_index}"
                        f" [{outcome.interpretation}]: documented divergence: {outcome.divergence}"
                    )
        lines.append(
            f"{'all scenarios pass' if self.passed else 'corpus verification FAILED'}"
        )
        return lines


def _match(expected: Any, actual: Any, path: str, mismatches: list[str]) -> None:
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            mismatches.append(f"{path}: expected object, got {type(actual).__name__}")
            return
        for key, value in expected.items():
            if key not in actual:
                mismatches.append(f"{path}.{key}: missing from computed result")
            else:
                _match(value, actual[key], f"{path}.{key}", mismatches)
        return
    if isinstance(expected, list):
        if not isinstance(actual, list):
            mismatches.append(f"{path}: expected array, got {type(actual).__name__}")
            return
        if len(expected) != len(actual):
            mismatches.append(f"{path}: expected {len(expected)} items, got {len(actual)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _match(e, a, f"{path}[{i}]", mismatches)
        return
    if expected != actual:
        mismatches.append(f"{path}: expected {expected!r}, got {actual!r}")


def verify_file(path: Path) -> list[CheckOutcome]:
    document = json.loads(path.read_text(encoding="utf-8"))
    return verify_document(document, document.get("name", path.stem))


def verify_document(document: dict, name: str) -> list[CheckOutcome]:
    """Run every check of an already-decoded corpus document."""
    scenario = parse(document["scenario"])
    checks = document.get("checks", [])
    outcomes: list[CheckOutcome] = []
    for check in checks:
        index = check["analysis"]
        if not 0 <= index < len(scenario.analyses):
            raise ScenarioValidationError(f"{name}: check references analysis {index}")
        spec = scenario.analyses[index]
        interpretations = check.get("interpretations", list(DEFAULT_INTERPRETATIONS))
        for interpretation in interpretations:
            payload = run_analysis(scenario, spec, RunOptions(interpretation=interpretation))
            actual = result_json(AnalysisResult(index, spec, interpretation, payload))
            mismatches: list[str] = []
            expect = check.get("expect", {})
            if isinstance(expect, dict) and "by_interpretation" in expect:
                expect = expect["by_interpretation"][interpretation]
            _match(expect, actual, "$", mismatches)
            divergence = None
            documented = check.get("documented_divergence")
            if documented:
                divergence = documented.get("note", "published value differs from recomputation")
            outcomes.append(
                CheckOutcome(
                    scenario=name,
                    analysis_index=index,
                    interpretation=interpretation,
                    passed=not mismatches,
                    mismatches=tuple(mismatches),
                    divergence=divergence,
                )
            )
    return outcomes


def verify_corpus(subset: list[str] | None = None) -> CorpusReport:
    """Recompute every golden table in the corpus and diff the results."""
    names = corpus_names()
    if subset:
        unknown = sorted(set(subset) - set(names))
        if unknown:
            raise ScenarioValidationError(f"unknown corpus scenario(s): {', '.join(unknown)}")
        names = [n for n in names if n in subset]
    return CorpusReport(tuple(outcome for name in names
                              for outcome in verify_file(corpus_dir() / f"{name}.json")))
