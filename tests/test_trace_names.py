"""The perf harness in ``perfbench/tracing.py`` wraps library functions by
name. A refactor that renames one of them must fail here, not in a traced
benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = _traced()
    assert "engine" in traced and "_exact_report" in traced["engine"]
    missing = []
    for short, names in traced.items():
        module = importlib.import_module(f"votepower.{short}")
        for name in names:
            owner = module
            # Dotted names are class methods, such as Scenario.build_game.
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"votepower.{short}.{name}")
    assert missing == []
