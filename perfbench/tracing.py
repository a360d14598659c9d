"""Span tracing of the votepower layers from outside the package.

``Tracer.install`` replaces the listed functions, in every ``votepower``
module that holds them, with wrappers that record a span (name, start, end,
parent span, op id). Each op runs in a forked process, which hands its
spans and counters back with ``state``; the workload process ``absorb``s
them and keeps them in memory until ``write`` at the end of the run. A
layer's self time is its span minus the spans of its children.

Counters that need extra work (lowering a game to find its reduced form)
run inside the wrappers on a hidden clock: their time is taken out of every
open span, so they do not show up as self time of the layer that called
them.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# module -> functions traced. Hot leaf predicates (is_dictator, has_veto,
# percent_text, fraction_json) are left out: they run up to n^2 times per
# game and a wrapper would cost more than they do.
TRACED = {
    "scenario": ("loads", "parse", "Scenario.build_game", "Scenario.build_graph"),
    "core": ("make_game",),
    "engine": ("power_report", "swing_counts_enum", "swing_counts_dp",
               "swing_estimate_mc", "_integer_form", "_exact_report", "_sampling_statuses"),
    "equity": ("classify_foreign_control", "float_adjust", "board_power",
               "allocate_board_seats", "control_test"),
    "ownership": ("make_graph", "discrete_propagate", "tier_verdict", "compare_methods",
                  "grandfather_equity", "_tier_game", "nationality_verdict"),
    "report": ("run_analysis", "run_scenario", "result_json", "render_table"),
    "corpus": ("verify_corpus", "verify_file"),
}

RECORDED = ("spans", "calls", "errors", "games", "players", "repeated_players", "max_n",
            "max_w", "work")


def reduced_form(game) -> tuple[tuple[int, ...], int]:
    """Integer weights divided by their gcd, and the least winning total."""
    bps = [p.weight.bp for p in game.players]
    scale = math.lcm(*(b.denominator for b in bps))
    weights = [int(b * scale) for b in bps]
    g = math.gcd(*weights) or 1
    weights = [w // g for w in weights]
    q = game.quota.threshold * sum(weights)
    return tuple(weights), -(-q.numerator // q.denominator)


class Tracer:
    """Spans and counters of one traced workload process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.op = -1
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter; the wrappers stay installed."""
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.stack: list[int] = []
        self.hidden = 0.0
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.games: Counter = Counter()
        # power_report calls on a game the same op had already reported on.
        self.repeated_in_op = 0
        self.players = 0
        self.repeated_players = 0
        self.max_n: dict[str, int] = defaultdict(int)
        self.max_w: dict[str, int] = defaultdict(int)
        self.work: Counter = Counter()

    def now(self) -> float:
        return time.perf_counter() - self.hidden

    def wrap(self, name: str, fn, hook=None):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            self.calls[name] += 1
            start = self.now()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except Exception as exc:
                self.errors[name, type(exc)] += 1
                raise
            finally:
                self.spans[index] = (name_id, start, self.now(), parent, self.op)
                self.stack.pop()
                if hook is not None:
                    begin = time.perf_counter()
                    hook(args, kwargs, ok)
                    self.hidden += time.perf_counter() - begin

        return traced

    def install(self, extra: dict) -> None:
        """Wrap ``TRACED`` in the imported ``votepower`` modules, and every
        ``(owner, attribute) -> span name`` pair in ``extra``."""
        hooks = {
            "engine.power_report": self._count_game,
            "engine.swing_counts_enum": self._count_enum,
            "engine.swing_counts_dp": self._count_dp,
            "engine.swing_estimate_mc": self._count_mc,
        }
        package = [m for name, m in sys.modules.items() if name.startswith("votepower")]
        for short, names in TRACED.items():
            module = sys.modules[f"votepower.{short}"]
            for attr in names:
                span = f"{short}.{attr.split('.')[-1]}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, method, self.wrap(span, getattr(cls, method)))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(span, original, hooks.get(span))
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
        for (owner, attr), span in extra.items():
            setattr(owner, attr, self.wrap(span, getattr(owner, attr)))

    # Counter hooks: the wrapped call's arguments and whether it returned.
    # Work units count only calls that completed.

    def _count_game(self, args, kwargs, ok) -> None:
        game = args[0]
        backend = args[1] if len(args) > 1 else kwargs.get("backend", "enum")
        weights, threshold = reduced_form(game)
        self.games[backend, kwargs.get("samples"), weights, threshold] += 1
        counts = Counter(weights)
        self.players += len(weights)
        self.repeated_players += sum(c for c in counts.values() if c > 1)
        self.max_n[backend] = max(self.max_n[backend], len(weights))
        self.max_w[backend] = max(self.max_w[backend], sum(weights))

    def _count_enum(self, args, kwargs, ok) -> None:
        if ok:
            self.work["enum.coalitions"] += 1 << args[0].n

    def _count_dp(self, args, kwargs, ok) -> None:
        if ok:
            weights, _ = reduced_form(args[0])
            self.work["dp.cells"] += len(weights) * sum(weights)

    def _count_mc(self, args, kwargs, ok) -> None:
        if ok:
            samples = args[1] if len(args) > 1 else kwargs["samples"]
            self.work["mc.draws"] += samples * args[0].n

    def state(self) -> dict:
        """The spans and counters recorded so far, for ``absorb``."""
        return {key: getattr(self, key) for key in RECORDED}

    def absorb(self, state: dict) -> None:
        """Add the spans and counters an op process recorded; its spans'
        parents are renumbered to follow the spans already held."""
        base = len(self.spans)
        self.spans.extend((name_id, start, end, parent + base if parent >= 0 else -1, op)
                          for name_id, start, end, parent, op in state["spans"])
        for key in ("calls", "errors", "games", "work"):
            getattr(self, key).update(state[key])
        self.repeated_in_op += sum(count - 1 for count in state["games"].values())
        self.players += state["players"]
        self.repeated_players += state["repeated_players"]
        for key in ("max_n", "max_w"):
            held = getattr(self, key)
            for backend, value in state[key].items():
                held[backend] = max(held[backend], value)

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per span name, over all recorded spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            totals[self.names[name_id]] += end - start - child[i]
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                  "names": self.names}) + "\n")
            for name_id, start, end, parent, op in self.spans:
                out.write(f"[{name_id},{start:.7f},{end:.7f},{parent},{op}]\n")


def per_layer(tracer: Tracer, passes: int, graphs: int, limit_error: type,
              corpus_checks: tuple[int, int]) -> tuple[dict, dict]:
    """Per-layer metrics per pass of the workload, and input properties.

    Every pass runs the same documents, so distinct games are counted over
    the whole run and all other figures are divided by the pass count.
    ``graphs`` is the number of graphs in the documents run, over all
    passes; ``corpus_checks`` the checks ``verify_corpus`` made and failed.
    """
    ms = {k: v * 1000 / passes for k, v in tracer.self_times().items()}
    calls = {k: v / passes for k, v in tracer.calls.items()}
    work = {k: v / passes for k, v in tracer.work.items()}

    def total(*names):
        return sum(ms.get(n, 0.0) for n in names)

    errors = Counter()
    limit_errors = 0
    for (span, kind), count in tracer.errors.items():
        if span == "engine.power_report":
            errors[kind.__name__] += count
            limit_errors += count if issubclass(kind, limit_error) else 0
    engine_calls = tracer.calls["engine.power_report"] / passes
    metrics = {
        "scenario.parse_ms": total("scenario.loads", "scenario.parse"),
        "scenario.build_ms": total("scenario.build_game", "scenario.build_graph",
                                   "ownership.make_graph"),
        "scenario.graph_builds": calls.get("scenario.build_graph", 0),
        "core.make_game_calls": calls.get("core.make_game", 0),
        "core.make_game_ms": total("core.make_game"),
        "engine.calls": calls.get("engine.power_report", 0),
        "engine.distinct_games": len(tracer.games),
        "engine.lower_ms": total("engine._integer_form"),
        "engine.report_ms": total("engine.power_report", "engine._integer_form",
                                  "engine._exact_report", "engine._sampling_statuses"),
        "engine.enum.count_ms": total("engine.swing_counts_enum"),
        "engine.enum.coalitions": work.get("enum.coalitions", 0),
        "engine.dp.count_ms": total("engine.swing_counts_dp"),
        "engine.dp.cells": work.get("dp.cells", 0),
        "engine.mc.ms": total("engine.swing_estimate_mc"),
        "engine.mc.draws": work.get("mc.draws", 0),
        "engine.limit_errors": limit_errors / passes,
        "engine.crashes": (sum(errors.values()) - limit_errors) / passes,
        "equity.classify_ms": total("equity.classify_foreign_control"),
        "equity.float_adjust_ms": total("equity.float_adjust"),
        "equity.board_ms": total("equity.board_power", "equity.allocate_board_seats"),
        "ownership.propagations": calls.get("ownership.discrete_propagate", 0),
        "ownership.tier_games": calls.get("ownership._tier_game", 0),
        "ownership.propagate_ms": total("ownership.discrete_propagate", "ownership._tier_game",
                                        "ownership.tier_verdict"),
        "ownership.grandfather_calls": calls.get("ownership.grandfather_equity", 0),
        "ownership.grandfather_ms": total("ownership.grandfather_equity"),
        "ownership.compare_ms": total("ownership.compare_methods"),
        "report.run_ms": total("report.run_analysis", "report.run_scenario"),
        "report.json_ms": total("report.result_json"),
        "report.encode_ms": total("report.encode"),
        "report.table_ms": total("report.render_table"),
        "corpus.verify_ms": total("corpus.verify_corpus", "corpus.verify_file"),
        "corpus.checks": corpus_checks[0] / passes,
        "corpus.checks_failed": corpus_checks[1] / passes,
    }
    inputs = {
        "repeated_game_share": tracer.repeated_in_op / passes / engine_calls if engine_calls else 0.0,
        "repeated_weight_share": tracer.repeated_players / tracer.players if tracer.players else 0.0,
        "propagations_per_graph": tracer.calls["ownership.discrete_propagate"] / graphs if graphs else 0.0,
        "max_n": dict(tracer.max_n),
        "max_reduced_w": dict(tracer.max_w),
        "power_report_errors": dict(errors),
    }
    return metrics, inputs
