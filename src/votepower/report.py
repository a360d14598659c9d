"""Run a scenario's analyses and render the results.

Machine output carries every quantity as an exact ``{num, den}`` rational;
the two-decimal percentage strings alongside them are presentation only and
never feed back into computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .core import VotingGame
from .engine import PowerReport, power_report
from .equity import (
    ControlClassification,
    SeatAllocation,
    allocate_board_seats,
    board_power,
    classify_foreign_control,
    float_adjust,
)
from .ownership import (
    MethodComparison,
    TierVerdict,
    compare_methods,
    discrete_propagate,
    grandfather_equity,
)
from .scenario import AnalysisSpec, Scenario, resolve_quota


def percent_text(value: Fraction) -> str:
    """Render a fraction of 1 as a percentage, two decimals, half-up."""
    scaled = value * 10_000
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    return f"{q // 100}.{q % 100:02d}"


def fraction_json(value: Fraction) -> dict[str, int]:
    return {"num": value.numerator, "den": value.denominator}


@dataclass(frozen=True)
class RunOptions:
    backend: str = "enum"
    samples: int | None = None
    seed: int = 0
    interpretation: str = "percent"


@dataclass(frozen=True)
class AnalysisResult:
    index: int
    spec: AnalysisSpec
    interpretation: str
    payload: Any


@dataclass(frozen=True)
class PowerResult:
    game_id: str
    game: VotingGame
    report: PowerReport


@dataclass(frozen=True)
class ClassifyResult:
    game_id: str
    game: VotingGame
    classifications: dict[str, ControlClassification]


@dataclass(frozen=True)
class FloatAdjustResult:
    game_id: str
    original: VotingGame
    adjusted: VotingGame
    report_before: PowerReport
    report_after: PowerReport


@dataclass(frozen=True)
class BoardResult:
    game_id: str
    game: VotingGame
    allocation: SeatAllocation
    report: PowerReport


@dataclass(frozen=True)
class GrandfatherResult:
    graph_id: str
    holder: str
    target: str
    share: Fraction


@dataclass(frozen=True)
class DiscreteResult:
    graph_id: str
    verdicts: tuple[TierVerdict, ...]


@dataclass(frozen=True)
class CompareResult:
    graph_id: str
    comparison: MethodComparison


def run_analysis(scenario: Scenario, spec: AnalysisSpec, options: RunOptions) -> Any:
    backend = options.backend
    kwargs = {"samples": options.samples, "seed": options.seed}
    if spec.analysis == "power":
        game = scenario.build_game(spec.game, options.interpretation)
        return PowerResult(spec.game, game, power_report(game, backend, **kwargs))
    if spec.analysis == "classify":
        game = scenario.build_game(spec.game, options.interpretation)
        return ClassifyResult(spec.game, game, classify_foreign_control(game, backend=backend))
    if spec.analysis == "float_adjust":
        game = scenario.build_game(spec.game, options.interpretation)
        adjusted = float_adjust(game)
        return FloatAdjustResult(
            spec.game,
            game,
            adjusted,
            power_report(game, backend, **kwargs),
            power_report(adjusted, backend, **kwargs),
        )
    if spec.analysis == "board":
        game = scenario.build_game(spec.game, options.interpretation)
        quota = resolve_quota(spec.quota, options.interpretation) if spec.quota else game.quota
        return BoardResult(
            spec.game,
            game,
            allocate_board_seats(game, spec.board_size),
            board_power(game, spec.board_size, quota, backend=backend),
        )
    if spec.analysis == "grandfather":
        graph = scenario.build_graph(spec.graph, options.interpretation)
        return GrandfatherResult(
            spec.graph, spec.holder, spec.target,
            grandfather_equity(graph, spec.holder, spec.target),
        )
    if spec.analysis == "discrete":
        graph = scenario.build_graph(spec.graph, options.interpretation)
        return DiscreteResult(spec.graph, discrete_propagate(graph, backend=backend))
    if spec.analysis == "compare":
        graph = scenario.build_graph(spec.graph, options.interpretation)
        return CompareResult(spec.graph, compare_methods(graph, spec.target, backend=backend))
    raise ValueError(f"unknown analysis kind {spec.analysis!r}")


def run_scenario(scenario: Scenario, options: RunOptions | None = None) -> list[AnalysisResult]:
    options = options or RunOptions()
    return [
        AnalysisResult(i, spec, options.interpretation, run_analysis(scenario, spec, options))
        for i, spec in enumerate(scenario.analyses)
    ]


def game_json(game: VotingGame) -> dict:
    return {
        "quota": fraction_json(game.quota.threshold),
        "total_weight_bp": fraction_json(game.total_weight.bp),
        "players": [
            {
                "id": p.id,
                "name": p.name,
                "nationality": p.nationality.kind.value,
                "weight_bp": fraction_json(p.weight.bp),
                "weight_pct": percent_text(p.weight.bp / 10_000),
            }
            for p in game.players
        ],
    }


def power_json(report: PowerReport) -> dict:
    out: dict[str, Any] = {
        "backend": report.backend,
        "total_swings": report.total_swings,
        "players": [
            {
                "id": e.player_id,
                "beta": e.beta,
                "normalized": fraction_json(e.normalized),
                "normalized_pct": percent_text(e.normalized),
                "absolute": fraction_json(e.absolute),
                "absolute_pct": percent_text(e.absolute),
                "statuses": sorted(s.value for s in e.statuses),
                **({"half_width": e.half_width} if e.half_width is not None else {}),
            }
            for e in report.entries
        ],
    }
    if report.samples is not None:
        out["samples"] = report.samples
        out["seed"] = report.seed
    return out


def tier_json(verdict: TierVerdict) -> dict:
    return {
        "corporation": verdict.corporation,
        "game": game_json(verdict.game),
        "power": power_json(verdict.report),
        "controller": verdict.controller,
        "controller_kind": verdict.controller_kind.value if verdict.controller_kind else None,
        "joint_controllers": list(verdict.joint_controllers),
        "imputations": [
            {"holder": i.holder, "voted_by": i.voted_by} for i in verdict.imputations
        ],
    }


def result_json(result: AnalysisResult) -> dict:
    """One machine-readable document per analysis."""
    payload = result.payload
    head = {
        "analysis": result.spec.analysis,
        "index": result.index,
        "quota_interpretation": result.interpretation,
    }
    if isinstance(payload, PowerResult):
        return {**head, "game": payload.game_id, "input": game_json(payload.game),
                "power": power_json(payload.report)}
    if isinstance(payload, ClassifyResult):
        return {**head, "game": payload.game_id, "input": game_json(payload.game),
                "classifications": {k: v.value for k, v in payload.classifications.items()}}
    if isinstance(payload, FloatAdjustResult):
        return {
            **head,
            "game": payload.game_id,
            "input": game_json(payload.original),
            "adjusted": game_json(payload.adjusted),
            "power_before": power_json(payload.report_before),
            "power_after": power_json(payload.report_after),
        }
    if isinstance(payload, BoardResult):
        return {
            **head,
            "game": payload.game_id,
            "input": game_json(payload.game),
            "board_size": payload.allocation.board_size,
            "seats": [{"id": pid, "seats": n} for pid, n in payload.allocation.seats],
            "board_power": power_json(payload.report),
        }
    if isinstance(payload, GrandfatherResult):
        return {
            **head,
            "graph": payload.graph_id,
            "holder": payload.holder,
            "target": payload.target,
            "share": fraction_json(payload.share),
            "share_pct": percent_text(payload.share),
        }
    if isinstance(payload, DiscreteResult):
        return {**head, "graph": payload.graph_id,
                "tiers": [tier_json(v) for v in payload.verdicts]}
    if isinstance(payload, CompareResult):
        comparison = payload.comparison
        return {
            **head,
            "graph": payload.graph_id,
            "target": comparison.target,
            "grandfather_game": game_json(comparison.grandfather_game),
            "grandfather_power": power_json(comparison.grandfather_report),
            "discrete_tier": tier_json(comparison.tier),
            "diverges": comparison.diverges,
        }
    raise TypeError(f"cannot render {type(payload).__name__}")


def _power_table(game: VotingGame, report: PowerReport, indent: str = "") -> list[str]:
    rows = []
    header = f"{'player':<28} {'weight':>9} {'beta':>6} {'power':>8} {'absolute':>9}  status"
    rows.append(indent + header)
    for player, entry in zip(game.players, report.entries):
        statuses = ",".join(sorted(s.value for s in entry.statuses)) or "-"
        weight_pct = percent_text(player.weight.bp / 10_000)
        cell = (
            f"{player.name[:28]:<28} {weight_pct + '%':>9} {entry.beta:>6} "
            f"{percent_text(entry.normalized) + '%':>8} {percent_text(entry.absolute) + '%':>9}  {statuses}"
        )
        if entry.half_width is not None:
            cell += f" (±{entry.half_width:.4f})"
        rows.append(indent + cell)
    rows.append(indent + f"total swings: {report.total_swings}   backend: {report.backend}")
    return rows


def render_table(result: AnalysisResult) -> str:
    payload = result.payload
    lines: list[str] = []
    head = f"== {result.spec.analysis}"
    if isinstance(payload, PowerResult):
        lines.append(f"{head}: game {payload.game_id!r}")
        lines += _power_table(payload.game, payload.report)
    elif isinstance(payload, ClassifyResult):
        lines.append(f"{head}: game {payload.game_id!r}")
        for player_id, verdict in payload.classifications.items():
            lines.append(f"{payload.game.player(player_id).name}: {verdict.value}")
    elif isinstance(payload, FloatAdjustResult):
        lines.append(f"{head}: game {payload.game_id!r}")
        lines.append("with public float:")
        lines += _power_table(payload.original, payload.report_before, "  ")
        lines.append("net of public float:")
        lines += _power_table(payload.adjusted, payload.report_after, "  ")
    elif isinstance(payload, BoardResult):
        lines.append(f"{head}: game {payload.game_id!r}, {payload.allocation.board_size} seats")
        seats = ", ".join(f"{pid}={n}" for pid, n in payload.allocation.seats)
        lines.append(f"seats: {seats}")
        lines.append("board power (nominees voting as blocs):")
        lines += _board_table(payload)
    elif isinstance(payload, GrandfatherResult):
        lines.append(
            f"{head}: {payload.holder} -> {payload.target}: "
            f"{percent_text(payload.share)}% ({payload.share})"
        )
    elif isinstance(payload, DiscreteResult):
        lines.append(f"{head}: graph {payload.graph_id!r}")
        for verdict in payload.verdicts:
            lines.append(f"tier {verdict.corporation}:")
            lines += _power_table(verdict.game, verdict.report, "  ")
            if verdict.controller is not None:
                lines.append(f"  controller: {verdict.controller} ({verdict.controller_kind.value})")
            elif verdict.joint_controllers:
                lines.append(f"  joint control: {', '.join(verdict.joint_controllers)}")
            for imputation in verdict.imputations:
                lines.append(f"  block of {imputation.holder} voted by {imputation.voted_by}")
    elif isinstance(payload, CompareResult):
        comparison = payload.comparison
        lines.append(f"{head}: graph {payload.graph_id!r}, target {comparison.target!r}")
        lines.append("grandfathered fractional game:")
        lines += _power_table(comparison.grandfather_game, comparison.grandfather_report, "  ")
        lines.append("discrete tier outcome:")
        lines += _power_table(comparison.tier.game, comparison.tier.report, "  ")
        lines.append(f"methods {'DIVERGE' if comparison.diverges else 'agree'}")
    else:
        raise TypeError(f"cannot render {type(payload).__name__}")
    return "\n".join(lines)


def _board_table(payload: BoardResult) -> list[str]:
    # The board report's players mirror the stockholder ids with seat weights.
    rows = []
    for entry in payload.report.entries:
        rows.append(
            f"  {entry.player_id:<28} beta={entry.beta:<4} "
            f"power={percent_text(entry.normalized)}%"
        )
    rows.append(f"  total swings: {payload.report.total_swings}")
    return rows
