"""Run a scenario's analyses and render the results.

``run_analysis`` returns the body of an analysis's machine document: every
key after the head, which ``result_json`` adds. The table is a rendering of
that same body, so both formats carry the same numbers. Machine output
carries every quantity as an exact ``{num, den}`` rational; the two-decimal
percentage strings alongside them are presentation only and never feed back
into computation.
"""

from __future__ import annotations

from fractions import Fraction

from .core import VotingGame, _assign, _Value
from .engine import DEFAULT_MC_SAMPLES, PowerReport, _check_mc_arguments, power_report
from .equity import allocate_board_seats, board_power, classify_foreign_control, float_adjust
from .ownership import TierVerdict, compare_methods, discrete_propagate, grandfather_equity
from .scenario import Scenario, resolve_quota


def percent_text(value: Fraction) -> str:
    """Render a fraction of 1 as a percentage, two decimals, half-up."""
    q, r = divmod(value.numerator * 10_000, value.denominator)
    if 2 * r >= value.denominator:
        q += 1
    return f"{q // 100}.{q % 100:02d}"


def fraction_json(value: Fraction) -> dict[str, int]:
    return {"num": value.numerator, "den": value.denominator}


class RunOptions(_Value):
    backend: str
    samples: int | None
    seed: int
    interpretation: str

    def __init__(self, backend: str = "enum", samples: int | None = None, seed: int = 0,
                 interpretation: str = "percent") -> None:
        # Checked up front: most analyses never pass samples or seed to a
        # sampler, so a bad value would otherwise go unnoticed.
        if backend == "mc":
            _check_mc_arguments(DEFAULT_MC_SAMPLES if samples is None else samples, seed)
        _assign(self, "backend", backend)
        _assign(self, "samples", samples)
        _assign(self, "seed", seed)
        _assign(self, "interpretation", interpretation)


class AnalysisResult(_Value):
    index: int
    spec: dict
    interpretation: str
    payload: dict


def run_analysis(scenario: Scenario, spec: dict, options: RunOptions) -> dict:
    """The machine document of one analysis, without its head."""
    backend = options.backend

    def power(game: VotingGame) -> dict:
        return power_json(power_report(game, backend, samples=options.samples, seed=options.seed))

    kind = spec["analysis"]
    if kind in ("power", "classify", "float_adjust", "board"):
        game = scenario.build_game(spec["game"], options.interpretation)
        body = {"game": spec["game"], "input": game_json(game)}
        if kind == "power":
            body["power"] = power(game)
        elif kind == "classify":
            verdicts = classify_foreign_control(game, backend=backend)
            body["classifications"] = {k: v.value for k, v in verdicts.items()}
        elif kind == "float_adjust":
            adjusted = float_adjust(game)
            body |= {"adjusted": game_json(adjusted), "power_before": power(game),
                     "power_after": power(adjusted)}
        else:
            quota = (resolve_quota(spec["quota"], options.interpretation) if "quota" in spec
                     else game.quota)
            allocation = allocate_board_seats(game, spec["board_size"])
            report = board_power(game, allocation, quota, backend=backend)
            body |= {"board_size": allocation.board_size,
                     "seats": [{"id": pid, "seats": n} for pid, n in allocation.seats],
                     "board_power": power_json(report)}
        return body
    if kind == "grandfather":
        graph = scenario.build_graph(spec["graph"], options.interpretation)
        share = grandfather_equity(graph, spec["holder"], spec["target"])
        return {"graph": spec["graph"], "holder": spec["holder"], "target": spec["target"],
                "share": fraction_json(share), "share_pct": percent_text(share)}
    if kind == "discrete":
        graph = scenario.build_graph(spec["graph"], options.interpretation)
        return {"graph": spec["graph"],
                "tiers": [tier_json(v) for v in discrete_propagate(graph, backend=backend)]}
    if kind == "compare":
        graph = scenario.build_graph(spec["graph"], options.interpretation)
        comparison = compare_methods(graph, spec["target"], backend=backend)
        return {
            "graph": spec["graph"],
            "target": comparison.target,
            "grandfather_game": game_json(comparison.grandfather_game),
            "grandfather_power": power_json(comparison.grandfather_report),
            "discrete_tier": tier_json(comparison.tier),
            "diverges": comparison.diverges,
        }
    raise ValueError(f"unknown analysis kind {kind!r}")


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
    out: dict = {
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
    """One machine-readable document per analysis: the head, then the body."""
    return {
        "analysis": result.spec["analysis"],
        "index": result.index,
        "quota_interpretation": result.interpretation,
        **result.payload,
    }


def _power_table(game: dict, power: dict, indent: str = "") -> list[str]:
    """Rows for a ``game_json`` document and the ``power_json`` of its game."""
    rows = []
    header = f"{'player':<28} {'weight':>9} {'beta':>6} {'power':>8} {'absolute':>9}  status"
    rows.append(indent + header)
    for player, entry in zip(game["players"], power["players"]):
        statuses = ",".join(entry["statuses"]) or "-"
        cell = (
            f"{player['name'][:28]:<28} {player['weight_pct'] + '%':>9} {entry['beta']:>6} "
            f"{entry['normalized_pct'] + '%':>8} {entry['absolute_pct'] + '%':>9}  {statuses}"
        )
        if "half_width" in entry:
            cell += f" (±{entry['half_width']:.4f})"
        rows.append(indent + cell)
    rows.append(indent + f"total swings: {power['total_swings']}   backend: {power['backend']}")
    return rows


def render_table(result: AnalysisResult) -> str:
    """The table text of ``result``, read from its machine document body."""
    body = result.payload
    kind = result.spec["analysis"]
    head = f"== {kind}"
    lines: list[str] = []
    if kind == "power":
        lines.append(f"{head}: game {body['game']!r}")
        lines += _power_table(body["input"], body["power"])
    elif kind == "classify":
        lines.append(f"{head}: game {body['game']!r}")
        names = {p["id"]: p["name"] for p in body["input"]["players"]}
        for player_id, verdict in body["classifications"].items():
            lines.append(f"{names[player_id]}: {verdict}")
    elif kind == "float_adjust":
        lines.append(f"{head}: game {body['game']!r}")
        lines.append("with public float:")
        lines += _power_table(body["input"], body["power_before"], "  ")
        lines.append("net of public float:")
        lines += _power_table(body["adjusted"], body["power_after"], "  ")
    elif kind == "board":
        lines.append(f"{head}: game {body['game']!r}, {body['board_size']} seats")
        lines.append("seats: " + ", ".join(f"{s['id']}={s['seats']}" for s in body["seats"]))
        lines.append("board power (nominees voting as blocs):")
        # The board report's players mirror the stockholder ids with seat weights.
        for entry in body["board_power"]["players"]:
            lines.append(f"  {entry['id']:<28} beta={entry['beta']:<4} "
                         f"power={entry['normalized_pct']}%")
        lines.append(f"  total swings: {body['board_power']['total_swings']}")
    elif kind == "grandfather":
        share = Fraction(body["share"]["num"], body["share"]["den"])
        lines.append(f"{head}: {body['holder']} -> {body['target']}: "
                     f"{body['share_pct']}% ({share})")
    elif kind == "discrete":
        lines.append(f"{head}: graph {body['graph']!r}")
        for tier in body["tiers"]:
            lines.append(f"tier {tier['corporation']}:")
            lines += _power_table(tier["game"], tier["power"], "  ")
            if tier["controller"] is not None:
                lines.append(f"  controller: {tier['controller']} ({tier['controller_kind']})")
            elif tier["joint_controllers"]:
                lines.append(f"  joint control: {', '.join(tier['joint_controllers'])}")
            for imputation in tier["imputations"]:
                lines.append(f"  block of {imputation['holder']} voted by {imputation['voted_by']}")
    elif kind == "compare":
        lines.append(f"{head}: graph {body['graph']!r}, target {body['target']!r}")
        lines.append("grandfathered fractional game:")
        lines += _power_table(body["grandfather_game"], body["grandfather_power"], "  ")
        lines.append("discrete tier outcome:")
        tier = body["discrete_tier"]
        lines += _power_table(tier["game"], tier["power"], "  ")
        lines.append(f"methods {'DIVERGE' if body['diverges'] else 'agree'}")
    return "\n".join(lines)
