"""Versioned JSON scenario files.

The on-disk format carries integers only: weights are integer basis points
and quotas are integer numerator/denominator pairs, so every value
round-trips bit-exactly. The one symbolic quota, ``"supermajority"``, is
resolved at load time to either 67/100 or exactly 2/3 according to the
chosen interpretation, because published tables write it both ways.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from .core import (
    Nationality,
    NationalityKind,
    Player,
    Quota,
    ValidationError,
    VotePowerError,
    VotingGame,
    Weight,
    make_game,
)
from .ownership import Entity, Holding, OwnershipGraph, make_graph

SCHEMA_VERSION = 1
SUPERMAJORITY = "supermajority"

INTERPRETATIONS = ("percent", "exact-fraction")
_SUPERMAJORITY_QUOTA = {
    "percent": (67, 100),
    "exact-fraction": (2, 3),
}

ANALYSIS_KINDS = ("power", "classify", "float_adjust", "board", "grandfather", "discrete", "compare")

_NATIONALITIES = {
    "domestic": NationalityKind.DOMESTIC,
    "foreign": NationalityKind.FOREIGN,
    "public_float": NationalityKind.PUBLIC_FLOAT,
}


class ScenarioError(VotePowerError):
    """Base class for scenario file problems."""


class ScenarioParseError(ScenarioError):
    """The file is not well-formed JSON; carries line and column."""


class ScenarioValidationError(ScenarioError, ValueError):
    """The document violates the schema; the message names the position."""


def _fail(path: str, message: str) -> None:
    raise ScenarioValidationError(f"{path}: {message}")


def _expect_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_array(value: Any, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _expect_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"expected a string, got {type(value).__name__}")
    return value


def _expect_int(value: Any, path: str) -> int:
    # bool is an int subclass; floats are banned outright by the format.
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {type(value).__name__}")
    return value


def _get(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        _fail(path, f"missing required field {key!r}")
    return obj[key]


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            _fail(path, f"unknown field {key!r}")


@dataclass(frozen=True)
class QuotaSpec:
    """Either an exact integer pair or the symbolic supermajority."""

    value: tuple[int, int] | str

    @classmethod
    def parse(cls, raw: Any, path: str) -> "QuotaSpec":
        if raw == SUPERMAJORITY:
            return cls(SUPERMAJORITY)
        obj = _expect_object(raw, path)
        _reject_unknown(obj, {"num", "den"}, path)
        num = _expect_int(_get(obj, "num", path), f"{path}.num")
        den = _expect_int(_get(obj, "den", path), f"{path}.den")
        if den <= 0 or num <= 0:
            _fail(path, "quota numerator and denominator must be positive")
        if num > den:
            _fail(path, "quota must not exceed 1")
        return cls((num, den))

    def resolve(self, interpretation: str) -> Quota:
        if self.value == SUPERMAJORITY:
            num, den = _SUPERMAJORITY_QUOTA[interpretation]
            return Quota.of(num, den)
        num, den = self.value
        return Quota.of(num, den)

    def to_json(self) -> Any:
        if self.value == SUPERMAJORITY:
            return SUPERMAJORITY
        return {"num": self.value[0], "den": self.value[1]}


@dataclass(frozen=True)
class EntitySpec:
    id: str
    name: str
    nationality: str
    country: str | None = None


@dataclass(frozen=True)
class GamePlayerSpec:
    entity: str
    weight_bp: int


@dataclass(frozen=True)
class GameSpec:
    id: str
    quota: QuotaSpec
    players: tuple[GamePlayerSpec, ...]


@dataclass(frozen=True)
class HoldingSpec:
    holder: str
    corporation: str
    weight_bp: int


@dataclass(frozen=True)
class GraphSpec:
    id: str
    holdings: tuple[HoldingSpec, ...]
    quotas: tuple[tuple[str, QuotaSpec], ...]


@dataclass(frozen=True)
class AnalysisSpec:
    analysis: str
    game: str | None = None
    graph: str | None = None
    holder: str | None = None
    target: str | None = None
    board_size: int | None = None
    quota: QuotaSpec | None = None


@dataclass(frozen=True)
class Scenario:
    schema_version: int
    entities: tuple[EntitySpec, ...]
    games: tuple[GameSpec, ...]
    graphs: tuple[GraphSpec, ...]
    analyses: tuple[AnalysisSpec, ...]
    _graphs: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def entity(self, entity_id: str) -> EntitySpec:
        for entity in self.entities:
            if entity.id == entity_id:
                return entity
        raise ScenarioValidationError(f"unknown entity {entity_id!r}")

    def game_spec(self, game_id: str) -> GameSpec:
        for game in self.games:
            if game.id == game_id:
                return game
        raise ScenarioValidationError(f"unknown game {game_id!r}")

    def graph_spec(self, graph_id: str) -> GraphSpec:
        for graph in self.graphs:
            if graph.id == graph_id:
                return graph
        raise ScenarioValidationError(f"unknown graph {graph_id!r}")

    def _nationality(self, spec: EntitySpec) -> Nationality:
        return Nationality(_NATIONALITIES[spec.nationality], spec.country)

    def build_game(self, game_id: str, interpretation: str = "percent") -> VotingGame:
        spec = self.game_spec(game_id)
        entities = {e.id: e for e in self.entities}
        players = []
        for member in spec.players:
            # Parsing validated the ids; self.entity only raises the error.
            entity = entities.get(member.entity) or self.entity(member.entity)
            players.append(
                Player(
                    id=entity.id,
                    name=entity.name,
                    nationality=self._nationality(entity),
                    weight=Weight(Fraction(member.weight_bp)),
                )
            )
        return make_game(spec.quota.resolve(interpretation), players)

    def build_graph(self, graph_id: str, interpretation: str = "percent") -> OwnershipGraph:
        """The graph, built once per (graph id, interpretation) and then shared."""
        key = (graph_id, interpretation)
        if key in self._graphs:
            return self._graphs[key]
        spec = self.graph_spec(graph_id)
        referenced = {h.holder for h in spec.holdings} | {h.corporation for h in spec.holdings}
        entities = [
            Entity(e.id, e.name, self._nationality(e))
            for e in self.entities
            if e.id in referenced
        ]
        holdings = [
            Holding(h.holder, h.corporation, Weight(Fraction(h.weight_bp)))
            for h in spec.holdings
        ]
        quotas = {corp: q.resolve(interpretation) for corp, q in spec.quotas}
        return self._graphs.setdefault(key, make_graph(entities, holdings, quotas))

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "entities": [
                {
                    "id": e.id,
                    "name": e.name,
                    "nationality": e.nationality,
                    **({"country": e.country} if e.country is not None else {}),
                }
                for e in self.entities
            ],
            "games": [
                {
                    "id": g.id,
                    "quota": g.quota.to_json(),
                    "players": [
                        {"entity": p.entity, "weight_bp": p.weight_bp} for p in g.players
                    ],
                }
                for g in self.games
            ],
            "graphs": [
                {
                    "id": g.id,
                    "holdings": [
                        {
                            "holder": h.holder,
                            "corporation": h.corporation,
                            "weight_bp": h.weight_bp,
                        }
                        for h in g.holdings
                    ],
                    "quotas": [
                        {"corporation": corp, "quota": q.to_json()} for corp, q in g.quotas
                    ],
                }
                for g in self.graphs
            ],
            "analyses": [_analysis_to_dict(a) for a in self.analyses],
        }


def _analysis_to_dict(spec: AnalysisSpec) -> dict:
    out: dict[str, Any] = {"analysis": spec.analysis}
    for key in ("game", "graph", "holder", "target"):
        value = getattr(spec, key)
        if value is not None:
            out[key] = value
    if spec.board_size is not None:
        out["board_size"] = spec.board_size
    if spec.quota is not None:
        out["quota"] = spec.quota.to_json()
    return out


_ANALYSIS_FIELDS: dict[str, tuple[set[str], set[str]]] = {
    # kind -> (required fields, optional fields)
    "power": ({"game"}, set()),
    "classify": ({"game"}, set()),
    "float_adjust": ({"game"}, set()),
    "board": ({"game", "board_size"}, {"quota"}),
    "grandfather": ({"graph", "holder", "target"}, set()),
    "discrete": ({"graph"}, set()),
    "compare": ({"graph", "target"}, set()),
}


def _parse_entity(raw: Any, path: str) -> EntitySpec:
    obj = _expect_object(raw, path)
    _reject_unknown(obj, {"id", "name", "nationality", "country"}, path)
    nationality = _expect_str(_get(obj, "nationality", path), f"{path}.nationality")
    if nationality not in _NATIONALITIES:
        _fail(f"{path}.nationality", f"expected one of {sorted(_NATIONALITIES)}, got {nationality!r}")
    country = None
    if "country" in obj:
        country = _expect_str(obj["country"], f"{path}.country")
        if nationality == "public_float":
            _fail(f"{path}.country", "a public-float aggregate carries no country label")
    return EntitySpec(
        id=_expect_str(_get(obj, "id", path), f"{path}.id"),
        name=_expect_str(_get(obj, "name", path), f"{path}.name"),
        nationality=nationality,
        country=country,
    )


def _parse_game(raw: Any, path: str, entity_ids: set[str]) -> GameSpec:
    obj = _expect_object(raw, path)
    _reject_unknown(obj, {"id", "quota", "players"}, path)
    players = []
    seen: set[str] = set()
    for i, member in enumerate(_expect_array(_get(obj, "players", path), f"{path}.players")):
        member_path = f"{path}.players[{i}]"
        member_obj = _expect_object(member, member_path)
        _reject_unknown(member_obj, {"entity", "weight_bp"}, member_path)
        entity = _expect_str(_get(member_obj, "entity", member_path), f"{member_path}.entity")
        if entity not in entity_ids:
            _fail(f"{member_path}.entity", f"unknown entity {entity!r}")
        if entity in seen:
            _fail(f"{member_path}.entity", f"duplicate player {entity!r}")
        seen.add(entity)
        weight = _expect_int(_get(member_obj, "weight_bp", member_path), f"{member_path}.weight_bp")
        if weight < 0:
            _fail(f"{member_path}.weight_bp", "weight must be non-negative")
        players.append(GamePlayerSpec(entity=entity, weight_bp=weight))
    return GameSpec(
        id=_expect_str(_get(obj, "id", path), f"{path}.id"),
        quota=QuotaSpec.parse(_get(obj, "quota", path), f"{path}.quota"),
        players=tuple(players),
    )


def _parse_graph(raw: Any, path: str, entity_ids: set[str]) -> GraphSpec:
    obj = _expect_object(raw, path)
    _reject_unknown(obj, {"id", "holdings", "quotas"}, path)
    holdings = []
    for i, holding in enumerate(_expect_array(_get(obj, "holdings", path), f"{path}.holdings")):
        holding_path = f"{path}.holdings[{i}]"
        holding_obj = _expect_object(holding, holding_path)
        _reject_unknown(holding_obj, {"holder", "corporation", "weight_bp"}, holding_path)
        holder = _expect_str(_get(holding_obj, "holder", holding_path), f"{holding_path}.holder")
        corporation = _expect_str(
            _get(holding_obj, "corporation", holding_path), f"{holding_path}.corporation"
        )
        for endpoint in (holder, corporation):
            if endpoint not in entity_ids:
                _fail(holding_path, f"unknown entity {endpoint!r}")
        weight = _expect_int(
            _get(holding_obj, "weight_bp", holding_path), f"{holding_path}.weight_bp"
        )
        if weight < 0:
            _fail(f"{holding_path}.weight_bp", "weight must be non-negative")
        holdings.append(HoldingSpec(holder=holder, corporation=corporation, weight_bp=weight))
    quotas = []
    for i, quota in enumerate(_expect_array(_get(obj, "quotas", path), f"{path}.quotas")):
        quota_path = f"{path}.quotas[{i}]"
        quota_obj = _expect_object(quota, quota_path)
        _reject_unknown(quota_obj, {"corporation", "quota"}, quota_path)
        corporation = _expect_str(
            _get(quota_obj, "corporation", quota_path), f"{quota_path}.corporation"
        )
        if corporation not in entity_ids:
            _fail(quota_path, f"unknown entity {corporation!r}")
        quotas.append(
            (corporation, QuotaSpec.parse(_get(quota_obj, "quota", quota_path), f"{quota_path}.quota"))
        )
    return GraphSpec(
        id=_expect_str(_get(obj, "id", path), f"{path}.id"),
        holdings=tuple(holdings),
        quotas=tuple(quotas),
    )


def _parse_analysis(
    raw: Any, path: str, entity_ids: set[str], game_ids: set[str], graph_ids: set[str]
) -> AnalysisSpec:
    obj = _expect_object(raw, path)
    kind = _expect_str(_get(obj, "analysis", path), f"{path}.analysis")
    if kind not in _ANALYSIS_FIELDS:
        _fail(f"{path}.analysis", f"expected one of {sorted(_ANALYSIS_FIELDS)}, got {kind!r}")
    required, optional = _ANALYSIS_FIELDS[kind]
    _reject_unknown(obj, {"analysis"} | required | optional, path)
    for field_name in required:
        _get(obj, field_name, path)
    values: dict[str, Any] = {"analysis": kind}
    if "game" in obj:
        game = _expect_str(obj["game"], f"{path}.game")
        if game not in game_ids:
            _fail(f"{path}.game", f"unknown game {game!r}")
        values["game"] = game
    if "graph" in obj:
        graph = _expect_str(obj["graph"], f"{path}.graph")
        if graph not in graph_ids:
            _fail(f"{path}.graph", f"unknown graph {graph!r}")
        values["graph"] = graph
    for field_name in ("holder", "target"):
        if field_name in obj:
            entity = _expect_str(obj[field_name], f"{path}.{field_name}")
            if entity not in entity_ids:
                _fail(f"{path}.{field_name}", f"unknown entity {entity!r}")
            values[field_name] = entity
    if "board_size" in obj:
        board_size = _expect_int(obj["board_size"], f"{path}.board_size")
        if board_size < 1:
            _fail(f"{path}.board_size", "board size must be at least 1")
        values["board_size"] = board_size
    if "quota" in obj:
        values["quota"] = QuotaSpec.parse(obj["quota"], f"{path}.quota")
    return AnalysisSpec(**values)


def parse(document: Any) -> Scenario:
    """Validate an already-decoded JSON document into a scenario."""
    obj = _expect_object(document, "$")
    _reject_unknown(obj, {"schema_version", "entities", "games", "graphs", "analyses"}, "$")
    version = _expect_int(_get(obj, "schema_version", "$"), "$.schema_version")
    if version != SCHEMA_VERSION:
        _fail("$.schema_version", f"unsupported schema version {version}")
    entities = []
    entity_ids: set[str] = set()
    for i, raw in enumerate(_expect_array(obj.get("entities", []), "$.entities")):
        entity = _parse_entity(raw, f"$.entities[{i}]")
        if entity.id in entity_ids:
            _fail(f"$.entities[{i}].id", f"duplicate entity id {entity.id!r}")
        entity_ids.add(entity.id)
        entities.append(entity)
    games = []
    game_ids: set[str] = set()
    for i, raw in enumerate(_expect_array(obj.get("games", []), "$.games")):
        game = _parse_game(raw, f"$.games[{i}]", entity_ids)
        if game.id in game_ids:
            _fail(f"$.games[{i}].id", f"duplicate game id {game.id!r}")
        game_ids.add(game.id)
        games.append(game)
    graphs = []
    graph_ids: set[str] = set()
    for i, raw in enumerate(_expect_array(obj.get("graphs", []), "$.graphs")):
        graph = _parse_graph(raw, f"$.graphs[{i}]", entity_ids)
        if graph.id in graph_ids:
            _fail(f"$.graphs[{i}].id", f"duplicate graph id {graph.id!r}")
        graph_ids.add(graph.id)
        graphs.append(graph)
    analyses = [
        _parse_analysis(raw, f"$.analyses[{i}]", entity_ids, game_ids, graph_ids)
        for i, raw in enumerate(_expect_array(obj.get("analyses", []), "$.analyses"))
    ]
    return Scenario(
        schema_version=version,
        entities=tuple(entities),
        games=tuple(games),
        graphs=tuple(graphs),
        analyses=tuple(analyses),
    )


def loads(text: str) -> Scenario:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    # Corpus documents wrap the scenario next to their expected values;
    # accept them directly so every shipped file is runnable as-is.
    if isinstance(document, dict) and "schema_version" not in document and "scenario" in document:
        return parse(document["scenario"])
    return parse(document)


def load(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"invalid UTF-8 at byte offset {exc.start}: {exc.reason}") from exc
    return loads(text)


def dumps(scenario: Scenario) -> str:
    return json.dumps(scenario.to_dict(), indent=2) + "\n"


def dump(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(dumps(scenario), encoding="utf-8")
