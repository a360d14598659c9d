"""Versioned JSON scenario files.

The on-disk format carries integers only: weights are integer basis points
and quotas are integer numerator/denominator pairs, so every value
round-trips bit-exactly. The one symbolic quota, ``"supermajority"``, is
kept as written and resolved each time a game or graph is built, to either
67/100 or exactly 2/3 according to the chosen interpretation, because
published tables write it both ways.

``parse`` validates a decoded document into its canonical form, with every
field in schema order, and ``Scenario.document`` keeps it: it is what
``dumps`` writes and the only thing two scenarios compare by.
``Scenario.analyses`` holds the same analysis dicts, which are read by key.
``parse`` also builds every graph once, so a faulty graph is reported with
its position whether or not an analysis uses it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Container

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


def _parse_quota(raw: Any, path: str) -> str | dict:
    """Either the symbolic supermajority or an exact ``{num, den}`` pair."""
    if raw == SUPERMAJORITY:
        return SUPERMAJORITY
    obj = _expect_object(raw, path)
    _reject_unknown(obj, {"num", "den"}, path)
    num = _expect_int(_get(obj, "num", path), f"{path}.num")
    den = _expect_int(_get(obj, "den", path), f"{path}.den")
    if den <= 0 or num <= 0:
        _fail(path, "quota numerator and denominator must be positive")
    if num > den:
        _fail(path, "quota must not exceed 1")
    if 2 * num <= den:
        _fail(path, "quota must exceed 1/2; one at or below half admits simultaneous dictators")
    return {"num": num, "den": den}


def resolve_quota(quota: str | dict, interpretation: str) -> Quota:
    """The exact quota a parsed quota stands for under ``interpretation``."""
    if quota == SUPERMAJORITY:
        return Quota.of(*_SUPERMAJORITY_QUOTA[interpretation])
    return Quota.of(quota["num"], quota["den"])


_KINDS = {"entity": "entities", "game": "games", "graph": "graphs"}


@dataclass(frozen=True)
class Scenario:
    """A validated scenario; ``document`` is the canonical form ``dumps`` writes,
    and ``analyses`` is the tuple of its canonical analysis dicts."""

    document: dict
    analyses: tuple[dict, ...] = field(init=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)
    _graphs: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "analyses", tuple(self.document["analyses"]))
        object.__setattr__(self, "_index", {
            kind: {item["id"]: item for item in self.document[key]}
            for kind, key in _KINDS.items()
        })

    def _lookup(self, kind: str, item_id: str) -> dict:
        try:
            return self._index[kind][item_id]
        except KeyError:
            raise ScenarioValidationError(f"unknown {kind} {item_id!r}") from None

    def build_game(self, game_id: str, interpretation: str = "percent") -> VotingGame:
        game = self._lookup("game", game_id)
        players = []
        for member in game["players"]:
            entity = self._lookup("entity", member["entity"])
            weight = Weight(Fraction(member["weight_bp"]))
            players.append(Player(entity["id"], entity["name"], _nationality(entity), weight))
        return make_game(resolve_quota(game["quota"], interpretation), players)

    def build_graph(self, graph_id: str, interpretation: str = "percent") -> OwnershipGraph:
        """The graph, built once and then shared: once per interpretation
        when one of its quotas is the supermajority, else once."""
        graph = self._lookup("graph", graph_id)
        varies = any(q["quota"] == SUPERMAJORITY for q in graph["quotas"])
        key = (graph_id, interpretation if varies else None)
        if key in self._graphs:
            return self._graphs[key]
        holdings = graph["holdings"]
        referenced = {h["holder"] for h in holdings} | {h["corporation"] for h in holdings}
        entities = [
            Entity(e["id"], e["name"], _nationality(e))
            for e in self.document["entities"]
            if e["id"] in referenced
        ]
        edges = [Holding(h["holder"], h["corporation"], Weight(Fraction(h["weight_bp"])))
                 for h in holdings]
        quotas = {q["corporation"]: resolve_quota(q["quota"], interpretation)
                  for q in graph["quotas"]}
        return self._graphs.setdefault(key, make_graph(entities, edges, quotas))


def _nationality(entity: dict) -> Nationality:
    return Nationality(_NATIONALITIES[entity["nationality"]], entity.get("country"))


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
# analysis field -> the kind of item it names
_REFERENCES = (("game", "game"), ("graph", "graph"), ("holder", "entity"), ("target", "entity"))


def _parse_entity(raw: Any, path: str) -> dict:
    obj = _expect_object(raw, path)
    _reject_unknown(obj, {"id", "name", "nationality", "country"}, path)
    nationality = _expect_str(_get(obj, "nationality", path), f"{path}.nationality")
    if nationality not in _NATIONALITIES:
        _fail(f"{path}.nationality", f"expected one of {sorted(_NATIONALITIES)}, got {nationality!r}")
    country = {}
    if "country" in obj:
        country = {"country": _expect_str(obj["country"], f"{path}.country")}
        if nationality == "public_float":
            _fail(f"{path}.country", "a public-float aggregate carries no country label")
    return {
        "id": _expect_str(_get(obj, "id", path), f"{path}.id"),
        "name": _expect_str(_get(obj, "name", path), f"{path}.name"),
        "nationality": nationality,
        **country,
    }


def _parse_game(raw: Any, path: str, entity_ids: Container[str]) -> dict:
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
        players.append({"entity": entity, "weight_bp": weight})
    if not players:
        _fail(f"{path}.players", "a voting game needs at least one player")
    if sum(p["weight_bp"] for p in players) == 0:
        _fail(f"{path}.players", "total voting weight must be positive")
    return {
        "id": _expect_str(_get(obj, "id", path), f"{path}.id"),
        "quota": _parse_quota(_get(obj, "quota", path), f"{path}.quota"),
        "players": players,
    }


def _parse_graph(raw: Any, path: str, entity_ids: Container[str]) -> dict:
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
        for field_name, endpoint in (("holder", holder), ("corporation", corporation)):
            if endpoint not in entity_ids:
                _fail(f"{holding_path}.{field_name}", f"unknown entity {endpoint!r}")
        weight = _expect_int(
            _get(holding_obj, "weight_bp", holding_path), f"{holding_path}.weight_bp"
        )
        if weight < 0:
            _fail(f"{holding_path}.weight_bp", "weight must be non-negative")
        holdings.append({"holder": holder, "corporation": corporation, "weight_bp": weight})
    # A corporation whose stock carries no votes has no game to play.
    totals: dict[str, int] = {}
    for holding in holdings:
        corporation = holding["corporation"]
        totals[corporation] = totals.get(corporation, 0) + holding["weight_bp"]
    for corporation, total in totals.items():
        if not total:
            _fail(path, f"holdings in {corporation!r} sum to 0 bp")
    quotas = []
    seen: set[str] = set()
    for i, quota in enumerate(_expect_array(_get(obj, "quotas", path), f"{path}.quotas")):
        quota_path = f"{path}.quotas[{i}]"
        quota_obj = _expect_object(quota, quota_path)
        _reject_unknown(quota_obj, {"corporation", "quota"}, quota_path)
        corporation = _expect_str(
            _get(quota_obj, "corporation", quota_path), f"{quota_path}.corporation"
        )
        if corporation not in entity_ids:
            _fail(f"{quota_path}.corporation", f"unknown entity {corporation!r}")
        if corporation in seen:
            _fail(f"{quota_path}.corporation", f"duplicate quota for {corporation!r}")
        seen.add(corporation)
        quotas.append({
            "corporation": corporation,
            "quota": _parse_quota(_get(quota_obj, "quota", quota_path), f"{quota_path}.quota"),
        })
    return {
        "id": _expect_str(_get(obj, "id", path), f"{path}.id"),
        "holdings": holdings,
        "quotas": quotas,
    }


def _parse_analysis(raw: Any, path: str, known: dict[str, dict]) -> dict:
    obj = _expect_object(raw, path)
    kind = _expect_str(_get(obj, "analysis", path), f"{path}.analysis")
    if kind not in _ANALYSIS_FIELDS:
        _fail(f"{path}.analysis", f"expected one of {sorted(_ANALYSIS_FIELDS)}, got {kind!r}")
    required, optional = _ANALYSIS_FIELDS[kind]
    _reject_unknown(obj, {"analysis"} | required | optional, path)
    for field_name in required:
        _get(obj, field_name, path)
    values: dict[str, Any] = {"analysis": kind}
    for field_name, item_kind in _REFERENCES:
        if field_name in obj:
            item_id = _expect_str(obj[field_name], f"{path}.{field_name}")
            if item_id not in known[item_kind]:
                _fail(f"{path}.{field_name}", f"unknown {item_kind} {item_id!r}")
            values[field_name] = item_id
    if kind in ("grandfather", "compare"):
        # A grandfather path runs between entities of the graph; a compare
        # target is a corporation the graph gives stockholders.
        holdings = known["graph"][values["graph"]]["holdings"]
        inside = {h["corporation"] for h in holdings}
        if kind == "grandfather":
            inside |= {h["holder"] for h in holdings}
        for field_name in ("holder", "target"):
            item_id = values.get(field_name)
            if item_id is not None and item_id not in inside:
                what = "is not in" if kind == "grandfather" else "has no stockholders in"
                _fail(f"{path}.{field_name}", f"{item_id!r} {what} graph {values['graph']!r}")
    if "board_size" in obj:
        board_size = _expect_int(obj["board_size"], f"{path}.board_size")
        if board_size < 1:
            _fail(f"{path}.board_size", "board size must be at least 1")
        values["board_size"] = board_size
    if "quota" in obj:
        values["quota"] = _parse_quota(obj["quota"], f"{path}.quota")
    return values


def _parse_items(
    obj: dict, kind: str, parse_item: Callable[..., dict], *context: Any
) -> dict[str, dict]:
    """Parse the ``entities``, ``games`` or ``graphs`` array into id -> item."""
    key = _KINDS[kind]
    items: dict[str, dict] = {}
    for i, raw in enumerate(_expect_array(obj.get(key, []), f"$.{key}")):
        item = parse_item(raw, f"$.{key}[{i}]", *context)
        if item["id"] in items:
            _fail(f"$.{key}[{i}].id", f"duplicate {kind} id {item['id']!r}")
        items[item["id"]] = item
    return items


def parse(document: Any) -> Scenario:
    """Validate an already-decoded JSON document into a scenario."""
    obj = _expect_object(document, "$")
    _reject_unknown(obj, {"schema_version", "entities", "games", "graphs", "analyses"}, "$")
    version = _expect_int(_get(obj, "schema_version", "$"), "$.schema_version")
    if version != SCHEMA_VERSION:
        _fail("$.schema_version", f"unsupported schema version {version}")
    entities = _parse_items(obj, "entity", _parse_entity)
    games = _parse_items(obj, "game", _parse_game, entities)
    graphs = _parse_items(obj, "graph", _parse_graph, entities)
    known = {"entity": entities, "game": games, "graph": graphs}
    analyses = [
        _parse_analysis(raw, f"$.analyses[{i}]", known)
        for i, raw in enumerate(_expect_array(obj.get("analyses", []), "$.analyses"))
    ]
    scenario = Scenario({
        "schema_version": version,
        "entities": list(entities.values()),
        "games": list(games.values()),
        "graphs": list(graphs.values()),
        "analyses": analyses,
    })
    # Building each graph runs make_graph's checks (cycles, duplicate or
    # oversized holdings, quotas) and fills the cache the default
    # interpretation reads; only supermajority quotas differ by interpretation.
    for i, graph_id in enumerate(graphs):
        try:
            scenario.build_graph(graph_id)
        except ValidationError as exc:
            _fail(f"$.graphs[{i}]", str(exc))
    return scenario


def loads(text: str) -> Scenario:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ScenarioParseError("invalid JSON: arrays or objects nested too deeply") from exc
    except ValueError as exc:
        # The one other ValueError of json.loads: int() refuses an integer
        # literal longer than sys.get_int_max_str_digits().
        raise ScenarioParseError("invalid JSON: an integer literal has too many digits") from exc
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
    return json.dumps(scenario.document, indent=2) + "\n"
