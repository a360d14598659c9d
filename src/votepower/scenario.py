"""Versioned JSON scenario files.

The on-disk format carries integers only: weights are integer basis points
and quotas are integer numerator/denominator pairs, so every value
round-trips bit-exactly. The one symbolic quota, ``"supermajority"``, is
kept as written and resolved each time a game or graph is built, to either
67/100 or exactly 2/3 according to the chosen interpretation, because
published tables write it both ways.

One reader, ``_record``, checks and reads every object in the schema order of
its field table, so an object missing several fields names the first, and
``parse`` returns the canonical form in that order. ``Scenario.document`` keeps
it: it is what ``dumps`` writes and the only thing two scenarios compare by.
``Scenario.analyses`` holds the same analysis dicts, which are read by key.
``parse`` also builds every graph once, so a faulty graph is reported with
its position whether or not an analysis uses it.
"""

from __future__ import annotations

import json
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
    _assign,
    _Value,
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


class _Fault(Exception):
    """A schema fault at ``where``, a position below the value being read:
    each record or array it leaves puts its key or index in front."""

    def __init__(self, message: str, where: str = "") -> None:
        super().__init__(message)
        self.where = where


_Reader = Callable[[Any], Any]  # one JSON value -> the value it stands for


def _record(raw: Any, fields: dict[str, _Reader], optional: dict[str, _Reader] | tuple = ()) -> dict:
    """Read an object whose keys are ``fields`` (required) and ``optional``,
    each mapping a key to its reader in schema order: reject unknown keys,
    name the first missing required key, then read each present key."""
    if not isinstance(raw, dict):
        raise _Fault(f"expected an object, got {type(raw).__name__}")
    for key in raw:
        if key not in fields and key not in optional:
            raise _Fault(f"unknown field {key!r}")
    for key in fields:
        if key not in raw:
            raise _Fault(f"missing required field {key!r}")
    record = {}
    try:
        for key, read in fields.items():
            record[key] = read(raw[key])
        for key in optional:
            if key in raw:
                record[key] = optional[key](raw[key])
    except _Fault as fault:
        fault.where = f".{key}{fault.where}"
        raise
    return record


def _records(read: Callable[[Any, Any], dict], table: Any,
             known: dict[str, dict] | None = None, kind: str = "") -> _Reader:
    """A reader of an array whose items ``read(item, table)`` reads.
    Given ``known``, the items are ``kind`` items, entered there by id."""
    def records(value: Any) -> list:
        if not isinstance(value, list):
            raise _Fault(f"expected an array, got {type(value).__name__}")
        items = []
        try:
            for i, item in enumerate(value):
                items.append(read(item, table))
        except _Fault as fault:
            fault.where = f"[{i}]{fault.where}"
            raise
        if known is not None:
            known.update(_unique(items, "id", f"{kind} id"))
        return items
    return records


def _unique(items: list[dict], key: str, what: str, where: str = "") -> dict[str, dict]:
    """The items of the array ``where`` by ``key``, which none may repeat."""
    by_key: dict[str, dict] = {}
    for i, item in enumerate(items):
        if item[key] in by_key:
            raise _Fault(f"duplicate {what} {item[key]!r}", f"{where}[{i}].{key}")
        by_key[item[key]] = item
    return by_key


def _expect_str(value: Any) -> str:
    if not isinstance(value, str):
        raise _Fault(f"expected a string, got {type(value).__name__}")
    return value


def _expect_int(value: Any) -> int:
    # bool is an int subclass; floats are banned outright by the format.
    if isinstance(value, bool) or not isinstance(value, int):
        raise _Fault(f"expected an integer, got {type(value).__name__}")
    return value


def _at_least(low: int, message: str) -> _Reader:
    """A reader of an integer no less than ``low``."""
    def at_least(value: Any) -> int:
        if _expect_int(value) < low:
            raise _Fault(message)
        return value
    return at_least


def _version(value: Any) -> int:
    if _expect_int(value) != SCHEMA_VERSION:
        raise _Fault(f"unsupported schema version {value}")
    return value


def _member(names: Container[str], message: str = "") -> _Reader:
    """A reader of a string in ``names``; ``message`` formats any other, and
    by default names the fixed set ``names``."""
    message = message or f"expected one of {sorted(names)}, got {{!r}}"
    def member(value: Any) -> str:
        if _expect_str(value) not in names:
            raise _Fault(message.format(value))
        return value
    return member


_weight = _at_least(0, "weight must be non-negative")
_board_size = _at_least(1, "board size must be at least 1")
_QUOTA = {"num": _expect_int, "den": _expect_int}
_ENTITY = {"id": _expect_str, "name": _expect_str, "nationality": _member(_NATIONALITIES)}
_COUNTRY = {"country": _expect_str}


def _parse_quota(raw: Any) -> str | dict:
    """Either the symbolic supermajority or an exact ``{num, den}`` pair."""
    if raw == SUPERMAJORITY:
        return SUPERMAJORITY
    quota = _record(raw, _QUOTA)
    num, den = quota["num"], quota["den"]
    if den <= 0 or num <= 0:
        raise _Fault("quota numerator and denominator must be positive")
    if num > den:
        raise _Fault("quota must not exceed 1")
    if 2 * num <= den:
        raise _Fault("quota must exceed 1/2; one at or below half admits simultaneous dictators")
    return quota


def resolve_quota(quota: str | dict, interpretation: str) -> Quota:
    """The exact quota a parsed quota stands for under ``interpretation``."""
    if quota == SUPERMAJORITY:
        return Quota.of(*_SUPERMAJORITY_QUOTA[interpretation])
    return Quota.of(quota["num"], quota["den"])


_KINDS = {"entity": "entities", "game": "games", "graph": "graphs"}


class Scenario(_Value):
    """A validated scenario; ``document`` is the canonical form ``dumps`` writes,
    and ``analyses`` is the tuple of its canonical analysis dicts.

    ``_index`` maps each kind of ``_KINDS`` to its items by id, as ``parse``
    collected them while checking references; without it they are indexed
    from ``document``.
    """

    document: dict
    analyses: tuple[dict, ...]
    _uncompared = ("analyses",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, document: dict, _index: dict[str, dict[str, dict]] | None = None) -> None:
        if _index is None:
            _index = {kind: {item["id"]: item for item in document[key]}
                      for kind, key in _KINDS.items()}
        _assign(self, "document", document)
        _assign(self, "analyses", tuple(document["analyses"]))
        _assign(self, "_index", _index)
        _assign(self, "_graphs", {})

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


def _parse_entity(raw: Any, fields: dict[str, _Reader]) -> dict:
    entity = _record(raw, fields, _COUNTRY)
    if "country" in entity and entity["nationality"] == "public_float":
        raise _Fault("a public-float aggregate carries no country label", ".country")
    return entity


def _parse_game(raw: Any, fields: dict[str, _Reader]) -> dict:
    game = _record(raw, fields)
    players = game["players"]
    _unique(players, "entity", "player", ".players")
    if not players:
        raise _Fault("a voting game needs at least one player", ".players")
    if sum(p["weight_bp"] for p in players) == 0:
        raise _Fault("total voting weight must be positive", ".players")
    return game


def _parse_graph(raw: Any, fields: dict[str, _Reader]) -> dict:
    graph = _record(raw, fields)
    # A corporation whose stock carries no votes has no game to play.
    totals: dict[str, int] = {}
    for h in graph["holdings"]:
        totals[h["corporation"]] = totals.get(h["corporation"], 0) + h["weight_bp"]
    for corporation, total in totals.items():
        if not total:
            raise _Fault(f"holdings in {corporation!r} sum to 0 bp")
    _unique(graph["quotas"], "corporation", "quota for", ".quotas")
    return graph


def _parse_analysis(raw: Any, context: tuple[dict, dict[str, dict]]) -> dict:
    tables, graphs = context
    kind = raw.get("analysis") if isinstance(raw, dict) else None
    table = tables.get(kind) if isinstance(kind, str) else None
    if table is None:
        # A missing or unknown kind, read with every analysis field allowed.
        every = {key: read for t in tables.values() for part in t for key, read in part.items()}
        table = {"analysis": _member(tables)}, every
    analysis = _record(raw, *table)
    kind = analysis["analysis"]
    if kind in ("grandfather", "compare"):
        # A grandfather path runs between entities of the graph; a compare
        # target is a corporation the graph gives stockholders.
        holdings = graphs[analysis["graph"]]["holdings"]
        inside = {h["corporation"] for h in holdings}
        if kind == "grandfather":
            inside |= {h["holder"] for h in holdings}
        for field_name in ("holder", "target"):
            item_id = analysis.get(field_name)
            if item_id is not None and item_id not in inside:
                what = "is not in" if kind == "grandfather" else "has no stockholders in"
                raise _Fault(f"{item_id!r} {what} graph {analysis['graph']!r}", f".{field_name}")
    return analysis


def _arrays(entities: dict, games: dict, graphs: dict) -> dict[str, _Reader]:
    """Readers of the optional arrays, in schema order, that fill the three dicts by id."""
    entity = _member(entities, "unknown entity {!r}")
    game, graph = _member(games, "unknown game {!r}"), _member(graphs, "unknown graph {!r}")
    # analysis kind -> (required fields, optional fields), each in schema order
    kind = _expect_str  # a kind that picks its table is valid
    tables = {
        "power": ({"analysis": kind, "game": game}, {}),
        "classify": ({"analysis": kind, "game": game}, {}),
        "float_adjust": ({"analysis": kind, "game": game}, {}),
        "board": ({"analysis": kind, "game": game, "board_size": _board_size},
                  {"quota": _parse_quota}),
        "grandfather": ({"analysis": kind, "graph": graph, "holder": entity, "target": entity}, {}),
        "discrete": ({"analysis": kind, "graph": graph}, {}),
        "compare": ({"analysis": kind, "graph": graph, "target": entity}, {}),
    }
    player = {"entity": entity, "weight_bp": _weight}
    holding = {"holder": entity, "corporation": entity, "weight_bp": _weight}
    quota = {"corporation": entity, "quota": _parse_quota}
    return {
        "entities": _records(_parse_entity, _ENTITY, entities, "entity"),
        "games": _records(_parse_game, {"id": _expect_str, "quota": _parse_quota,
                                        "players": _records(_record, player)}, games, "game"),
        "graphs": _records(_parse_graph, {"id": _expect_str, "holdings": _records(_record, holding),
                                          "quotas": _records(_record, quota)}, graphs, "graph"),
        "analyses": _records(_parse_analysis, (tables, graphs)),
    }


def parse(document: Any) -> Scenario:
    """Validate an already-decoded JSON document into a scenario."""
    # The items of each kind by id, filled as they are read.
    index: dict[str, dict[str, dict]] = {kind: {} for kind in _KINDS}
    arrays = _arrays(index["entity"], index["game"], index["graph"])
    try:
        read = _record(document, {"schema_version": _version}, arrays)
    except _Fault as fault:
        raise ScenarioValidationError(f"${fault.where}: {fault}") from None
    scenario = Scenario({"schema_version": read["schema_version"],
                         **{key: read.get(key, []) for key in arrays}}, index)
    # Building each graph runs make_graph's checks (cycles, duplicate or
    # oversized holdings, quotas) and fills the cache the default
    # interpretation reads; only supermajority quotas differ by interpretation.
    for i, graph_id in enumerate(index["graph"]):
        try:
            scenario.build_graph(graph_id)
        except ValidationError as exc:
            raise ScenarioValidationError(f"$.graphs[{i}]: {exc}") from exc
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
