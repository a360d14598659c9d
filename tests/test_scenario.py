from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import votepower
from votepower import Quota
from votepower.corpus import corpus_dir, corpus_names
from votepower.report import percent_text
from votepower.scenario import (
    ScenarioParseError,
    ScenarioValidationError,
    dumps,
    load,
    loads,
    parse,
)

MINIMAL = {
    "schema_version": 1,
    "entities": [
        {"id": "P1", "name": "P1", "nationality": "foreign", "country": "CA"},
        {"id": "P2", "name": "P2", "nationality": "domestic"},
    ],
    "games": [
        {"id": "g", "quota": {"num": 51, "den": 100},
         "players": [{"entity": "P1", "weight_bp": 6663}, {"entity": "P2", "weight_bp": 3337}]}
    ],
    "graphs": [],
    "analyses": [{"analysis": "power", "game": "g"}],
}


def doc(**overrides):
    out = json.loads(json.dumps(MINIMAL))
    out.update(overrides)
    return out


def test_round_trip_is_identity():
    scenario = parse(MINIMAL)
    again = loads(dumps(scenario))
    assert again == scenario
    assert dumps(again) == dumps(scenario)


def test_corpus_files_round_trip():
    for name in corpus_names():
        raw = json.loads((corpus_dir() / f"{name}.json").read_text())
        scenario = parse(raw["scenario"])
        assert loads(dumps(scenario)) == scenario


def test_weights_round_trip_bit_exactly():
    scenario = parse(MINIMAL)
    game = scenario.build_game("g")
    assert game.player("P1").weight.bp == Fraction(6663)
    reparsed = loads(dumps(scenario))
    assert reparsed.build_game("g").player("P1").weight.bp == Fraction(6663)


def test_parse_error_carries_position():
    with pytest.raises(ScenarioParseError, match="line 1, column 6"):
        loads('{"a":')


def test_validation_errors_name_the_position():
    bad = doc()
    bad["games"][0]["players"][1]["weight_bp"] = 33.37
    with pytest.raises(ScenarioValidationError, match=r"players\[1\].weight_bp"):
        parse(bad)

    bad = doc()
    bad["games"][0]["players"][0]["entity"] = "P9"
    with pytest.raises(ScenarioValidationError, match="unknown entity 'P9'"):
        parse(bad)

    bad = doc()
    bad["analyses"] = [{"analysis": "sorcery"}]
    with pytest.raises(ScenarioValidationError, match="sorcery"):
        parse(bad)

    bad = doc()
    bad["analyses"] = [{"analysis": "board", "game": "g"}]
    with pytest.raises(ScenarioValidationError, match="board_size"):
        parse(bad)

    bad = doc(schema_version=99)
    with pytest.raises(ScenarioValidationError, match="schema version"):
        parse(bad)

    bad = doc()
    bad["games"][0]["quota"] = {"num": 101, "den": 100}
    with pytest.raises(ScenarioValidationError, match="exceed"):
        parse(bad)

    bad = doc()
    bad["games"][0]["players"][0]["weight_bp"] = True
    with pytest.raises(ScenarioValidationError, match="integer"):
        parse(bad)

    bad = doc()
    bad["entities"][0]["nationality"] = "martian"
    with pytest.raises(ScenarioValidationError, match="martian"):
        parse(bad)

    # An object missing several fields names the first in schema order.
    bad = doc()
    bad["entities"][1] = {"country": "CA"}
    with pytest.raises(ScenarioValidationError,
                       match=r"^\$\.entities\[1\]: missing required field 'id'$"):
        parse(bad)

    bad = doc()
    bad["entities"].append({"id": "PF", "name": "float", "nationality": "public_float",
                            "country": "PH"})
    with pytest.raises(ScenarioValidationError, match="country"):
        parse(bad)

    graph = {"id": "G", "holdings": [{"holder": "P1", "corporation": "P2", "weight_bp": 6000}],
             "quotas": [{"corporation": "P2", "quota": {"num": 51, "den": 100}}]}
    for field in ("holder", "corporation"):
        holding = dict(graph["holdings"][0], **{field: "P9"})
        with pytest.raises(ScenarioValidationError,
                           match=rf"^\$\.graphs\[0\]\.holdings\[0\]\.{field}: unknown entity 'P9'$"):
            parse(doc(graphs=[dict(graph, holdings=[holding])]))

    quota = dict(graph["quotas"][0], corporation="P9")
    with pytest.raises(ScenarioValidationError,
                       match=r"^\$\.graphs\[0\]\.quotas\[0\]\.corporation: unknown entity 'P9'$"):
        parse(doc(graphs=[dict(graph, quotas=[quota])]))

    bad = doc()
    bad["entities"].append(dict(bad["entities"][0]))
    with pytest.raises(ScenarioValidationError,
                       match=r"^\$\.entities\[2\]\.id: duplicate entity id 'P1'$"):
        parse(bad)

    bad = doc()
    bad["games"].append(dict(bad["games"][0]))
    with pytest.raises(ScenarioValidationError,
                       match=r"^\$\.games\[1\]\.id: duplicate game id 'g'$"):
        parse(bad)

    bad = doc(graphs=[graph, graph])
    with pytest.raises(ScenarioValidationError,
                       match=r"^\$\.graphs\[1\]\.id: duplicate graph id 'G'$"):
        parse(bad)

    bad = doc(analyses=[{"analysis": "power", "game": "nope"}])
    with pytest.raises(ScenarioValidationError,
                       match=r"^\$\.analyses\[0\]\.game: unknown game 'nope'$"):
        parse(bad)

    bad = doc(graphs=[graph], analyses=[{"analysis": "discrete", "graph": "nope"}])
    with pytest.raises(ScenarioValidationError,
                       match=r"^\$\.analyses\[0\]\.graph: unknown graph 'nope'$"):
        parse(bad)

    # Games and graphs are checked when read, used by an analysis or not.
    for players, message in (
        ([], "a voting game needs at least one player"),
        ([{"entity": "P1", "weight_bp": 0}], "total voting weight must be positive"),
    ):
        bad = doc()
        bad["games"][0]["players"] = players
        with pytest.raises(ScenarioValidationError,
                           match=rf"^\$\.games\[0\]\.players: {message}$"):
            parse(bad)

    edge = graph["holdings"][0]
    for holdings, quotas, message in (
        ([edge, edge], graph["quotas"], "duplicate holding 'P1' -> 'P2'"),
        ([edge, dict(edge, holder="P2", corporation="P1")],
         graph["quotas"] + [dict(graph["quotas"][0], corporation="P1")],
         "ownership chain contains a cycle"),
        ([dict(edge, weight_bp=10_001)], graph["quotas"], "holdings in 'P2' sum to 10001 bp"),
        ([dict(edge, weight_bp=0)], graph["quotas"], "holdings in 'P2' sum to 0 bp$"),
        ([edge], [], "no quota recorded for corporation 'P2'"),
        ([edge], graph["quotas"] + [dict(graph["quotas"][0], corporation="P1")],
         "quota given for 'P1', which has no stockholders"),
    ):
        bad = doc(graphs=[graph, dict(graph, id="H", holdings=holdings, quotas=quotas)])
        with pytest.raises(ScenarioValidationError, match=rf"^\$\.graphs\[1\]: {message}"):
            parse(bad)

    # Graph-relative references: a grandfather path stays inside its graph,
    # and a compare target is a corporation with stockholders there.
    outsider = {"id": "P3", "name": "P3", "nationality": "domestic"}
    for analysis, field, message in (
        ({"analysis": "grandfather", "graph": "G", "holder": "P3", "target": "P2"},
         "holder", "'P3' is not in graph 'G'"),
        ({"analysis": "grandfather", "graph": "G", "holder": "P1", "target": "P3"},
         "target", "'P3' is not in graph 'G'"),
        ({"analysis": "compare", "graph": "G", "target": "P1"},
         "target", "'P1' has no stockholders in graph 'G'"),
    ):
        bad = doc(entities=MINIMAL["entities"] + [outsider], graphs=[graph], analyses=[analysis])
        with pytest.raises(ScenarioValidationError,
                           match=rf"^\$\.analyses\[0\]\.{field}: {message}$"):
            parse(bad)


# Parses the document in argv[1] and prints the error it raises.
_PARSE_PROBE = """
import json, sys
from votepower.scenario import ScenarioValidationError, parse
try:
    parse(json.loads(sys.argv[1]))
except ScenarioValidationError as exc:
    print(exc)
"""


def test_missing_fields_message_does_not_depend_on_the_hash_seed():
    # Required fields are checked in schema order, not in the order of a set,
    # so fresh interpreters with different string hashes name the same one.
    document = json.dumps(doc(analyses=[{"analysis": "grandfather"}]))
    src = str(Path(votepower.__file__).parents[1])
    for seed in ("1", "2", "5"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", _PARSE_PROBE, document], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "$.analyses[0]: missing required field 'graph'\n", seed


def test_unknown_holder_or_target_names_the_position():
    graph = {"id": "G", "holdings": [{"holder": "P1", "corporation": "P2", "weight_bp": 6000}],
             "quotas": [{"corporation": "P2", "quota": {"num": 51, "den": 100}}]}
    good = {"analysis": "grandfather", "graph": "G", "holder": "P1", "target": "P2"}
    parse(doc(graphs=[graph], analyses=[good]))
    for field in ("holder", "target"):
        bad = doc(graphs=[graph], analyses=[good, dict(good, **{field: "ZZ"})])
        with pytest.raises(ScenarioValidationError,
                           match=rf"^\$\.analyses\[1\]\.{field}: unknown entity 'ZZ'$"):
            parse(bad)


def test_supermajority_resolution_depends_on_interpretation():
    document = doc()
    document["games"][0]["quota"] = "supermajority"
    scenario = parse(document)
    assert scenario.build_game("g", "percent").quota == Quota.of(67, 100)
    assert scenario.build_game("g", "exact-fraction").quota == Quota.of(2, 3)
    # symbolic quotas survive serialization untouched
    assert json.loads(dumps(scenario))["games"][0]["quota"] == "supermajority"


def test_build_graph_resolves_quotas(tmp_path):
    document = doc(graphs=[{
        "id": "chain",
        "holdings": [
            {"holder": "P1", "corporation": "P2", "weight_bp": 6000},
        ],
        "quotas": [{"corporation": "P2", "quota": "supermajority"}],
    }], analyses=[{"analysis": "discrete", "graph": "chain"}])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    scenario = load(path)
    graph = scenario.build_graph("chain", "exact-fraction")
    assert graph.quota("P2") == Quota.of(2, 3)


@pytest.mark.parametrize("name, builds", [
    ("mining_chains", {"percent": 6, "exact-fraction": 9}),
    ("grandfather_figures", {"percent": 2, "exact-fraction": 2}),
])
def test_graphs_without_a_supermajority_are_built_once(monkeypatch, name, builds):
    # Only a supermajority quota reads differently under the two
    # interpretations, so the other graphs are built once, at parse.
    from votepower import scenario as scenario_module
    from votepower.report import RunOptions, run_scenario

    calls = []
    real = scenario_module.make_graph

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scenario_module, "make_graph", spy)
    document = json.loads((corpus_dir() / f"{name}.json").read_text())["scenario"]
    for interpretation, expected in builds.items():
        calls.clear()
        run_scenario(parse(document), RunOptions(interpretation=interpretation))
        assert len(calls) == expected


def test_repeated_graph_quota_is_rejected():
    graph = {"id": "G", "holdings": [{"holder": "P1", "corporation": "P2", "weight_bp": 6000}],
             "quotas": [{"corporation": "P2", "quota": {"num": 51, "den": 100}},
                        {"corporation": "P2", "quota": {"num": 2, "den": 3}}]}
    with pytest.raises(ScenarioValidationError,
                       match=r"^\$\.graphs\[0\]\.quotas\[1\]\.corporation: "
                             r"duplicate quota for 'P2'$"):
        parse(doc(graphs=[graph], analyses=[]))


@pytest.mark.parametrize("num,den", [(1, 2), (50, 100), (1, 3)])
def test_quota_at_or_below_half_is_rejected_at_its_position(num, den):
    minority = {"num": num, "den": den}
    bad = doc()
    bad["games"][0]["quota"] = minority
    with pytest.raises(ScenarioValidationError,
                       match=r"^\$\.games\[0\]\.quota: quota must exceed 1/2"):
        parse(bad)

    graph = {"id": "G", "holdings": [{"holder": "P1", "corporation": "P2", "weight_bp": 6000}],
             "quotas": [{"corporation": "P2", "quota": minority}]}
    with pytest.raises(ScenarioValidationError,
                       match=r"^\$\.graphs\[0\]\.quotas\[0\]\.quota: quota must exceed 1/2"):
        parse(doc(graphs=[graph], analyses=[]))

    board = {"analysis": "board", "game": "g", "board_size": 5, "quota": minority}
    with pytest.raises(ScenarioValidationError,
                       match=r"^\$\.analyses\[0\]\.quota: quota must exceed 1/2"):
        parse(doc(analyses=[board]))


def _reversed_keys(value):
    """The same JSON value with the keys of every object in reverse order."""
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [_reversed_keys(item) for item in value]
    return value


CANONICAL = """\
{
  "schema_version": 1,
  "entities": [
    {
      "id": "P1",
      "name": "P1",
      "nationality": "foreign",
      "country": "CA"
    },
    {
      "id": "P2",
      "name": "P2",
      "nationality": "domestic"
    }
  ],
  "games": [
    {
      "id": "g",
      "quota": {
        "num": 51,
        "den": 100
      },
      "players": [
        {
          "entity": "P1",
          "weight_bp": 6663
        },
        {
          "entity": "P2",
          "weight_bp": 3337
        }
      ]
    }
  ],
  "graphs": [],
  "analyses": []
}
"""


def test_dumps_writes_the_canonical_document():
    ordered = doc()
    del ordered["graphs"], ordered["analyses"]
    shuffled = _reversed_keys(ordered)
    assert list(shuffled) == ["games", "entities", "schema_version"]
    scenario = parse(shuffled)
    assert scenario == parse(ordered)
    assert dumps(scenario) == CANONICAL


@pytest.mark.parametrize("value,text", [
    (Fraction(1, 6), "16.67"),
    (Fraction(1, 3), "33.33"),
    (Fraction(1, 2), "50.00"),
    (Fraction(2, 15), "13.33"),
    (Fraction(7, 50), "14.00"),
    (Fraction(1, 800), "0.13"),     # exact .125% rounds half-up
    (Fraction(0), "0.00"),
    (Fraction(1), "100.00"),
    (Fraction(59956007, 10**8), "59.96"),
    (Fraction(60332416, 10**8), "60.33"),
    (Fraction(1, 20_000), "0.01"),  # exact half ties of a hundredth
    (Fraction(3, 20_000), "0.02"),
])
def test_percent_rendering_half_up(value, text):
    assert percent_text(value) == text


def test_percent_rendering_matches_the_fraction_form():
    # Reference: scale as a Fraction, which reduces r and the denominator by
    # their gcd; whether 2r >= den cannot change under that.
    def reference(value):
        scaled = value * 10_000
        q, r = divmod(scaled.numerator, scaled.denominator)
        q += 2 * r >= scaled.denominator
        return f"{q // 100}.{q % 100:02d}"

    rng = random.Random(10_000)
    for _ in range(2000):
        den = rng.choice((rng.randint(1, 400), 20_000 * rng.randint(1, 50),
                          10 ** rng.randint(1, 12)))
        value = Fraction(rng.randint(0, den), den)
        assert percent_text(value) == reference(value), value
