"""The full ``--format table`` text of one small scenario per analysis kind."""

from __future__ import annotations

import json

import pytest

from votepower.cli import main

ENTITIES = [
    {"id": "A", "name": "Atlantic Holdings International Ltd", "nationality": "foreign",
     "country": "US"},
    {"id": "B", "name": "Bayan Corp", "nationality": "domestic"},
    {"id": "C", "name": "Cebu Trust", "nationality": "domestic"},
    {"id": "F", "name": "Public float", "nationality": "public_float"},
    {"id": "D", "name": "Davao Mining", "nationality": "domestic"},
    {"id": "E", "name": "Eastern Telecom", "nationality": "domestic"},
    {"id": "H", "name": "Harbor Power", "nationality": "domestic"},
]
GAME = {"id": "g", "quota": {"num": 51, "den": 100}, "players": [
    {"entity": "A", "weight_bp": 4000}, {"entity": "B", "weight_bp": 3500},
    {"entity": "C", "weight_bp": 1500}, {"entity": "F", "weight_bp": 1000}]}
GRAPH = {"id": "G", "holdings": [
    {"holder": h, "corporation": c, "weight_bp": w} for h, c, w in (
        ("A", "D", 6000), ("B", "D", 4000), ("D", "E", 5500), ("C", "E", 4500),
        ("A", "H", 5000), ("B", "H", 5000))],
    "quotas": [{"corporation": c, "quota": {"num": 51, "den": 100}} for c in "DEH"]}

POWER_TABLE = """\
player                          weight   beta    power  absolute  status
Atlantic Holdings Internatio    40.00%      5   41.67%    62.50%  -
Bayan Corp                      35.00%      3   25.00%    37.50%  -
Cebu Trust                      15.00%      3   25.00%    37.50%  -
Public float                    10.00%      1    8.33%    12.50%  -
total swings: 12   backend: enum"""

CASES = {
    "power": ([{"analysis": "power", "game": "g"}], [], f"""\
== power: game 'g'
{POWER_TABLE}
"""),
    "classify": ([{"analysis": "classify", "game": "g"}], [], """\
== classify: game 'g'
Atlantic Holdings International Ltd: effective_control
"""),
    "float_adjust": ([{"analysis": "float_adjust", "game": "g"}], [], """\
== float_adjust: game 'g'
with public float:
  player                          weight   beta    power  absolute  status
  Atlantic Holdings Internatio    40.00%      5   41.67%    62.50%  -
  Bayan Corp                      35.00%      3   25.00%    37.50%  -
  Cebu Trust                      15.00%      3   25.00%    37.50%  -
  Public float                    10.00%      1    8.33%    12.50%  -
  total swings: 12   backend: enum
net of public float:
  player                          weight   beta    power  absolute  status
  Atlantic Holdings Internatio    44.44%      2   33.33%    50.00%  -
  Bayan Corp                      38.89%      2   33.33%    50.00%  -
  Cebu Trust                      16.67%      2   33.33%    50.00%  -
  total swings: 6   backend: enum
"""),
    "board": ([{"analysis": "board", "game": "g", "board_size": 5, "quota": "supermajority"}],
              [], """\
== board: game 'g', 5 seats
seats: A=2, B=2, C=1, F=0
board power (nominees voting as blocs):
  A                            beta=4    power=50.00%
  B                            beta=4    power=50.00%
  C                            beta=0    power=0.00%
  F                            beta=0    power=0.00%
  total swings: 8
"""),
    "grandfather": ([{"analysis": "grandfather", "graph": "G", "holder": "A", "target": "E"}],
                    [], """\
== grandfather: A -> E: 33.00% (33/100)
"""),
    "discrete": ([{"analysis": "discrete", "graph": "G"}], [], """\
== discrete: graph 'G'
tier D:
  player                          weight   beta    power  absolute  status
  Atlantic Holdings Internatio    60.00%      2  100.00%   100.00%  dictator
  Bayan Corp                      40.00%      0    0.00%     0.00%  dummy
  total swings: 2   backend: enum
  controller: A (dictator)
tier E:
  player                          weight   beta    power  absolute  status
  Davao Mining (as Atlantic Ho    55.00%      2  100.00%   100.00%  dictator
  Cebu Trust                      45.00%      0    0.00%     0.00%  dummy
  total swings: 2   backend: enum
  controller: A (dictator)
  block of D voted by A
tier H:
  player                          weight   beta    power  absolute  status
  Atlantic Holdings Internatio    50.00%      1   50.00%    50.00%  veto
  Bayan Corp                      50.00%      1   50.00%    50.00%  veto
  total swings: 2   backend: enum
  joint control: A, B
"""),
    "compare": ([{"analysis": "compare", "graph": "G", "target": t} for t in "ED"], [], """\
== compare: graph 'G', target 'E'
grandfathered fractional game:
  player                          weight   beta    power  absolute  status
  Cebu Trust                      45.00%      2   33.33%    50.00%  -
  Atlantic Holdings Internatio    33.00%      2   33.33%    50.00%  -
  Bayan Corp                      22.00%      2   33.33%    50.00%  -
  total swings: 6   backend: enum
discrete tier outcome:
  player                          weight   beta    power  absolute  status
  Davao Mining (as Atlantic Ho    55.00%      2  100.00%   100.00%  dictator
  Cebu Trust                      45.00%      0    0.00%     0.00%  dummy
  total swings: 2   backend: enum
methods DIVERGE

== compare: graph 'G', target 'D'
grandfathered fractional game:
  player                          weight   beta    power  absolute  status
  Atlantic Holdings Internatio    60.00%      2  100.00%   100.00%  dictator
  Bayan Corp                      40.00%      0    0.00%     0.00%  dummy
  total swings: 2   backend: enum
discrete tier outcome:
  player                          weight   beta    power  absolute  status
  Atlantic Holdings Internatio    60.00%      2  100.00%   100.00%  dictator
  Bayan Corp                      40.00%      0    0.00%     0.00%  dummy
  total swings: 2   backend: enum
methods agree
"""),
    "mc power": ([{"analysis": "power", "game": "g"}],
                 ["--backend", "mc", "--samples", "400", "--seed", "7"], """\
== power: game 'g'
player                          weight   beta    power  absolute  status
Atlantic Holdings Internatio    40.00%    244   40.53%    61.00%  - (±0.0478)
Bayan Corp                      35.00%    153   25.42%    38.25%  - (±0.0476)
Cebu Trust                      15.00%    151   25.08%    37.75%  - (±0.0475)
Public float                    10.00%     54    8.97%    13.50%  - (±0.0335)
total swings: 602   backend: mc
"""),
}


@pytest.mark.parametrize("case", CASES)
def test_table_text_is_pinned(case, tmp_path, capsys):
    analyses, args, expected = CASES[case]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"schema_version": 1, "entities": ENTITIES, "games": [GAME],
                                "graphs": [GRAPH], "analyses": analyses}))
    assert main(["run", str(path), *args]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected + "\n"
    assert captured.err == ""
