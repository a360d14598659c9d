#!/usr/bin/env python3
"""Regenerate the shipped corpus under src/votepower/corpus/.

The expected vectors below are hand-entered from the published case tables
(or, where a published row disagrees with exact recomputation, from the
recomputed truth, with the published row kept as a documented divergence).
Before writing anything the script replays every check through the library
and aborts on any mismatch, so a regression in the engine can never be
frozen into the corpus silently.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from votepower.corpus import verify_document

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "votepower" / "corpus"


def frac(num: int, den: int = 1) -> dict:
    from fractions import Fraction

    f = Fraction(num, den)
    return {"num": f.numerator, "den": f.denominator}


def entity(eid: str, nationality: str, name: str | None = None, country: str | None = None) -> dict:
    out = {"id": eid, "name": name or eid, "nationality": nationality}
    if country:
        out["country"] = country
    return out


def game(gid: str, quota, players: list[tuple[str, int]]) -> dict:
    if isinstance(quota, tuple):
        quota = {"num": quota[0], "den": quota[1]}
    return {
        "id": gid,
        "quota": quota,
        "players": [{"entity": eid, "weight_bp": bp} for eid, bp in players],
    }


def power_expect(rows: list[tuple[str, int, tuple[int, int]]], total: int | None = None) -> dict:
    players = [
        {"id": pid, "beta": beta, "normalized": frac(*norm)} for pid, beta, norm in rows
    ]
    out: dict = {"power": {"players": players}}
    if total is not None:
        out["power"]["total_swings"] = total
    return out


def norm_only(rows: list[tuple[str, tuple[int, int]]]) -> dict:
    return {"power": {"players": [{"id": pid, "normalized": frac(*n)} for pid, n in rows]}}


def tier_expect(corporation: str, rows: list[tuple[str, tuple[int, int]]],
                controller: str | None, kind: str | None,
                joint: list[str] | None = None,
                imputations: list[tuple[str, str]] | None = None) -> dict:
    out: dict = {
        "corporation": corporation,
        "controller": controller,
        "controller_kind": kind,
        "power": {"players": [{"id": pid, "normalized": frac(*n)} for pid, n in rows]},
    }
    if joint is not None:
        out["joint_controllers"] = joint
    if imputations is not None:
        out["imputations"] = [{"holder": h, "voted_by": v} for h, v in imputations]
    return out


def verify_and_write(document: dict) -> None:
    failed = [o for o in verify_document(document, document["name"]) if not o.passed]
    if failed:
        raise SystemExit("\n".join(
            f"{o.scenario} analysis {o.analysis_index} [{o.interpretation}]: "
            + "; ".join(o.mismatches)
            for o in failed
        ))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{document['name']}.json"
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Critical-stockholder and voting-power tables
# ---------------------------------------------------------------------------

def build_critical_stockholders() -> dict:
    entities = [entity(f"P{i}", "domestic") for i in range(1, 4)]
    entities[0] = entity("P1", "domestic")
    games = [
        game("maj_50_49_1", (51, 100), [("P1", 5000), ("P2", 4900), ("P3", 100)]),
        game("sup_50_49_1", (67, 100), [("P1", 5000), ("P2", 4900), ("P3", 100)]),
        game("maj_40_30_30", (51, 100), [("P1", 4000), ("P2", 3000), ("P3", 3000)]),
        game("sup_40_30_30", (67, 100), [("P1", 4000), ("P2", 3000), ("P3", 3000)]),
    ]
    analyses = [{"analysis": "power", "game": g["id"]} for g in games]
    checks = [
        {
            "analysis": 0,
            "expect": {
                "power": {
                    "total_swings": 5,
                    "players": [
                        {"id": "P1", "beta": 3, "normalized": frac(3, 5), "absolute": frac(3, 4)},
                        {"id": "P2", "beta": 1, "normalized": frac(1, 5), "absolute": frac(1, 4)},
                        {"id": "P3", "beta": 1, "normalized": frac(1, 5), "absolute": frac(1, 4)},
                    ],
                }
            },
            "note": "a 1% stockholder swings as often as a 49% one at simple majority",
        },
        {"analysis": 1, "expect": power_expect(
            [("P1", 2, (1, 2)), ("P2", 2, (1, 2)), ("P3", 0, (0, 1))], total=4)},
        {"analysis": 2, "expect": power_expect(
            [("P1", 2, (1, 3)), ("P2", 2, (1, 3)), ("P3", 2, (1, 3))], total=6)},
        {"analysis": 3, "expect": power_expect(
            [("P1", 3, (3, 5)), ("P2", 1, (1, 5)), ("P3", 1, (1, 5))], total=5)},
    ]
    return {
        "name": "critical_stockholders",
        "title": "Swing counts and normalized power for four benchmark meetings",
        "scenario": {
            "schema_version": 1,
            "entities": entities,
            "games": games,
            "graphs": [],
            "analyses": analyses,
        },
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# Dictator / dummy / veto status suites
# ---------------------------------------------------------------------------

def build_status_suites() -> dict:
    entities = [entity(f"P{i}", "domestic") for i in range(1, 5)]
    rows = [
        # id, quota, weights (bp), per-player (beta-free) expectations
        ("dictator_51_49", (51, 100), [5100, 4900],
         [("P1", (1, 1), ["dictator"]), ("P2", (0, 1), ["dummy"])], None),
        ("veto_67_51_49", (67, 100), [5100, 4900],
         [("P1", (1, 2), ["veto"]), ("P2", (1, 2), ["veto"])], None),
        ("veto_100_99_1", (100, 100), [9900, 100],
         [("P1", (1, 2), ["veto"]), ("P2", (1, 2), ["veto"])], None),
        ("dummy_49half", (51, 100), [4950, 4950, 100],
         [("P1", (1, 2), ["veto"]), ("P2", (1, 2), ["veto"]), ("P3", (0, 1), ["dummy"])], None),
        ("dummy_34_34_32", (67, 100), [3400, 3400, 3200],
         [("P1", (1, 2), ["veto"]), ("P2", (1, 2), ["veto"]), ("P3", (0, 1), ["dummy"])], None),
        ("veto_pattern_50_49_1", (51, 100), [5000, 4900, 100],
         [("P1", (3, 5), ["veto"]), ("P2", (1, 5), []), ("P3", (1, 5), [])],
         "published summary row prints {50%, 25%, 25%}: the count of minimal winning "
         "coalitions splits 2/1/1; the swing ratio gives {60%, 20%, 20%} with the same "
         "shape, one veto holder above two interchangeable players"),
        ("veto_pattern_50_25_25", (51, 100), [5000, 2500, 2500],
         [("P1", (3, 5), ["veto"]), ("P2", (1, 5), []), ("P3", (1, 5), [])],
         "published summary row prints {50%, 25%, 25%}; swing ratio {60%, 20%, 20%}, "
         "same qualitative pattern"),
        ("veto_pattern_40_30_30", (67, 100), [4000, 3000, 3000],
         [("P1", (3, 5), ["veto"]), ("P2", (1, 5), []), ("P3", (1, 5), [])],
         "published summary row prints {50%, 25%, 25%}; swing ratio {60%, 20%, 20%}, "
         "same qualitative pattern"),
        ("veto_unanimity", (100, 100), [3300, 3300, 3300, 100],
         [("P1", (1, 4), ["veto"]), ("P2", (1, 4), ["veto"]),
          ("P3", (1, 4), ["veto"]), ("P4", (1, 4), ["veto"])], None),
    ]
    games = []
    checks = []
    for index, (gid, quota, weights, expect_rows, divergence) in enumerate(rows):
        games.append(game(gid, quota, [(f"P{i+1}", w) for i, w in enumerate(weights)]))
        check = {
            "analysis": index,
            "expect": {
                "power": {
                    "players": [
                        {"id": pid, "normalized": frac(*norm), "statuses": statuses}
                        for pid, norm, statuses in expect_rows
                    ]
                }
            },
        }
        if divergence:
            check["documented_divergence"] = {
                "published": {"normalized_pct": ["50", "25", "25"]},
                "note": divergence,
            }
        checks.append(check)
    return {
        "name": "stockholder_status",
        "title": "Dictator, dummy and veto classification suites",
        "scenario": {
            "schema_version": 1,
            "entities": entities,
            "games": games,
            "graphs": [],
            "analyses": [{"analysis": "power", "game": g["id"]} for g in games],
        },
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# Foreign-control matrix: 16 weight rows x 2 quotas
# ---------------------------------------------------------------------------

MATRIX_ROWS: list[tuple[str, list[int], list[tuple[int, int]], list[tuple[int, int]], str, str]] = [
    # id, weights (%), V at majority, V at supermajority, classify maj, classify sup
    ("r01_60_40", [60, 40], [(1, 1), (0, 1)], [(1, 2), (1, 2)], "dictator", "joint_control"),
    ("r02_40_60", [40, 60], [(0, 1), (1, 1)], [(1, 2), (1, 2)], "no_control", "joint_control"),
    ("r03_40_30_30", [40, 30, 30], [(1, 3), (1, 3), (1, 3)], [(3, 5), (1, 5), (1, 5)],
     "joint_control", "effective_control"),
    ("r04_40_20_20_20", [40, 20, 20, 20], [(1, 2), (1, 6), (1, 6), (1, 6)],
     [(2, 5), (1, 5), (1, 5), (1, 5)], "effective_control", "effective_control"),
    ("r05_49_51", [49, 51], [(0, 1), (1, 1)], [(1, 2), (1, 2)], "no_control", "joint_control"),
    ("r06_49_26_25", [49, 26, 25], [(1, 3), (1, 3), (1, 3)], [(3, 5), (1, 5), (1, 5)],
     "joint_control", "effective_control"),
    ("r07_49_17_17_17", [49, 17, 17, 17], [(1, 2), (1, 6), (1, 6), (1, 6)],
     [(2, 5), (1, 5), (1, 5), (1, 5)], "effective_control", "effective_control"),
    ("r08_30_70", [30, 70], [(0, 1), (1, 1)], [(0, 1), (1, 1)], "no_control", "no_control"),
    ("r09_30_24_23_23", [30, 24, 23, 23], [(1, 2), (1, 6), (1, 6), (1, 6)],
     [(1, 4), (1, 4), (1, 4), (1, 4)], "effective_control", "joint_control"),
    ("r10_25_75", [25, 75], [(0, 1), (1, 1)], [(0, 1), (1, 1)], "no_control", "no_control"),
    ("r11_25_38_37", [25, 38, 37], [(1, 3), (1, 3), (1, 3)], [(0, 1), (1, 2), (1, 2)],
     "joint_control", "no_control"),
    ("r12_25_19x4_18", [25, 19, 19, 19, 18], [(1, 5)] * 5, [(1, 5)] * 5,
     "joint_control", "joint_control"),
    ("r13_20_80", [20, 80], [(0, 1), (1, 1)], [(0, 1), (1, 1)], "no_control", "no_control"),
    ("r14_20_40_40", [20, 40, 40], [(1, 3), (1, 3), (1, 3)], [(0, 1), (1, 2), (1, 2)],
     "joint_control", "no_control"),
    ("r15_20_27_27_26", [20, 27, 27, 26], [(0, 1), (1, 3), (1, 3), (1, 3)],
     [(1, 4), (1, 4), (1, 4), (1, 4)], "no_control", "joint_control"),
    ("r16_20_16x5", [20, 16, 16, 16, 16, 16], [(1, 3)] + [(2, 15)] * 5,
     [(3, 10)] + [(7, 50)] * 5, "effective_control", "effective_control"),
]


def build_matrix() -> dict:
    entities = [entity("P1", "foreign")] + [entity(f"P{i}", "domestic") for i in range(2, 7)]
    games = []
    analyses = []
    checks = []
    for row_id, weights, v_maj, v_sup, cls_maj, cls_sup in MATRIX_ROWS:
        players = [(f"P{i+1}", w * 100) for i, w in enumerate(weights)]
        for suffix, quota, vector, classification, interpretations in (
            ("maj", {"num": 51, "den": 100}, v_maj, cls_maj, ["percent"]),
            ("sup", "supermajority", v_sup, cls_sup, ["percent", "exact-fraction"]),
        ):
            gid = f"{row_id}_{suffix}"
            games.append(game(gid, quota, players))
            power_index = len(analyses)
            analyses.append({"analysis": "power", "game": gid})
            checks.append({
                "analysis": power_index,
                "interpretations": interpretations,
                "expect": norm_only(
                    [(f"P{i+1}", v) for i, v in enumerate(vector)]
                ),
            })
            classify_index = len(analyses)
            analyses.append({"analysis": "classify", "game": gid})
            checks.append({
                "analysis": classify_index,
                "interpretations": interpretations,
                "expect": {"classifications": {"P1": classification}},
            })
    return {
        "name": "foreign_control_matrix",
        "title": "Lone foreign stockholder at a maximized equity cap: 16 rows x 2 quotas",
        "scenario": {
            "schema_version": 1,
            "entities": entities,
            "games": games,
            "graphs": [],
            "analyses": analyses,
        },
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# Public float adjustment
# ---------------------------------------------------------------------------

def build_public_float() -> dict:
    entities = [
        entity("P1", "foreign"),
        entity("P2", "domestic"),
        entity("P3", "domestic"),
        entity("PUB", "public_float", name="Public float"),
    ]
    games = [game("with_float", (51, 100),
                  [("P1", 4000), ("P2", 2000), ("P3", 2000), ("PUB", 2000)])]
    analyses = [{"analysis": "float_adjust", "game": "with_float"},
                {"analysis": "classify", "game": "with_float"}]
    checks = [
        {
            "analysis": 0,
            "expect": {
                "adjusted": {
                    "players": [
                        {"id": "P1", "weight_bp": frac(5000)},
                        {"id": "P2", "weight_bp": frac(2500)},
                        {"id": "P3", "weight_bp": frac(2500)},
                    ]
                },
                "power_before": {"players": [
                    {"id": "P1", "normalized": frac(1, 2)},
                    {"id": "P2", "normalized": frac(1, 6)},
                    {"id": "P3", "normalized": frac(1, 6)},
                    {"id": "PUB", "normalized": frac(1, 6)},
                ]},
                "power_after": {"players": [
                    {"id": "P1", "normalized": frac(3, 5)},
                    {"id": "P2", "normalized": frac(1, 5)},
                    {"id": "P3", "normalized": frac(1, 5)},
                ]},
            },
            "note": "removing a 20% float lifts the foreign holder from 50% to 60% power",
        },
        {"analysis": 1, "expect": {"classifications": {"P1": "effective_control"}}},
    ]
    return {
        "name": "public_float",
        "title": "Weight renormalization net of the public float",
        "scenario": {
            "schema_version": 1,
            "entities": entities,
            "games": games,
            "graphs": [],
            "analyses": analyses,
        },
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# Board seat transposition
# ---------------------------------------------------------------------------

def build_board() -> dict:
    entities = [entity("P1", "foreign")] + [entity(f"P{i}", "domestic") for i in range(2, 5)]
    rows = [
        ("b1_40_60", [40, 60], [4, 6], [(0, 1), (1, 1)], [(1, 2), (1, 2)]),
        ("b2_40_30_30", [40, 30, 30], [4, 3, 3],
         [(1, 3), (1, 3), (1, 3)], [(3, 5), (1, 5), (1, 5)]),
        ("b3_40_20_20_20", [40, 20, 20, 20], [4, 2, 2, 2],
         [(1, 2), (1, 6), (1, 6), (1, 6)], [(2, 5), (1, 5), (1, 5), (1, 5)]),
    ]
    games = []
    analyses = []
    checks = []
    for gid, weights, seats, v_maj, v_sup in rows:
        games.append(game(gid, (51, 100), [(f"P{i+1}", w * 100) for i, w in enumerate(weights)]))
        seat_expect = [{"id": f"P{i+1}", "seats": s} for i, s in enumerate(seats)]
        maj_index = len(analyses)
        analyses.append({"analysis": "board", "game": gid, "board_size": 10})
        checks.append({
            "analysis": maj_index,
            "expect": {
                "seats": seat_expect,
                "board_power": {"players": [
                    {"id": f"P{i+1}", "normalized": frac(*v)} for i, v in enumerate(v_maj)
                ]},
            },
        })
        sup_index = len(analyses)
        analyses.append({"analysis": "board", "game": gid, "board_size": 10,
                         "quota": "supermajority"})
        checks.append({
            "analysis": sup_index,
            "interpretations": ["percent", "exact-fraction"],
            "expect": {
                "seats": seat_expect,
                "board_power": {"players": [
                    {"id": f"P{i+1}", "normalized": frac(*v)} for i, v in enumerate(v_sup)
                ]},
            },
        })
    return {
        "name": "board_tables",
        "title": "Stockholder weights transposed into a 10-seat board",
        "scenario": {
            "schema_version": 1,
            "entities": entities,
            "games": games,
            "graphs": [],
            "analyses": analyses,
        },
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# Grandfather product vs discrete propagation (two small figures)
# ---------------------------------------------------------------------------

def build_grandfather_figures() -> dict:
    entities = [entity(x, "domestic") for x in "ABCDE"]
    graphs = [
        {
            "id": "simple_chain",
            "holdings": [
                {"holder": "A", "corporation": "B", "weight_bp": 6000},
                {"holder": "B", "corporation": "C", "weight_bp": 3000},
            ],
            "quotas": [
                {"corporation": "B", "quota": {"num": 51, "den": 100}},
                {"corporation": "C", "quota": {"num": 51, "den": 100}},
            ],
        },
        {
            "id": "two_tier",
            "holdings": [
                {"holder": "A", "corporation": "D", "weight_bp": 7000},
                {"holder": "B", "corporation": "D", "weight_bp": 3000},
                {"holder": "C", "corporation": "E", "weight_bp": 5000},
                {"holder": "D", "corporation": "E", "weight_bp": 5000},
            ],
            "quotas": [
                {"corporation": "D", "quota": {"num": 51, "den": 100}},
                {"corporation": "E", "quota": {"num": 51, "den": 100}},
            ],
        },
    ]
    analyses = [
        {"analysis": "grandfather", "graph": "simple_chain", "holder": "A", "target": "C"},
        {"analysis": "grandfather", "graph": "two_tier", "holder": "A", "target": "E"},
        {"analysis": "compare", "graph": "two_tier", "target": "E"},
        {"analysis": "discrete", "graph": "two_tier"},
    ]
    checks = [
        {"analysis": 0, "expect": {"share": frac(9, 50), "share_pct": "18.00"},
         "note": "60% of 30% imputes 18% fractionally"},
        {"analysis": 1, "expect": {"share": frac(7, 20)}},
        {
            "analysis": 2,
            "expect": {
                "grandfather_power": {"players": [
                    {"id": "C", "normalized": frac(3, 5)},
                    {"id": "A", "normalized": frac(1, 5)},
                    {"id": "B", "normalized": frac(1, 5)},
                ]},
                "discrete_tier": {"power": {"players": [
                    {"id": "C", "normalized": frac(1, 2)},
                    {"id": "A", "normalized": frac(1, 2)},
                ]}},
                "diverges": True,
            },
            "note": "fractional lookthrough understates the indirect controller's veto",
        },
        {
            "analysis": 3,
            "expect": {"tiers": [
                tier_expect("D", [("A", (1, 1)), ("B", (0, 1))], "A", "dictator",
                            imputations=[]),
                tier_expect("E", [("C", (1, 2)), ("A", (1, 2))], None, None,
                            joint=["C", "A"], imputations=[("D", "A")]),
            ]},
        },
    ]
    return {
        "name": "grandfather_figures",
        "title": "Fractional lookthrough vs discrete control on a two-tier chain",
        "scenario": {
            "schema_version": 1,
            "entities": entities,
            "games": [],
            "graphs": graphs,
            "analyses": analyses,
        },
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# The mining chains: McArthur, Tesoro, Narra Nickel
# ---------------------------------------------------------------------------

def _mining_graph(gid: str, quota, upper: str, lower: str, parent: str,
                  upper_parent_bp: int, upper_foreign_bp: int, upper_minorities: int,
                  lower_foreign_bp: int, lower_block_bp: int, lower_minorities: int,
                  minority_prefix: str) -> dict:
    holdings = [
        {"holder": parent, "corporation": upper, "weight_bp": upper_parent_bp},
        {"holder": "MBMI", "corporation": upper, "weight_bp": upper_foreign_bp},
    ]
    holdings += [
        {"holder": f"{minority_prefix}u{i}", "corporation": upper, "weight_bp": 1}
        for i in range(1, upper_minorities + 1)
    ]
    holdings += [
        {"holder": "MBMI", "corporation": lower, "weight_bp": lower_foreign_bp},
        {"holder": upper, "corporation": lower, "weight_bp": lower_block_bp},
    ]
    holdings += [
        {"holder": f"{minority_prefix}l{i}", "corporation": lower, "weight_bp": 1}
        for i in range(1, lower_minorities + 1)
    ]
    if isinstance(quota, tuple):
        quota = {"num": quota[0], "den": quota[1]}
    return {
        "id": gid,
        "holdings": holdings,
        "quotas": [
            {"corporation": upper, "quota": quota},
            {"corporation": lower, "quota": quota},
        ],
    }


def build_mining_chains() -> dict:
    entities = [
        entity("MBMI", "foreign", "MBMI Resources", "Canada"),
        entity("OMDC", "domestic", "Olympic Mines and Development Corp", "Philippines"),
        entity("PASRDC", "domestic", "Palawan Alpha South Resources", "Philippines"),
        entity("MMC", "domestic", "Madridejos Mining Corp", "Philippines"),
        entity("SMMI", "domestic", "Sara Marie Mining", "Philippines"),
        entity("PLMDC", "domestic", "Patricia Louise Mining and Development Corp", "Philippines"),
        entity("MCA", "domestic", "McArthur Mining", "Philippines"),
        entity("TES", "domestic", "Tesoro Mining and Development", "Philippines"),
        entity("NAR", "domestic", "Narra Nickel Mining and Development Corp", "Philippines"),
    ]
    minorities = []
    for prefix, upper_n, lower_n in (("mc", 6, 5), ("te", 6, 5), ("na", 8, 7)):
        minorities += [f"{prefix}u{i}" for i in range(1, upper_n + 1)]
        minorities += [f"{prefix}l{i}" for i in range(1, lower_n + 1)]
    entities += [entity(m, "domestic", f"minority {m}") for m in minorities]

    graphs = []
    for suffix, quota in (("maj", (51, 100)), ("sup", "supermajority")):
        graphs.append(_mining_graph(f"mcarthur_{suffix}", quota, "MMC", "MCA", "OMDC",
                                    6663, 3331, 6, 3998, 5997, 5, "mc"))
        graphs.append(_mining_graph(f"tesoro_{suffix}", quota, "SMMI", "TES", "OMDC",
                                    6663, 3331, 6, 3998, 5997, 5, "te"))
        graphs.append(_mining_graph(f"narra_{suffix}", quota, "PLMDC", "NAR", "PASRDC",
                                    6596, 3396, 8, 3997, 5996, 7, "na"))
    analyses = [{"analysis": "discrete", "graph": g["id"]} for g in graphs]
    analyses += [
        {"analysis": "grandfather", "graph": "mcarthur_maj", "holder": "MBMI", "target": "MCA"},
        {"analysis": "grandfather", "graph": "tesoro_maj", "holder": "MBMI", "target": "TES"},
        {"analysis": "grandfather", "graph": "narra_maj", "holder": "MBMI", "target": "NAR"},
    ]

    def upper_rows(parent, prefix, n, parent_v, foreign_v, minority_v):
        rows = [(parent, parent_v), ("MBMI", foreign_v)]
        rows += [(f"{prefix}u{i}", minority_v) for i in range(1, n + 1)]
        return rows

    def lower_rows(upper, prefix, n, foreign_v, block_v, minority_v, voted_by=None):
        block_id = voted_by or upper
        rows = [("MBMI", foreign_v), (block_id, block_v)]
        rows += [(f"{prefix}l{i}", minority_v) for i in range(1, n + 1)]
        return rows

    checks = []
    for index, (suffix, upper, lower, parent, prefix, upper_n, lower_n) in enumerate((
        ("maj", "MMC", "MCA", "OMDC", "mc", 6, 5),
        ("maj", "SMMI", "TES", "OMDC", "te", 6, 5),
        ("maj", "PLMDC", "NAR", "PASRDC", "na", 8, 7),
    )):
        checks.append({
            "analysis": (0, 1, 2)[index],
            "expect": {"tiers": [
                tier_expect(upper,
                            upper_rows(parent, prefix, upper_n, (1, 1), (0, 1), (0, 1)),
                            parent, "dictator"),
                tier_expect(lower,
                            lower_rows(upper, prefix, lower_n, (0, 1), (1, 1), (0, 1),
                                       voted_by=parent),
                            parent, "dictator",
                            imputations=[(upper, parent)]),
            ]},
            "note": "at simple majority the domestic parent dictates both tiers",
        })
    # Super-majority chains: the upper tier of the McArthur/Tesoro chains is
    # the one row whose published value no exact reading reproduces.
    mmc_divergence = {
        "published": {"upper_tier_normalized_pct": ["100", "0", "0"]},
        "note": (
            "the published case table prints {100%, 0%, 0%} for this tier at the "
            "super-majority threshold, but 66.63% falls short of both readings of "
            "the quota: at 67/100 the two blockholders share power {50%, 50%, 0%}; "
            "at exactly 2/3 the parent needs four 0.01% minority holders, giving "
            "{43/94, 21/94, 5/94 per minority}"
        ),
    }
    for graph_index, (upper, lower, parent, prefix, upper_n, lower_n) in (
        (3, ("MMC", "MCA", "OMDC", "mc", 6, 5)),
        (4, ("SMMI", "TES", "OMDC", "te", 6, 5)),
    ):
        checks.append({
            "analysis": graph_index,
            "interpretations": ["percent", "exact-fraction"],
            "expect": {"by_interpretation": {
                "percent": {"tiers": [
                    tier_expect(upper,
                                upper_rows(parent, prefix, upper_n, (1, 2), (1, 2), (0, 1)),
                                None, None, joint=[parent, "MBMI"]),
                    tier_expect(lower,
                                lower_rows(upper, prefix, lower_n, (1, 2), (1, 2), (0, 1)),
                                None, None, joint=["MBMI", upper], imputations=[]),
                ]},
                "exact-fraction": {"tiers": [
                    tier_expect(upper,
                                upper_rows(parent, prefix, upper_n, (43, 94), (21, 94), (5, 94)),
                                parent, "effective"),
                    tier_expect(lower,
                                lower_rows(upper, prefix, lower_n, (1, 2), (1, 2), (0, 1)),
                                None, None, joint=["MBMI", upper], imputations=[]),
                ]},
            }},
            "documented_divergence": mmc_divergence,
        })
    checks.append({
        "analysis": 5,
        "interpretations": ["percent", "exact-fraction"],
        "expect": {"tiers": [
            tier_expect("PLMDC",
                        upper_rows("PASRDC", "na", 8, (1, 2), (1, 2), (0, 1)),
                        None, None, joint=["PASRDC", "MBMI"]),
            tier_expect("NAR",
                        lower_rows("PLMDC", "na", 7, (1, 2), (1, 2), (0, 1)),
                        None, None, joint=["MBMI", "PLMDC"], imputations=[]),
        ]},
        "note": "joint control at both tiers under either super-majority reading",
    })
    checks += [
        {"analysis": 6, "expect": {"share": frac(59956007, 10**8), "share_pct": "59.96"}},
        {"analysis": 7, "expect": {"share": frac(59956007, 10**8), "share_pct": "59.96"}},
        {"analysis": 8, "expect": {"share": frac(60332416, 10**8), "share_pct": "60.33"}},
    ]
    return {
        "name": "mining_chains",
        "title": "Two-tier mining ownership chains at both thresholds",
        "scenario": {
            "schema_version": 1,
            "entities": entities,
            "games": [],
            "graphs": graphs,
            "analyses": analyses,
        },
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# The telecom blockholders (five players, then net of float)
# ---------------------------------------------------------------------------

def build_telecom() -> dict:
    entities = [
        entity("FPG", "domestic", "First Pacific Group"),
        entity("NTT", "foreign", "NTT Group", "Japan"),
        entity("PUB", "public_float", "Held by the public"),
        entity("JGS", "domestic", "J.G. Summit Group"),
        entity("DIR", "public_float", "Directors and officers"),
    ]
    players = [("FPG", 2557), ("NTT", 2035), ("PUB", 4588), ("JGS", 801), ("DIR", 19)]
    games = [
        game("blockholders_maj", (51, 100), players),
        game("blockholders_sup", "supermajority", players),
    ]
    analyses = [
        {"analysis": "power", "game": "blockholders_maj"},
        {"analysis": "power", "game": "blockholders_sup"},
        {"analysis": "float_adjust", "game": "blockholders_maj"},
        {"analysis": "float_adjust", "game": "blockholders_sup"},
    ]
    adjusted_weights = [
        {"id": "FPG", "weight_bp": frac(25570000, 5393)},
        {"id": "NTT", "weight_bp": frac(20350000, 5393)},
        {"id": "JGS", "weight_bp": frac(8010000, 5393)},
    ]
    checks = [
        {"analysis": 0, "expect": norm_only(
            [("FPG", (1, 6)), ("NTT", (1, 6)), ("PUB", (1, 2)), ("JGS", (1, 6)), ("DIR", (0, 1))])},
        {"analysis": 1, "interpretations": ["percent", "exact-fraction"],
         "expect": norm_only(
             [("FPG", (3, 10)), ("NTT", (1, 10)), ("PUB", (1, 2)), ("JGS", (1, 10)),
              ("DIR", (0, 1))])},
        {"analysis": 2, "expect": {
            "adjusted": {"players": adjusted_weights},
            "power_after": {"players": [
                {"id": "FPG", "normalized": frac(1, 3)},
                {"id": "NTT", "normalized": frac(1, 3)},
                {"id": "JGS", "normalized": frac(1, 3)},
            ]},
        }, "note": "net of float, the three blockholders hold exactly equal power"},
        {"analysis": 3, "interpretations": ["percent", "exact-fraction"], "expect": {
            "power_after": {"players": [
                {"id": "FPG", "normalized": frac(1, 2)},
                {"id": "NTT", "normalized": frac(1, 2)},
                {"id": "JGS", "normalized": frac(0, 1)},
            ]},
        }, "note": "the foreign blockholder can veto any super-majority motion"},
    ]
    return {
        "name": "telecom_blockholders",
        "title": "Five telecom blockholders, with and without the public float",
        "scenario": {
            "schema_version": 1,
            "entities": entities,
            "games": games,
            "graphs": [],
            "analyses": analyses,
        },
        "checks": checks,
    }


def main() -> int:
    for builder in (
        build_critical_stockholders,
        build_status_suites,
        build_matrix,
        build_public_float,
        build_board,
        build_grandfather_figures,
        build_mining_chains,
        build_telecom,
    ):
        verify_and_write(builder())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
