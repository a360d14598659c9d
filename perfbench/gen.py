"""Seeded input documents for the three benchmark workloads.

Every generator takes a ``random.Random`` and returns plain scenario
documents (JSON text) plus the run options and the facts the output checker
needs. Sizes, and the shape choices that set a document's cost (meeting
quotas, board sizes and blockholder counts, the compare targets with the
most ultimate holders), follow a fixed schedule per workload; the seed
draws the weights, nationalities, corporation quotas, wiring and the order
of the documents, so two seeds give workloads of the same shape and cost.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

QUOTAS = ({"num": 51, "den": 100}, "supermajority", {"num": 2, "den": 3}, {"num": 3, "den": 4})
BOARD_SIZES = (5, 8, 10)

# Per band: meeting sizes, one document each. No document takes much more
# than a second, so that each runs about ten times in a run and its median
# time spans the machine's changes of speed (see README). That leaves out
# enum at 24 (1.5 s and 268 MB), dp at 200 (1.7 s) and mc at 300 (2.4 s,
# 147 MB) and 1000 (22 s and 429 MB).
MEETING_BANDS = {
    "enum": (6, 8, 10, 12, 14, 16, 18, 20),
    "dp": (24, 50, 100),
    "mc": (100, 150),
}
MC_SAMPLES = 2_000

# Layered networks: (layers, corporations per layer, networks), and the
# network of the mc compare. Six layers are what the mc failure needs (path
# products of five stakes scale past int64); 50 corporations a layer keep
# the document near 1.5 s, where 6x100 takes 2.5-3.5 s under mc and runs
# too seldom in a run for a steady time. A 6x100 document with every
# analysis takes 3 s and 8x300 about 11 s per compare, so both are left out.
CHAIN_SHAPES = ((4, 50, 3),)
MC_CHAIN = (6, 50)
HOLDERS_PER_CORPORATION = 4
ENUM_LIMIT = 24


@dataclass
class Op:
    """One scenario document and how to run it, as ``votepower run`` would."""

    name: str
    text: str
    backend: str = "enum"
    interpretation: str = "percent"
    fmt: str = "machine"
    samples: int | None = None
    seed: int = 0
    # Analysis index -> the documented seed-state failures it may show: an
    # exception class name, or "wrong_output".
    expected_errors: dict[int, tuple[str, ...]] = field(default_factory=dict)
    # Corpus only: the file's frozen checks, or for the verify_corpus op the
    # number of checks it must report.
    checks: list | None = None
    verify: bool = False
    expected_checks: int = 0
    # Ownership graphs the op builds from, for propagations per graph.
    graphs: int = 0


def corpus_ops(rng: random.Random, corpus_dir: Path) -> list[Op]:
    """Each corpus file under both interpretations and both formats, and one
    ``verify_corpus()``; the seed only permutes the order."""
    ops = []
    total_checks = total_graphs = 0
    for path in sorted(corpus_dir.glob("*.json")):
        document = json.loads(path.read_text(encoding="utf-8"))
        text = json.dumps(document)
        graphs = len(document["scenario"].get("graphs", []))
        total_checks += sum(len(c.get("interpretations", ["percent"])) for c in document["checks"])
        total_graphs += graphs
        for interpretation in ("percent", "exact-fraction"):
            for fmt in ("machine", "table"):
                ops.append(Op(f"{path.stem}/{interpretation}/{fmt}", text,
                              interpretation=interpretation, fmt=fmt,
                              checks=document["checks"], graphs=graphs))
    ops.append(Op("verify_corpus", "", verify=True, expected_checks=total_checks,
                  graphs=total_graphs))
    rng.shuffle(ops)
    return ops


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """``parts`` positive integers summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _small_weights(rng: random.Random, count: int, budget: int) -> list[int]:
    # Every third small holder copies an earlier small holder's weight; the
    # others draw distinct weights while the range allows. The number of
    # distinct weights, which sets the cost of counting by weight class,
    # then follows the meeting's size and not the seed.
    mean = max(2, budget // max(count, 1))
    pool = range(1, 2 * mean)
    fresh = count - count // 3
    if fresh <= len(pool):
        draws = rng.sample(pool, fresh)
    else:
        draws = [rng.choice(pool) for _ in range(fresh)]
    weights: list[int] = []
    for i in range(count):
        weights.append(rng.choice(weights) if i % 3 == 2 else draws.pop())
    return weights


def _float_weight(rng: random.Random) -> int:
    # Coprime to 10, as most real float shares are: float adjustment then
    # scales every weight by 10000 / (10000 - f) in lowest terms, so the
    # dp integer total is 10000 * (10000 - f), always past the dp table bound.
    while True:
        f = rng.randint(1500, 4000)
        if f % 2 and f % 5:
            return f


def meeting_doc(rng: random.Random, n: int, k: int) -> dict:
    """The k-th meeting of its band. Its shape (blockholders, float holder,
    quotas, board size) follows k, so that two seeds give documents of the
    same cost; the seed draws the weights and nationalities."""
    with_float = k % 3 != 2
    blocks = 2 + k % 3
    small = n - blocks - (1 if with_float else 0)
    float_bp = _float_weight(rng) if with_float else 0
    # Small weights total at most about twice the budget, so the blocks keep
    # at least 10000 - 4000 - 5000 bp between them.
    small_weights = _small_weights(rng, small, rng.randint(1500, 2500))
    block_total = 10_000 - float_bp - sum(small_weights)
    block_weights = _split(rng, block_total, blocks)
    entities, players = [], []
    for i, w in enumerate(block_weights):
        nationality = ("foreign", "domestic")[i % 2] if i < 2 else rng.choice(("foreign", "domestic"))
        entities.append({"id": f"B{i}", "name": f"Blockholder {i}", "nationality": nationality})
        players.append({"entity": f"B{i}", "weight_bp": w})
    for i, w in enumerate(small_weights):
        entities.append({"id": f"S{i}", "name": f"Holder {i}",
                         "nationality": rng.choice(("domestic", "domestic", "foreign"))})
        players.append({"entity": f"S{i}", "weight_bp": w})
    if with_float:
        entities.append({"id": "PUB", "name": "Public float", "nationality": "public_float"})
        players.append({"entity": "PUB", "weight_bp": float_bp})
    rng.shuffle(players)
    analyses = [
        {"analysis": "power", "game": "m"},
        {"analysis": "classify", "game": "m"},
        {"analysis": "board", "game": "m", "board_size": BOARD_SIZES[k % len(BOARD_SIZES)],
         "quota": QUOTAS[(k + 1) % len(QUOTAS)]},
    ]
    if with_float:
        analyses.append({"analysis": "float_adjust", "game": "m"})
    return {
        "schema_version": 1,
        "entities": entities,
        "games": [{"id": "m", "quota": QUOTAS[k % len(QUOTAS)], "players": players}],
        "graphs": [],
        "analyses": analyses,
    }


def meetings_ops(rng: random.Random) -> list[Op]:
    """Generated stockholder meetings in three backend bands."""
    ops = []
    for backend, sizes in MEETING_BANDS.items():
        for k, n in enumerate(sizes):
            document = meeting_doc(rng, n, k)
            expected = {}
            if backend == "dp" and len(document["analyses"]) == 4:
                expected[3] = ("DpTableLimitError",)
            ops.append(Op(f"{backend}/n{n}", json.dumps(document), backend=backend,
                          samples=MC_SAMPLES if backend == "mc" else None,
                          seed=rng.randrange(2**31), expected_errors=expected))
    rng.shuffle(ops)
    return ops


@dataclass
class Network:
    layers: list[list[str]]
    holders: dict[str, list[tuple[str, int]]]
    entities: list[dict]
    quotas: dict[str, object]


def layered_network(rng: random.Random, depth: int, width: int) -> Network:
    layers = [[f"U{i}" for i in range(width)]]
    entities = [{"id": u, "name": f"Investor {u}", "nationality": rng.choice(("domestic", "foreign"))}
                for u in layers[0]]
    holders: dict[str, list[tuple[str, int]]] = {}
    quotas: dict[str, object] = {}
    for level in range(1, depth):
        layer = [f"C{level}_{j}" for j in range(width)]
        for corp in layer:
            entities.append({"id": corp, "name": f"Corp {corp}",
                             "nationality": rng.choice(("domestic", "foreign"))})
            stakes = _split(rng, rng.randint(6000, 10_000), HOLDERS_PER_CORPORATION)
            above = rng.sample(layers[-1], HOLDERS_PER_CORPORATION)
            holders[corp] = list(zip(above, stakes))
            quotas[corp] = rng.choice(QUOTAS)
        layers.append(layer)
    return Network(layers, holders, entities, quotas)


def ultimate_ancestors(net: Network, target: str) -> set[str]:
    seen, stack = set(), [target]
    while stack:
        for holder, _ in net.holders.get(stack.pop(), ()):
            if holder not in seen:
                seen.add(holder)
                stack.append(holder)
    return {h for h in seen if h not in net.holders}


def chain_doc(net: Network, analyses: list[dict]) -> dict:
    graph = {
        "id": "g",
        "holdings": [{"holder": h, "corporation": corp, "weight_bp": w}
                     for corp, stakes in net.holders.items() for h, w in stakes],
        "quotas": [{"corporation": corp, "quota": q} for corp, q in net.quotas.items()],
    }
    return {"schema_version": 1, "entities": net.entities, "games": [],
            "graphs": [graph], "analyses": analyses}


def _widest(rng: random.Random, net: Network, corporations: list[str], count: int) -> list[str]:
    """The ``count`` corporations with the most ultimate holders, ties drawn
    at random: their grandfather games are the largest of their tier, so two
    seeds give compares of the same cost."""
    keyed = [(-len(ultimate_ancestors(net, c)), rng.random(), c) for c in corporations]
    return [c for _, _, c in sorted(keyed)[:count]]


def _deep_target(rng: random.Random, net: Network) -> str:
    # A bottom-tier target whose grandfather game is past the enum limit,
    # so the seed state raises EnumerationLimitError there (ROADMAP item 3).
    (target,) = _widest(rng, net, net.layers[-1], 1)
    assert len(ultimate_ancestors(net, target)) > ENUM_LIMIT
    return target


def chains_ops(rng: random.Random) -> list[Op]:
    """Generated layered ownership networks, plus one mc compare per pass."""
    ops = []
    for depth, width, count in CHAIN_SHAPES:
        for k in range(count):
            net = layered_network(rng, depth, width)
            analyses = [{"analysis": "discrete", "graph": "g"}]
            analyses += [{"analysis": "compare", "graph": "g", "target": t}
                         for t in _widest(rng, net, net.layers[2], 3) + [_deep_target(rng, net)]]
            for target in rng.sample(net.layers[-1] + net.layers[-2], 4):
                holder = rng.choice(sorted(ultimate_ancestors(net, target)))
                analyses.append({"analysis": "grandfather", "graph": "g",
                                 "holder": holder, "target": target})
            ops.append(Op(f"chain/{depth}x{width}/{k}", json.dumps(chain_doc(net, analyses)),
                          expected_errors={4: ("EnumerationLimitError",)}, graphs=1))
    # Under mc the grandfather game's path-product weights scale past int64:
    # the seed state raises OverflowError when one scaled weight does, and
    # counts zero swings when only their sum does.
    depth, width = MC_CHAIN
    net = layered_network(rng, depth, width)
    analyses = [{"analysis": "compare", "graph": "g", "target": _deep_target(rng, net)}]
    ops.append(Op(f"chain/{depth}x{width}/mc", json.dumps(chain_doc(net, analyses)),
                  backend="mc", expected_errors={0: ("OverflowError", "wrong_output")}, graphs=1))
    rng.shuffle(ops)
    return ops
