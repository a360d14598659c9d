from __future__ import annotations

import random
from fractions import Fraction

import pytest

from votepower import (
    ControlClassification,
    ControlTestVerdict,
    CycleError,
    Entity,
    Holding,
    Nationality,
    Quota,
    ValidationError,
    Weight,
    compare_methods,
    discrete_propagate,
    grandfather_equity,
    make_graph,
    nationality_verdict,
    tier_verdict,
)
from votepower.ownership import ControllerKind, Imputation

F = Nationality.foreign("Canada")
D = Nationality.domestic("Philippines")


def bp(n):
    return Weight(n)


def simple_chain():
    entities = [Entity(x, x, D) for x in "ABC"]
    holdings = [Holding("A", "B", bp(6000)), Holding("B", "C", bp(3000))]
    return make_graph(entities, holdings, {"B": Quota.percent(51), "C": Quota.percent(51)})


def two_tier(quota=None):
    quota = quota or Quota.percent(51)
    entities = [Entity(x, x, D) for x in "ABCDE"]
    holdings = [
        Holding("A", "D", bp(7000)),
        Holding("B", "D", bp(3000)),
        Holding("C", "E", bp(5000)),
        Holding("D", "E", bp(5000)),
    ]
    return make_graph(entities, holdings, {"D": quota, "E": quota})


def mining_chain(quota, upper="MMC", lower="MCA", parent="OMDC",
                 parent_bp=6663, foreign_upper=3331, upper_minorities=6,
                 foreign_lower=3998, block=5997, lower_minorities=5):
    entities = [
        Entity("MBMI", "MBMI", F),
        Entity(parent, parent, D),
        Entity(upper, upper, D),
        Entity(lower, lower, D),
    ]
    entities += [Entity(f"u{i}", f"u{i}", D) for i in range(upper_minorities)]
    entities += [Entity(f"l{i}", f"l{i}", D) for i in range(lower_minorities)]
    holdings = [Holding(parent, upper, bp(parent_bp)), Holding("MBMI", upper, bp(foreign_upper))]
    holdings += [Holding(f"u{i}", upper, bp(1)) for i in range(upper_minorities)]
    holdings += [Holding("MBMI", lower, bp(foreign_lower)), Holding(upper, lower, bp(block))]
    holdings += [Holding(f"l{i}", lower, bp(1)) for i in range(lower_minorities)]
    return make_graph(entities, holdings, {upper: quota, lower: quota})


def narra_chain(quota):
    return mining_chain(quota, upper="PLMDC", lower="NAR", parent="PASRDC",
                        parent_bp=6596, foreign_upper=3396, upper_minorities=8,
                        foreign_lower=3997, block=5996, lower_minorities=7)


def normalized_by_id(verdict):
    return {e.player_id: e.normalized for e in verdict.report.entries}


def test_graph_validation():
    entities = [Entity("A", "A", D), Entity("B", "B", D)]
    with pytest.raises(ValidationError, match="unknown entity"):
        make_graph(entities, [Holding("A", "X", bp(100))], {"X": Quota.percent(51)})
    with pytest.raises(ValidationError, match="duplicate holding"):
        make_graph(entities, [Holding("A", "B", bp(100)), Holding("A", "B", bp(50))],
                   {"B": Quota.percent(51)})
    with pytest.raises(ValidationError, match="above the full stock"):
        make_graph(entities, [Holding("A", "B", bp(10_001))], {"B": Quota.percent(51)})
    with pytest.raises(ValidationError, match="no quota"):
        make_graph(entities, [Holding("A", "B", bp(100))], {})
    with pytest.raises(ValidationError, match="no stockholders"):
        make_graph(entities, [Holding("A", "B", bp(100))],
                   {"A": Quota.percent(51), "B": Quota.percent(51)})


def test_cycle_detection():
    entities = [Entity("A", "A", D), Entity("B", "B", D)]
    holdings = [Holding("A", "B", bp(6000)), Holding("B", "A", bp(6000))]
    with pytest.raises(CycleError):
        make_graph(entities, holdings, {"A": Quota.percent(51), "B": Quota.percent(51)})


def test_grandfather_product():
    graph = simple_chain()
    assert grandfather_equity(graph, "A", "C") == Fraction(18, 100)
    assert grandfather_equity(graph, "A", "B") == Fraction(60, 100)   # direct only
    assert grandfather_equity(graph, "C", "A") == 0                   # unreachable


def test_grandfather_figure_shares():
    graph = two_tier()
    assert grandfather_equity(graph, "A", "E") == Fraction(35, 100)
    assert grandfather_equity(graph, "B", "E") == Fraction(15, 100)
    assert grandfather_equity(graph, "C", "E") == Fraction(50, 100)


def test_grandfather_shares_sum_to_one_when_chains_terminate():
    graph = mining_chain(Quota.percent(51))
    total = sum(grandfather_equity(graph, h, "MCA") for h in graph.ultimate_holders())
    assert total == 1


def test_grandfather_mining_equity():
    graph = mining_chain(Quota.percent(51))
    assert grandfather_equity(graph, "MBMI", "MCA") == Fraction(59956007, 10**8)
    narra = narra_chain(Quota.percent(51))
    assert grandfather_equity(narra, "MBMI", "NAR") == Fraction(60332416, 10**8)


def test_discrete_two_tier_versus_grandfather():
    graph = two_tier()
    verdicts = {v.corporation: v for v in discrete_propagate(graph)}
    assert verdicts["D"].controller == "A"
    assert verdicts["D"].controller_kind is ControllerKind.DICTATOR
    tier_e = verdicts["E"]
    assert normalized_by_id(tier_e) == {"C": Fraction(1, 2), "A": Fraction(1, 2)}
    assert tier_e.controller is None
    assert set(tier_e.joint_controllers) == {"C", "A"}
    assert tier_e.imputations == (Imputation("D", "A"),)

    comparison = compare_methods(graph, "E")
    assert comparison.grandfather_report.normalized_vector() == (
        Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))
    assert comparison.diverges


def test_single_tier_methods_agree():
    entities = [Entity("A", "A", D), Entity("B", "B", F), Entity("T", "T", D)]
    holdings = [Holding("A", "T", bp(6000)), Holding("B", "T", bp(4000))]
    graph = make_graph(entities, holdings, {"T": Quota.percent(67)})
    comparison = compare_methods(graph, "T")
    assert not comparison.diverges
    assert normalized_by_id(comparison.tier) == {
        "A": Fraction(1, 2), "B": Fraction(1, 2)}


def test_single_tier_coincides_with_single_meeting_analysis():
    from votepower import classify_foreign_control, control_test, power_report
    from votepower.ownership import direct_game

    entities = [Entity("A", "A", D), Entity("B", "B", F), Entity("T", "T", D)]
    holdings = [Holding("A", "T", bp(6000)), Holding("B", "T", bp(4000))]
    graph = make_graph(entities, holdings, {"T": Quota.percent(67)})
    meeting = direct_game(graph, "T")
    verdict = nationality_verdict(graph, "T", Fraction(60, 100))
    assert verdict.control_test is control_test(meeting, Fraction(60, 100))
    assert verdict.tier.report.entries == power_report(meeting).entries
    assert dict(verdict.foreign_power) == classify_foreign_control(meeting)
    assert verdict.grandfather_domestic_share == Fraction(6000, 10000)


def test_mining_chain_majority_tiers():
    verdicts = {v.corporation: v for v in discrete_propagate(mining_chain(Quota.percent(51)))}
    mmc = verdicts["MMC"]
    assert mmc.controller == "OMDC" and mmc.controller_kind is ControllerKind.DICTATOR
    assert mmc.report.normalized("OMDC") == 1
    assert mmc.report.normalized("MBMI") == 0
    mca = verdicts["MCA"]
    assert mca.imputations == (Imputation("MMC", "OMDC"),)
    assert mca.report.normalized("OMDC") == 1
    assert mca.report.normalized("MBMI") == 0
    assert mca.controller == "OMDC"


def test_mining_chain_supermajority_both_readings():
    for quota, upper_expect in (
        (Quota.percent(67),
         {"OMDC": Fraction(1, 2), "MBMI": Fraction(1, 2)}),
        (Quota.of(2, 3),
         {"OMDC": Fraction(43, 94), "MBMI": Fraction(21, 94)}),
    ):
        verdicts = {v.corporation: v for v in discrete_propagate(mining_chain(quota))}
        mmc = normalized_by_id(verdicts["MMC"])
        for holder, value in upper_expect.items():
            assert mmc[holder] == value
        # no dictator upstream, so the lower tier sees MMC itself
        mca = normalized_by_id(verdicts["MCA"])
        assert mca["MBMI"] == Fraction(1, 2)
        assert mca["MMC"] == Fraction(1, 2)
        assert verdicts["MCA"].imputations == ()
    minority = {pid: v for pid, v in mmc.items() if pid.startswith("u")}
    assert set(minority.values()) == {Fraction(5, 94)}


def test_narra_chain_tiers():
    verdicts = {v.corporation: v for v in discrete_propagate(narra_chain(Quota.percent(51)))}
    assert verdicts["PLMDC"].controller == "PASRDC"
    assert verdicts["NAR"].report.normalized("PASRDC") == 1
    assert verdicts["NAR"].report.normalized("MBMI") == 0
    for quota in (Quota.percent(67), Quota.of(2, 3)):
        verdicts = {v.corporation: v for v in discrete_propagate(narra_chain(quota))}
        assert normalized_by_id(verdicts["PLMDC"])["PASRDC"] == Fraction(1, 2)
        assert normalized_by_id(verdicts["PLMDC"])["MBMI"] == Fraction(1, 2)
        nar = normalized_by_id(verdicts["NAR"])
        assert nar["PLMDC"] == Fraction(1, 2)
        assert nar["MBMI"] == Fraction(1, 2)
        assert set(verdicts["NAR"].joint_controllers) == {"MBMI", "PLMDC"}


def test_discrete_is_order_independent():
    base = mining_chain(Quota.percent(51))
    reference = {
        v.corporation: (normalized_by_id(v), v.controller, v.imputations)
        for v in discrete_propagate(base)
    }
    rng = random.Random(5)
    for _ in range(5):
        entities = list(base.entities)
        holdings = list(base.holdings)
        rng.shuffle(entities)
        rng.shuffle(holdings)
        shuffled = make_graph(entities, holdings, dict(base.quotas))
        result = {
            v.corporation: (normalized_by_id(v), v.controller, v.imputations)
            for v in discrete_propagate(shuffled)
        }
        for corporation, (powers, controller, _) in reference.items():
            assert result[corporation][0] == powers
            assert result[corporation][1] == controller


def test_controller_merges_direct_and_controlled_blocks():
    # A dictates B and also holds directly in C, so A votes both stakes as one.
    entities = [Entity("A", "A", F), Entity("B", "B", D), Entity("C", "C", D),
                Entity("M", "M", D)]
    holdings = [
        Holding("A", "B", bp(6000)),
        Holding("A", "C", bp(2000)),
        Holding("B", "C", bp(4000)),
        Holding("M", "C", bp(4000)),
    ]
    graph = make_graph(entities, holdings, {"B": Quota.percent(51), "C": Quota.percent(51)})
    verdict = tier_verdict(graph, "C")
    assert {p.id: p.weight.bp for p in verdict.game.players} == {"A": 6000, "M": 4000}
    assert verdict.controller == "A"
    assert Imputation("B", "A") in verdict.imputations


def test_nationality_verdict_narra():
    graph = narra_chain(Quota.percent(51))
    verdict = nationality_verdict(graph, "NAR", Fraction(60, 100))
    assert verdict.control_test is ControlTestVerdict.NATIONAL
    assert verdict.grandfather_domestic_share == Fraction(39667584, 10**8)
    assert verdict.grandfather is ControlTestVerdict.FOREIGN
    assert dict(verdict.foreign_power) == {"MBMI": ControlClassification.NO_CONTROL}
    assert verdict.tier.controller == "PASRDC"

    super_verdict = nationality_verdict(narra_chain(Quota.of(2, 3)), "NAR", Fraction(60, 100))
    assert dict(super_verdict.foreign_power) == {"MBMI": ControlClassification.JOINT_CONTROL}


def test_nationality_verdict_all_domestic():
    # A fully attributed, all-domestic chain: every tier sums to 100%.
    entities = [Entity(x, x, D) for x in "AXBYC"]
    holdings = [
        Holding("A", "B", bp(6000)), Holding("X", "B", bp(4000)),
        Holding("B", "C", bp(3000)), Holding("Y", "C", bp(7000)),
    ]
    graph = make_graph(entities, holdings, {"B": Quota.percent(51), "C": Quota.percent(51)})
    verdict = nationality_verdict(graph, "C", Fraction(60, 100))
    assert verdict.control_test is ControlTestVerdict.NATIONAL
    assert verdict.grandfather_domestic_share == 1
    assert verdict.grandfather is ControlTestVerdict.NATIONAL
    assert verdict.foreign_power == ()


@pytest.mark.parametrize("holdings", [
    [Holding("F", "T", bp(10000))],
    [Holding("F", "T", bp(7000)), Holding("P", "T", bp(3000))],
])
def test_nationality_verdict_with_no_domestic_voter(holdings):
    # A target held wholly by a foreign stockholder, or by one and the
    # public float: no domestic voter to compare against, and F dictates.
    entities = [Entity("F", "F", F), Entity("P", "P", Nationality.public_float()),
                Entity("T", "T", D)]
    graph = make_graph(entities, holdings, {"T": Quota.of(51, 100)})
    verdict = nationality_verdict(graph, "T", Fraction(3, 5))
    assert verdict.foreign_power == (("F", ControlClassification.DICTATOR),)
    assert verdict.control_test is verdict.grandfather is ControlTestVerdict.FOREIGN


def test_compare_methods_unknown_target():
    with pytest.raises(ValidationError, match="no stockholders"):
        compare_methods(simple_chain(), "A")


def test_each_graph_is_built_and_propagated_once(monkeypatch):
    from votepower import ownership, scenario
    from votepower.report import run_scenario, tier_json

    document = {
        "schema_version": 1,
        "entities": [{"id": x, "name": x, "nationality": n} for x, n in (
            ("A", "domestic"), ("B", "domestic"), ("C", "foreign"),
            ("D", "domestic"), ("E", "domestic"))],
        "graphs": [{
            "id": "g",
            "holdings": [{"holder": h, "corporation": c, "weight_bp": w} for h, c, w in (
                ("A", "D", 7000), ("B", "D", 3000), ("C", "E", 5000), ("D", "E", 5000))],
            "quotas": [{"corporation": c, "quota": {"num": 51, "den": 100}} for c in "DE"],
        }],
        "analyses": [{"analysis": "discrete", "graph": "g"},
                     {"analysis": "compare", "graph": "g", "target": "D"},
                     {"analysis": "compare", "graph": "g", "target": "E"}],
    }
    calls = {"make_graph": [], "_tier_game": []}

    def spy(module, name):
        real = getattr(module, name)

        def wrapped(*args):
            calls[name].append(args)
            return real(*args)
        monkeypatch.setattr(module, name, wrapped)

    spy(scenario, "make_graph")
    spy(ownership, "_tier_game")
    parsed = scenario.parse(document)
    results = run_scenario(parsed)
    graph = parsed.build_graph("g")
    verdict = nationality_verdict(graph, "E", Fraction(60, 100))
    assert len(calls["make_graph"]) == 1
    # One propagation for all four analyses; the last game is the Control
    # Test's direct meeting of the target.
    tiers = [corporation for _, corporation, _ in calls["_tier_game"]]
    assert tiers == list(graph.corporations()) + ["E"]
    verdicts = discrete_propagate(graph)
    assert verdict.tier is verdicts[1]
    assert results[0].payload["tiers"] == [tier_json(v) for v in verdicts]
    assert results[2].payload["discrete_tier"] == tier_json(verdict.tier)


def test_propagation_memo_is_keyed_by_backend():
    graph = mining_chain(Quota.of(2, 3))
    enum = discrete_propagate(graph, backend="enum")
    dp = discrete_propagate(graph, backend="dp")
    mc = discrete_propagate(graph, backend="mc")
    assert {v.report.backend for v in dp} == {"dp"}
    assert {v.report.backend for v in mc} == {"mc"}
    assert all(a is b for a, b in zip(discrete_propagate(graph, backend="enum"), enum))
    assert [normalized_by_id(v) for v in dp] == [normalized_by_id(v) for v in enum]


def test_mc_tier_games_draw_one_histogram_per_size():
    from votepower import engine

    entities = [Entity(x, x, D) for x in ["X1", "X2", "X3", "X4", "X5", "X6"]]
    entities += [Entity(k, k, D) for k in ["K1", "K2", "K3", "K4", "K5", "K6"]]
    stakes = {
        "K1": {"X1": 10_000},
        "K2": {"X1": 5000, "X2": 5000},
        "K3": {"X1": 4000, "X2": 3000, "X3": 3000},
        "K4": {"X1": 2500, "X2": 2500, "X3": 2500, "X4": 2500},
        "K5": {"X4": 6000, "X5": 4000},
        "K6": {"K2": 4000, "K3": 3500, "X6": 2500},
    }
    holdings = [Holding(h, corp, bp(w)) for corp, held in stakes.items() for h, w in held.items()]
    graph = make_graph(entities, holdings, {corp: Quota.percent(51) for corp in stakes})
    engine._mc_hits.cache_clear()
    engine._coalition_counts.cache_clear()
    verdicts = discrete_propagate(graph, backend="mc")
    sizes = [v.game.n for v in verdicts]
    assert sorted(sizes) == [1, 2, 2, 3, 3, 4]
    # Every tier game of one size reads the same 50,000 draws.
    info = engine._coalition_counts.cache_info()
    assert (info.misses, info.hits) == (len(set(sizes)), len(sizes) - len(set(sizes)))


def _layered_document(seed, depth=5, width=4):
    """A scenario of ``depth`` layers of ``width`` entities: the top layer
    are ultimate holders, and each corporation below is held by three
    entities of the layer above, at stakes in whole tenths."""
    rng = random.Random(seed)
    layers = [[f"U{i}" for i in range(width)]]
    holdings = []
    for level in range(1, depth):
        layers.append([f"C{level}_{j}" for j in range(width)])
        for corp in layers[-1]:
            cuts = sorted(rng.sample(range(1, 10), 2))
            stakes = [cuts[0], cuts[1] - cuts[0], 10 - cuts[1]]
            for holder, tenths in zip(rng.sample(layers[-2], 3), stakes):
                holdings.append({"holder": holder, "corporation": corp, "weight_bp": 1000 * tenths})
    corporations = [corp for layer in layers[1:] for corp in layer]
    return {
        "schema_version": 1,
        "entities": [{"id": x, "name": x, "nationality": rng.choice(("domestic", "foreign"))}
                     for layer in layers for x in layer],
        "graphs": [{
            "id": "g",
            "holdings": holdings,
            "quotas": [{"corporation": c, "quota": rng.choice(({"num": 51, "den": 100},
                                                              {"num": 2, "den": 3}))}
                       for c in corporations],
        }],
        "analyses": [],
    }


def _upstream(graph, corporation):
    """The corporations that hold ``corporation``, directly or not."""
    seen, stack = set(), [corporation]
    while stack:
        for holding in graph.holdings_in(stack.pop()):
            if holding.holder not in seen and holding.holder not in graph.ultimate_holders():
                seen.add(holding.holder)
                stack.append(holding.holder)
    return seen


def _spy_tier_games(monkeypatch) -> list[str]:
    from votepower import ownership

    played = []
    real = ownership._tier_game

    def spy(graph, corporation, votes_as):
        played.append(corporation)
        return real(graph, corporation, votes_as)
    monkeypatch.setattr(ownership, "_tier_game", spy)
    return played


@pytest.mark.parametrize("backend", ["enum", "mc"])
def test_tier_verdict_plays_only_the_tiers_above_its_target(monkeypatch, backend):
    from votepower import scenario

    graph = scenario.parse(_layered_document(3)).build_graph("g")
    order = graph.corporations()
    target = order[-1]
    upstream = _upstream(graph, target)
    # Some corporations of the upper layers are not above the target.
    assert 0 < len(upstream) < len(order) - 1
    played = _spy_tier_games(monkeypatch)
    verdict = tier_verdict(graph, target, backend=backend)
    assert played == [c for c in order if c in upstream | {target}]
    assert tier_verdict(graph, target, backend=backend) is verdict
    assert len(played) == len(upstream) + 1
    # Propagation plays only the rest, and hands back the same verdicts.
    del played[:]
    verdicts = discrete_propagate(graph, backend=backend)
    assert played == [c for c in order if c not in upstream | {target}]
    assert verdicts[order.index(target)] is verdict
    assert all(tier_verdict(graph, v.corporation, backend=backend) is v for v in verdicts)
    assert all(a is b for a, b in zip(discrete_propagate(graph, backend=backend), verdicts))
    assert len(played) == len(order) - len(upstream) - 1


def test_tier_verdict_of_an_unknown_corporation_raises():
    graph = simple_chain()
    for corporation in ("A", "Z"):
        with pytest.raises(ValidationError, match="no stockholders"):
            tier_verdict(graph, corporation)


@pytest.mark.parametrize("backend", ["enum", "dp", "mc"])
def test_analyses_give_the_same_payloads_in_either_order(backend):
    from votepower import scenario
    from votepower.report import RunOptions, run_scenario

    document = _layered_document(8)
    graph = scenario.parse(document).build_graph("g")
    order = graph.corporations()
    analyses = [{"analysis": "compare", "graph": "g", "target": t}
                for t in (order[-1], order[len(order) // 2], order[0])]
    analyses.append({"analysis": "discrete", "graph": "g"})
    analyses.append({"analysis": "grandfather", "graph": "g", "holder": "U0", "target": order[-1]})
    analyses.append({"analysis": "compare", "graph": "g", "target": order[-2]})
    # Upstream dictators vote some blocks below them, so order could matter.
    assert any(v.imputations for v in discrete_propagate(graph, backend=backend))
    payloads = {}
    for name, ordered in (("forward", analyses), ("reversed", analyses[::-1])):
        results = run_scenario(scenario.parse(document | {"analyses": ordered}),
                               RunOptions(backend=backend))
        payloads[name] = [r.payload for r in results]
    assert payloads["forward"] == payloads["reversed"][::-1]


@pytest.mark.parametrize("backend", ["enum", "dp"])
def test_imputations_come_only_from_dictated_corporations(backend):
    from votepower import scenario

    rng = random.Random(23)
    imputed = 0
    for seed in range(40):
        graph = scenario.parse(_layered_document(seed)).build_graph("g")
        order = graph.corporations()
        # Judge one tier first, so propagation resumes from a partial memo.
        tier_verdict(graph, rng.choice(order), backend=backend)
        verdicts = {v.corporation: v for v in discrete_propagate(graph, backend=backend)}
        dictated = {c for c, v in verdicts.items() if v.controller_kind is ControllerKind.DICTATOR}

        def controller(corporation):
            voter = verdicts[corporation].controller
            while voter in dictated:
                voter = verdicts[voter].controller
            return voter

        for corporation in order:
            expected = {Imputation(h.holder, controller(h.holder))
                        for h in graph.holdings_in(corporation) if h.holder in dictated}
            assert set(verdicts[corporation].imputations) == expected, (seed, corporation)
            imputed += len(expected)
    # Not vacuous: the dictated corporations pass on hundreds of blocks.
    assert imputed > 100


def _renamed_corporations(document, seed):
    """``document`` with its corporations renamed by a seeded permutation of
    their ids, and the map from each entity's new id back to its old one."""
    graph = document["graphs"][0]
    corporations = [q["corporation"] for q in graph["quotas"]]
    new = {e["id"]: e["id"] for e in document["entities"]}
    new.update(zip(corporations, random.Random(seed).sample(corporations, len(corporations))))
    renamed = {**document,
               "entities": [{**e, "id": new[e["id"]]} for e in document["entities"]],
               "graphs": [{"id": graph["id"],
                           "holdings": [{**h, "holder": new[h["holder"]],
                                         "corporation": new[h["corporation"]]}
                                        for h in graph["holdings"]],
                           "quotas": [{**q, "corporation": new[q["corporation"]]}
                                      for q in graph["quotas"]]}]}
    return renamed, {to: old for old, to in new.items()}


def _verdicts_by_old_id(graph, backend, old):
    """Each corporation's verdict, with every id read back through ``old``."""
    return {old[v.corporation]: (old.get(v.controller), v.controller_kind,
                                 tuple(old[c] for c in v.joint_controllers),
                                 tuple(Imputation(old[i.holder], old[i.voted_by])
                                       for i in v.imputations),
                                 {old[e.player_id]: e.normalized for e in v.report.entries})
            for v in discrete_propagate(graph, backend=backend)}


@pytest.mark.parametrize("backend", ["enum", "dp"])
def test_verdicts_do_not_depend_on_how_the_topological_order_breaks_ties(backend):
    from votepower import scenario

    for seed in range(4):
        document = _layered_document(seed, depth=4, width=6)
        graph = scenario.parse(document).build_graph("g")
        same = {e.id: e.id for e in graph.entities}
        expected = _verdicts_by_old_id(graph, backend, same)
        # Upstream dictators vote blocks below them, so a tier judged too
        # early would show.
        assert any(imputations for _, _, _, imputations, _ in expected.values())
        renamed, old = _renamed_corporations(document, seed)
        renamed_graph = scenario.parse(renamed).build_graph("g")
        # The sorted ready sets now break their ties in another order.
        assert [old[c] for c in renamed_graph.corporations()] != list(graph.corporations())
        assert _verdicts_by_old_id(renamed_graph, backend, old) == expected, seed


def _path_products(edges, holder, target):
    """Every holder-to-target path's stake product, found without memo."""
    if holder == target:
        return [Fraction(1)]
    return [Fraction(w, 10_000) * rest
            for h, corp, w in edges if h == holder
            for rest in _path_products(edges, corp, target)]


def test_grandfather_equity_matches_path_enumeration():
    rng = random.Random(4242)
    diamonds = zero_weights = 0
    for _ in range(60):
        ids = [f"e{i}" for i in range(rng.randint(2, 8))]
        edges = []
        for j, corp in enumerate(ids[1:], start=1):
            holders = [h for h in ids[:j] if rng.random() < 0.5]
            weights = [0 if rng.random() < 0.15 else rng.randint(1, 10_000 // len(holders))
                       for _ in holders]
            if holders and not any(weights):
                weights[-1] = 1  # a corporation's holdings may not sum to 0 bp
            edges += zip(holders, [corp] * len(holders), weights)
            zero_weights += weights.count(0)
        held = {corp for _, corp, _ in edges}
        rng.shuffle(edges)
        graph = make_graph([Entity(x, x, D) for x in ids],
                           [Holding(h, c, bp(w)) for h, c, w in edges],
                           {c: rng.choice([Quota.percent(51), Quota.of(2, 3)]) for c in held})
        for target in ids:
            for holder in ids:
                paths = _path_products(edges, holder, target)
                diamonds += len(paths) > 1
                assert grandfather_equity(graph, holder, target) == sum(paths, Fraction(0))
            assert sum(grandfather_equity(graph, h, target) for h in graph.ultimate_holders()) <= 1
    assert diamonds and zero_weights
