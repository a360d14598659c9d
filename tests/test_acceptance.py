"""Acceptance suite: every published benchmark, reproduced exactly.

Each test covers one numbered criterion and prints one pass line (visible
with ``pytest -s``). All comparisons are exact rational equality except the
explicitly statistical Monte Carlo interval checks. Where a published table
row disagrees with exact recomputation, the test asserts the recomputed
truth under both quota readings and requires the divergence report to be
produced, rather than forcing the published number.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

from votepower import (
    Nationality,
    Player,
    Quota,
    Status,
    Weight,
    allocate_board_seats,
    board_power,
    compare_methods,
    discrete_propagate,
    float_adjust,
    grandfather_equity,
    make_game,
    power_report,
    swing_counts_dp,
    swing_counts_enum,
    swing_estimate_mc,
)
from votepower.corpus import verify_corpus
from conftest import game, random_game
from test_ownership import mining_chain, narra_chain, two_tier

F2 = lambda a, b: Fraction(a, b)  # noqa: E731 - table shorthand


def brute_force_beta(quota: Quota, weights: list[Fraction]) -> list[int]:
    """Definitional oracle: walk every member set with exact rationals."""
    total = sum(weights)
    threshold = quota.threshold * total
    n = len(weights)
    beta = [0] * n
    for size in range(1, n + 1):
        for members in combinations(range(n), size):
            coalition_weight = sum(weights[i] for i in members)
            if coalition_weight < threshold:
                continue
            for i in members:
                if coalition_weight - weights[i] < threshold:
                    beta[i] += 1
    return beta


def passed(criterion: int, text: str) -> None:
    print(f"criterion {criterion:02d}: PASS - {text}")


def test_criterion_01_critical_stockholder_tables():
    tables = [
        (51, [50, 49, 1], (3, 1, 1)),
        (67, [50, 49, 1], (2, 2, 0)),
        (51, [40, 30, 30], (2, 2, 2)),
        (67, [40, 30, 30], (3, 1, 1)),
    ]
    for quota, weights, expected in tables:
        g = game(quota, weights)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            counts = swing_counts_enum(g)
            best = min(best, time.perf_counter() - start)
        assert counts == expected
        assert best < 0.001, f"enumeration took {best * 1000:.3f} ms"
        oracle = brute_force_beta(g.quota, [p.weight.bp for p in g.players])
        assert tuple(oracle) == expected
    passed(1, "four swing-count tables exact, under 1 ms each")


def test_criterion_02_voting_power_tables():
    expected = [
        (51, [50, 49, 1], (F2(3, 5), F2(1, 5), F2(1, 5))),
        (67, [50, 49, 1], (F2(1, 2), F2(1, 2), Fraction(0))),
        (51, [40, 30, 30], (F2(1, 3), F2(1, 3), F2(1, 3))),
        (67, [40, 30, 30], (F2(3, 5), F2(1, 5), F2(1, 5))),
    ]
    for quota, weights, vector in expected:
        assert power_report(game(quota, weights)).normalized_vector() == vector
    passed(2, "normalized power vectors exact for the four benchmark games")


def test_criterion_03_dictator_dummy_veto_suites():
    report = power_report(game(51, [51, 49]))
    assert report.normalized_vector() == (Fraction(1), Fraction(0))
    assert Status.DICTATOR in report.statuses("P1")
    assert Status.DUMMY in report.statuses("P2")

    for quota, weights in ((67, [51, 49]), (100, [99, 1])):
        report = power_report(game(quota, weights))
        assert report.normalized_vector() == (F2(1, 2), F2(1, 2))
        assert all(Status.VETO in report.statuses(p) for p in ("P1", "P2"))

    for quota, weights in ((51, ["49.5", "49.5", "1"]), (67, [34, 34, 32])):
        report = power_report(game(quota, weights))
        assert report.normalized_vector() == (F2(1, 2), F2(1, 2), Fraction(0))
        assert Status.DUMMY in report.statuses("P3")

    # The half/quarter/quarter pattern: one veto holder above two players
    # that are exactly interchangeable. The published summary rows print
    # {50, 25, 25}, a minimal-winning-coalition split; the swing-ratio
    # index assigns (3/5, 1/5, 1/5) with the same qualitative ordering and
    # an absolute index of exactly 25% for each minor player.
    for quota, weights in ((51, [50, 25, 25]), (67, [40, 30, 30])):
        g = game(quota, weights)
        report = power_report(g)
        assert report.statuses("P1") == {Status.VETO}
        assert Status.VETO not in report.statuses("P2") | report.statuses("P3")
        assert report.normalized_vector() == (F2(3, 5), F2(1, 5), F2(1, 5))
        assert report.absolute_vector() == (F2(3, 4), F2(1, 4), F2(1, 4))
        assert report.normalized("P2") == report.normalized("P3") > 0
        assert report.normalized("P1") > report.normalized("P2")
        assert not any(Status.DUMMY in e.statuses for e in report.entries)

    report = power_report(game(100, [33, 33, 33, 1]))
    assert report.normalized_vector() == (F2(1, 4),) * 4
    assert all(Status.VETO in e.statuses for e in report.entries)
    passed(3, "dictator, dummy and veto suites exact, including both "
              "veto-pattern games")


MATRIX = [
    ([60, 40], ((1, 1), (0, 1)), ((1, 2), (1, 2))),
    ([40, 60], ((0, 1), (1, 1)), ((1, 2), (1, 2))),
    ([40, 30, 30], ((1, 3),) * 3, ((3, 5), (1, 5), (1, 5))),
    ([40, 20, 20, 20], ((1, 2), (1, 6), (1, 6), (1, 6)), ((2, 5), (1, 5), (1, 5), (1, 5))),
    ([49, 51], ((0, 1), (1, 1)), ((1, 2), (1, 2))),
    ([49, 26, 25], ((1, 3),) * 3, ((3, 5), (1, 5), (1, 5))),
    ([49, 17, 17, 17], ((1, 2), (1, 6), (1, 6), (1, 6)), ((2, 5), (1, 5), (1, 5), (1, 5))),
    ([30, 70], ((0, 1), (1, 1)), ((0, 1), (1, 1))),
    ([30, 24, 23, 23], ((1, 2), (1, 6), (1, 6), (1, 6)), ((1, 4),) * 4),
    ([25, 75], ((0, 1), (1, 1)), ((0, 1), (1, 1))),
    ([25, 38, 37], ((1, 3),) * 3, ((0, 1), (1, 2), (1, 2))),
    ([25, 19, 19, 19, 18], ((1, 5),) * 5, ((1, 5),) * 5),
    ([20, 80], ((0, 1), (1, 1)), ((0, 1), (1, 1))),
    ([20, 40, 40], ((1, 3),) * 3, ((0, 1), (1, 2), (1, 2))),
    ([20, 27, 27, 26], ((0, 1), (1, 3), (1, 3), (1, 3)), ((1, 4),) * 4),
    ([20, 16, 16, 16, 16, 16], ((1, 3),) + ((2, 15),) * 5, ((3, 10),) + ((7, 50),) * 5),
]


def test_criterion_04_foreign_control_matrix():
    checked = 0
    for weights, majority, supermajority in MATRIX:
        for quota, expected in ((Quota.percent(51), majority),
                                (Quota.percent(67), supermajority),
                                (Quota.of(2, 3), supermajority)):
            vector = power_report(game(quota, weights)).normalized_vector()
            assert vector == tuple(Fraction(*e) for e in expected), (weights, quota)
            checked += 1
    assert checked == 48  # 16 rows x (51%, 67%, exact 2/3)
    passed(4, "all 16 matrix rows reproduce the printed vectors at both "
              "quotas (and at either super-majority reading)")


def test_criterion_05_public_float():
    nats = [Nationality.foreign(), Nationality.domestic(), Nationality.domestic(),
            Nationality.public_float()]
    g = game(51, [40, 20, 20, 20], nationalities=nats)
    adjusted = float_adjust(g)
    assert [p.weight.bp for p in adjusted.players] == [5000, 2500, 2500]
    assert power_report(g).normalized_vector() == (
        F2(1, 2), F2(1, 6), F2(1, 6), F2(1, 6))
    assert power_report(adjusted).normalized_vector() == (F2(3, 5), F2(1, 5), F2(1, 5))
    passed(5, "float adjustment {40,20,20,20f} -> {50,25,25} with the "
              "exact power shift")


def test_criterion_06_board_tables():
    rows = [
        ([40, 60], (4, 6), ((0, 1), (1, 1)), ((1, 2), (1, 2))),
        ([40, 30, 30], (4, 3, 3), ((1, 3),) * 3, ((3, 5), (1, 5), (1, 5))),
        ([40, 20, 20, 20], (4, 2, 2, 2),
         ((1, 2), (1, 6), (1, 6), (1, 6)), ((2, 5), (1, 5), (1, 5), (1, 5))),
    ]
    for weights, seats, majority, supermajority in rows:
        g = game(51, weights)
        assert allocate_board_seats(g, 10).vector() == seats
        for quota, expected in ((Quota.percent(51), majority),
                                (Quota.percent(67), supermajority),
                                (Quota.of(2, 3), supermajority)):
            report = board_power(g, allocate_board_seats(g, 10), quota)
            assert report.normalized_vector() == tuple(
                Fraction(*e) for e in expected)
    passed(6, "seat allocations and board power rows exact at both quotas")


def test_criterion_07_grandfather_vs_discrete():
    from test_ownership import simple_chain

    assert grandfather_equity(simple_chain(), "A", "C") == F2(18, 100)

    assert power_report(game(51, [50, 35, 15])).normalized_vector() == (
        F2(3, 5), F2(1, 5), F2(1, 5))

    comparison = compare_methods(two_tier(), "E")
    assert comparison.grandfather_report.normalized_vector() == (
        F2(3, 5), F2(1, 5), F2(1, 5))
    assert {e.player_id: e.normalized for e in comparison.tier.report.entries} == {
        "C": F2(1, 2), "A": F2(1, 2)}
    assert comparison.diverges
    passed(7, "18% product check, both figure games exact, divergence flagged")


def test_criterion_08_mining_chain_tiers():
    # Simple majority: the domestic parent dictates every tier, in all
    # three chains (the Tesoro chain shares the McArthur structure).
    for build, upper, lower, parent in (
        (mining_chain, "MMC", "MCA", "OMDC"),
        (lambda q: mining_chain(q, upper="SMMI", lower="TES"), "SMMI", "TES", "OMDC"),
        (narra_chain, "PLMDC", "NAR", "PASRDC"),
    ):
        verdicts = {v.corporation: v for v in discrete_propagate(build(Quota.percent(51)))}
        assert verdicts[upper].report.normalized(parent) == 1
        assert verdicts[upper].report.normalized("MBMI") == 0
        assert verdicts[lower].report.normalized(parent) == 1
        assert verdicts[lower].report.normalized("MBMI") == 0

        # Super-majority, lower tiers and the Narra upper tier: exact joint
        # control under either reading of the threshold.
        for quota in (Quota.percent(67), Quota.of(2, 3)):
            verdicts = {v.corporation: v for v in discrete_propagate(build(quota))}
            tier = verdicts[lower].report
            assert tier.normalized("MBMI") == F2(1, 2)
            assert tier.normalized(upper) == F2(1, 2)

    for quota in (Quota.percent(67), Quota.of(2, 3)):
        plmdc = {v.corporation: v for v in
                 discrete_propagate(narra_chain(quota))}["PLMDC"].report
        assert plmdc.normalized("PASRDC") == F2(1, 2)
        assert plmdc.normalized("MBMI") == F2(1, 2)

    # The one row no exact reading reproduces: the published table claims
    # the parent keeps 100% of MMC at super-majority, but 66.63% misses
    # 67/100 (joint control) and at exactly 2/3 the parent needs four
    # 0.01% minorities, whose swings dilute everyone. Assert the computed
    # truth under both readings and require the divergence report.
    mmc67 = {v.corporation: v for v in
             discrete_propagate(mining_chain(Quota.percent(67)))}["MMC"].report
    assert mmc67.normalized("OMDC") == F2(1, 2)
    assert mmc67.normalized("MBMI") == F2(1, 2)
    mmc23 = {v.corporation: v for v in
             discrete_propagate(mining_chain(Quota.of(2, 3)))}["MMC"].report
    assert mmc23.normalized("OMDC") == F2(43, 94)
    assert mmc23.normalized("MBMI") == F2(21, 94)
    assert [mmc23.normalized(f"u{i}") for i in range(6)] == [F2(5, 94)] * 6

    corpus = verify_corpus(["mining_chains"])
    assert corpus.passed
    divergences = corpus.divergences
    assert len(divergences) >= 2
    assert any("100%" in (o.divergence or "") for o in divergences)
    passed(8, "all six tier tables exact at 51%; super-majority rows exact "
              "where reproducible; the irreproducible row is asserted under "
              "both readings with a divergence report")


def test_criterion_09_telecom_blockholders():
    weights = ["25.57", "20.35", "45.88", "8.01", "0.19"]
    nats = [Nationality.domestic(), Nationality.foreign(), Nationality.public_float(),
            Nationality.domestic(), Nationality.public_float()]
    for quota, expected in (
        (Quota.percent(51), (F2(1, 6), F2(1, 6), F2(1, 2), F2(1, 6), Fraction(0))),
        (Quota.of(2, 3), (F2(3, 10), F2(1, 10), F2(1, 2), F2(1, 10), Fraction(0))),
        (Quota.percent(67), (F2(3, 10), F2(1, 10), F2(1, 2), F2(1, 10), Fraction(0))),
    ):
        g = game(quota, weights, nationalities=nats)
        oracle = brute_force_beta(g.quota, [p.weight.bp for p in g.players])
        total = sum(oracle)
        assert tuple(Fraction(b, total) for b in oracle) == expected
        assert power_report(g).normalized_vector() == expected

    for quota, expected in (
        (Quota.percent(51), (F2(1, 3), F2(1, 3), F2(1, 3))),
        (Quota.of(2, 3), (F2(1, 2), F2(1, 2), Fraction(0))),
        (Quota.percent(67), (F2(1, 2), F2(1, 2), Fraction(0))),
    ):
        g = game(quota, weights, nationalities=nats)
        adjusted = float_adjust(g)
        oracle = brute_force_beta(adjusted.quota, [p.weight.bp for p in adjusted.players])
        total = sum(oracle)
        assert tuple(Fraction(b, total) for b in oracle) == expected
        assert power_report(adjusted).normalized_vector() == expected
    passed(9, "five-blockholder and float-adjusted vectors exact at both "
              "quotas, confirmed by an independent brute-force oracle")


def test_criterion_10_property_suites():
    start = time.perf_counter()

    rng = random.Random(20260808)
    games = [random_game(rng, max_players=16, max_weight=60) for _ in range(1000)]
    for g in games:
        enum = swing_counts_enum(g)
        dp = swing_counts_dp(g)
        assert enum == dp, f"backend mismatch on {g}"

    for g in games[:200]:
        report = power_report(g)
        assert sum(report.normalized_vector()) == 1
        dictators = [p.id for p in g.players if Status.DICTATOR in report.statuses(p.id)]
        if dictators:
            assert report.normalized(dictators[0]) == 1
            assert all(
                Status.DUMMY in report.statuses(p.id)
                for p in g.players if p.id != dictators[0]
            )
        positives = [p for p in g.players if p.weight.bp > 0]
        unanimity = power_report(make_game(Quota.unanimous(), g.players))
        for p in positives:
            assert unanimity.normalized(p.id) == Fraction(1, len(positives))

    for g in games[:100]:
        index = rng.randrange(g.n)
        before = swing_counts_enum(g)[index]
        players = list(g.players)
        grown = players[index]
        players[index] = Player(grown.id, grown.name, grown.nationality,
                                Weight(grown.weight.bp + rng.randint(1, 8)))
        after = swing_counts_enum(make_game(g.quota, players))[index]
        assert after >= before

    # Twenty fixed-seed sampling runs stay inside their reported intervals
    # (the seeds are frozen: coverage of a 95% interval is itself a draw).
    panel_rng = random.Random(99)
    panel = [random_game(panel_rng, max_players=8, max_weight=50) for _ in range(20)]
    for gi, g in enumerate(panel):
        if g.n < 2:
            continue
        exact = power_report(g).absolute_vector()
        estimate = swing_estimate_mc(g, 20_000, seed=900 + gi)
        for entry, truth in zip(estimate.entries, exact):
            if entry.absolute == truth:
                continue
            assert abs(float(entry.absolute - truth)) <= entry.half_width, (gi, entry)

    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"property suite took {elapsed:.1f}s"
    passed(10, f"1000-game backend equivalence, index invariants and "
               f"sampling coverage in {elapsed:.1f}s")
