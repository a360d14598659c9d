"""Randomized invariants, all seeded for reproducibility."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import compress

from hypothesis import given, settings
from hypothesis import strategies as st

from votepower import (
    Entity,
    Holding,
    Nationality,
    Player,
    Quota,
    Status,
    VotingGame,
    Weight,
    grandfather_equity,
    make_game,
    make_graph,
    power_report,
    swing_counts_dp,
    swing_counts_enum,
    swing_estimate_mc,
)
from conftest import QUOTA_CHOICES, _oracle_betas, fraction_betas, random_game


def test_dp_equals_enum_on_random_games():
    rng = random.Random(1701)
    for _ in range(150):
        g = random_game(rng, max_players=12, max_weight=50)
        enum = swing_counts_enum(g)
        dp = swing_counts_dp(g)
        assert enum == dp, f"backend mismatch on {g}"


def test_normalized_power_sums_to_one():
    rng = random.Random(42)
    for _ in range(80):
        report = power_report(random_game(rng, max_players=10))
        assert sum(report.normalized_vector()) == 1
        assert report.total_swings > 0


def test_dictator_takes_all():
    rng = random.Random(7)
    for _ in range(60):
        g = random_game(rng, max_players=8, max_weight=30)
        report = power_report(g)
        threshold = g.quota.threshold * g.total_weight.bp
        for player in g.players:
            if player.weight.bp < threshold:
                continue
            assert report.normalized(player.id) == 1
            for other in g.players:
                if other.id != player.id:
                    assert Status.DUMMY in report.statuses(other.id)
                    assert report.normalized(other.id) == 0


def test_swing_count_monotone_in_own_weight():
    rng = random.Random(99)
    for _ in range(60):
        g = random_game(rng, max_players=8, max_weight=25)
        index = rng.randrange(g.n)
        bump = rng.randint(1, 10)
        before = swing_counts_enum(g)[index]
        players = list(g.players)
        grown = players[index]
        players[index] = Player(grown.id, grown.name, grown.nationality,
                                Weight(grown.weight.bp + bump))
        bigger = make_game(g.quota, players)
        after = swing_counts_enum(bigger)[index]
        assert after >= before


def test_unanimity_splits_equally_among_positive_weights():
    rng = random.Random(13)
    for _ in range(40):
        g = random_game(rng, max_players=8)
        unanimous = make_game(Quota(1), g.players)
        report = power_report(unanimous)
        positive = [p for p in unanimous.players if p.weight.bp > 0]
        for player in unanimous.players:
            if player.weight.bp > 0:
                assert report.normalized(player.id) == Fraction(1, len(positive))
            else:
                assert report.normalized(player.id) == 0


def test_zero_weight_players_are_dummies():
    rng = random.Random(23)
    for _ in range(40):
        g = random_game(rng, max_players=8)
        report = power_report(g)
        for player in g.players:
            if player.weight.bp == 0:
                assert Status.DUMMY in report.statuses(player.id)


def _has_veto(g, player) -> bool:
    """Cannot pass a motion alone, yet no coalition passes one without them."""
    threshold = g.quota.threshold * g.total_weight.bp
    return player.weight.bp < threshold and g.total_weight.bp - player.weight.bp < threshold


def test_two_player_veto_floor():
    rng = random.Random(31)
    found = 0
    for _ in range(200):
        g = random_game(rng, max_players=2)
        if g.n != 2:
            continue
        report = power_report(g)
        for player in g.players:
            if _has_veto(g, player):
                found += 1
                assert report.normalized(player.id) == Fraction(1, 2)
    assert found > 10


def test_veto_implies_not_dummy():
    rng = random.Random(57)
    for _ in range(60):
        g = random_game(rng, max_players=8)
        report = power_report(g)
        for player in g.players:
            if _has_veto(g, player):
                assert Status.DUMMY not in report.statuses(player.id)
                assert report.normalized(player.id) > 0


def test_exact_backends_agree_entry_for_entry():
    rng = random.Random(77)
    for _ in range(40):
        g = random_game(rng, max_players=9, max_weight=40)
        enum_report = power_report(g, "enum")
        dp_report = power_report(g, "dp")
        assert enum_report.entries == dp_report.entries
        assert enum_report.total_swings == dp_report.total_swings


def test_mixed_denominator_weights_stay_exact():
    # Rational bp weights (thirds of a basis point) still compare exactly.
    players = [
        Player("a", "a", Nationality.domestic(), Weight(Fraction(10000, 3))),
        Player("b", "b", Nationality.domestic(), Weight(Fraction(10000, 3))),
        Player("c", "c", Nationality.domestic(), Weight(Fraction(10000, 3))),
    ]
    g = make_game(Quota.of(2, 3), players)
    report = power_report(g)
    assert report.normalized_vector() == (Fraction(1, 3),) * 3
    assert swing_counts_dp(g) == swing_counts_enum(g)


def test_integer_lowering_matches_fraction_definitions():
    # Mixed-denominator bp weights sharing a factor above 1, some of them
    # zero, under quotas that often equal some coalition's weight exactly:
    # the cases where a lowering that scaled, reduced or rounded wrongly
    # would move a coalition across the quota.
    rng = random.Random(2024)
    for _ in range(80):
        n = rng.randint(1, 7)
        factor = rng.randint(2, 12)
        bps = [Fraction(factor * rng.choice((0, 0, *range(1, 25))), rng.choice((1, 2, 3, 4, 7)))
               for _ in range(n)]
        if not any(bps):
            bps[rng.randrange(n)] = Fraction(factor, 3)
        members = [b for b in bps if rng.random() < 0.6 and b] or [max(bps)]
        quota = rng.choice((Quota(sum(members) / sum(bps)), rng.choice(QUOTA_CHOICES)))
        players = [
            Player(f"p{i}", f"p{i}", Nationality.domestic(), Weight(b)) for i, b in enumerate(bps)
        ]
        g = VotingGame(quota, players)

        brute = fraction_betas(g)
        assert list(swing_counts_enum(g)) == brute, f"enum mismatch on {g}"
        assert list(swing_counts_dp(g)) == brute, f"dp mismatch on {g}"

        threshold = quota.threshold * g.total_weight.bp
        total = g.total_weight.bp
        dictators = [b >= threshold for b in bps]
        reports = [power_report(g, "enum"), power_report(g, "dp")]
        mc = swing_estimate_mc(g, 200, seed=5)
        for i, player in enumerate(g.players):
            w = bps[i]
            veto = w < threshold and total - w < threshold
            weight_flags = {Status.DICTATOR} if dictators[i] else {Status.VETO} if veto else set()
            exact = weight_flags | ({Status.DUMMY} if brute[i] == 0 else set())
            assert all(report.statuses(player.id) == exact for report in reports)
            other_dictates = quota.threshold > Fraction(1, 2) and any(
                d for j, d in enumerate(dictators) if j != i
            )
            sampled = weight_flags | ({Status.DUMMY} if w == 0 or other_dictates else set())
            assert mc.statuses(player.id) == sampled


@st.composite
def _exact_games(draw):
    """Games of 1-10 players whose bp weights come from a pool of at most
    four, so zero, repeated and fractional weights are common, under a
    quota that some coalition's weight meets exactly or under unanimity."""
    pool = draw(st.lists(st.one_of(st.just(Fraction(0)),
                                   st.fractions(min_value=0, max_value=100, max_denominator=7)),
                         min_size=1, max_size=4))
    bps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    if not any(bps):
        bps[0] = Fraction(1)
    met = sum(compress(bps, draw(st.lists(st.booleans(), min_size=len(bps), max_size=len(bps)))))
    quota = Quota(met / sum(bps)) if met and draw(st.booleans()) else Quota(1)
    players = [Player(f"p{i}", f"p{i}", Nationality.domestic(), Weight(b)) for i, b in enumerate(bps)]
    return VotingGame(quota, players)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_exact_games())
def test_exact_kernels_equal_the_fraction_reference(g):
    reference = tuple(fraction_betas(g))
    assert swing_counts_enum(g) == reference
    assert swing_counts_dp(g) == reference


@st.composite
def _bp_games(draw, players: tuple[int, int], max_weight: int):
    """Integer bp weights, a count in ``players`` of them positive and up to
    ``max_weight``, with up to two zero weights among them, under a quota
    that some coalition's weight meets exactly or one of ``QUOTA_CHOICES``,
    unanimity among them. Returns the weights and the quota."""
    n = draw(st.integers(*players))
    positive = draw(st.lists(st.integers(1, max_weight), min_size=n, max_size=n))
    bps = draw(st.permutations(positive + [0] * draw(st.integers(0, 2))))
    met = sum(compress(bps, draw(st.lists(st.booleans(), min_size=len(bps), max_size=len(bps)))))
    if met and draw(st.booleans()):
        return bps, Quota(Fraction(met, sum(bps)))
    return bps, draw(st.sampled_from(QUOTA_CHOICES))


def _bp_game(bps, quota):
    players = [Player(f"p{i}", f"p{i}", Nationality.domestic(), Weight(w))
               for i, w in enumerate(bps)]
    return VotingGame(quota, players)


# Above _SPLIT_PLAYERS (10) positive weights, enum splits in numpy int64
# arrays; above 62, dp's table holds Python integers.
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_bp_games((11, 14), 60))
def test_numpy_split_equals_the_subset_sum_oracle(case):
    bps, quota = case
    assert list(swing_counts_enum(_bp_game(bps, quota))) == _oracle_betas(bps, quota)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(_bp_games((63, 64), 3))
def test_object_dp_equals_the_subset_sum_oracle(case):
    bps, quota = case
    assert list(swing_counts_dp(_bp_game(bps, quota))) == _oracle_betas(bps, quota)


@st.composite
def _acyclic_stakes(draw):
    """2-7 entity ids and the holdings (holder, corporation, bp) among them:
    an id holds stakes only in ids after it in a drawn order, so no cycle
    forms, and each corporation's holdings sum to 1-10,000 bp, to exactly
    10,000 in every corporation when ``full``. Returns the ids,
    the holdings in a drawn order, and ``full``."""
    n = draw(st.integers(2, 7))
    ids = draw(st.permutations([f"e{i}" for i in range(n)]))
    full = draw(st.booleans())
    edges = []
    for j in range(1, n):
        holders = draw(st.lists(st.sampled_from(ids[:j]), unique=True, max_size=j))
        if holders:
            cuts = sorted(draw(st.lists(st.integers(0, 10_000), min_size=len(holders),
                                        max_size=len(holders))))
            # The holdings in a corporation sum to cuts[-1] bp, which may not be 0.
            cuts[-1] = 10_000 if full else max(cuts[-1], 1)
            edges += [(h, ids[j], b - a) for h, a, b in zip(holders, [0] + cuts, cuts)]
    return ids, draw(st.permutations(edges)), full


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_acyclic_stakes())
def test_grandfather_shares_into_a_target_sum_to_at_most_one(case):
    # Stakes in a corporation sum to at most its whole stock, so the equity
    # its ultimate holders reach through every path sums to at most 1; with
    # every corporation fully held, to exactly 1.
    ids, edges, full = case
    held = {corporation for _, corporation, _ in edges}
    graph = make_graph([Entity(x, x, Nationality.domestic()) for x in sorted(ids)],
                       [Holding(h, c, Weight(w)) for h, c, w in edges],
                       {c: Quota.of(2, 3) for c in held})
    for target in held:
        total = sum(grandfather_equity(graph, h, target) for h in graph.ultimate_holders())
        assert 0 <= total <= 1
        if full:
            assert total == 1
