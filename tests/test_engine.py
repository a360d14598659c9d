from __future__ import annotations

import math
from fractions import Fraction

import pytest

from votepower import (
    Coalition,
    EnumerationLimitError,
    Nationality,
    Player,
    Quota,
    Status,
    ValidationError,
    Weight,
    enumerate_coalitions,
    has_veto,
    is_critical,
    is_dictator,
    make_game,
    one_person_one_vote_power,
    power_report,
    swing_counts_dp,
    swing_counts_enum,
    swing_estimate_mc,
)
from votepower.engine import DpTableLimitError, _integer_form
from conftest import game

CRITICAL_TABLES = [
    (51, [50, 49, 1], (3, 1, 1)),
    (67, [50, 49, 1], (2, 2, 0)),
    (51, [40, 30, 30], (2, 2, 2)),
    (67, [40, 30, 30], (3, 1, 1)),
]


@pytest.mark.parametrize("quota,weights,expected", CRITICAL_TABLES)
def test_swing_counts_enum_tables(quota, weights, expected):
    g = game(quota, weights)
    assert tuple(c.beta for c in swing_counts_enum(g)) == expected


@pytest.mark.parametrize("quota,weights,expected", CRITICAL_TABLES)
def test_swing_counts_dp_matches_enum(quota, weights, expected):
    g = game(quota, weights)
    assert tuple(c.beta for c in swing_counts_dp(g)) == expected


def test_dp_single_player():
    g = game(Quota.unanimous(), [100])
    assert [c.beta for c in swing_counts_dp(g)] == [1]
    assert [c.beta for c in swing_counts_enum(g)] == [1]


def test_dp_twenty_symmetric_players():
    # 20 players of weight 5 at quota 51: a player swings exactly when the
    # other nineteen supply 50, i.e. ten of them join: C(19, 10) subsets.
    g = game(51, [5] * 20)
    counts = [c.beta for c in swing_counts_dp(g)]
    assert len(set(counts)) == 1
    assert counts[0] == math.comb(19, 10)


def test_dictator_examples():
    assert is_dictator(game(51, [51, 49]), "P1")
    assert not is_dictator(game(67, [51, 49]), "P1")
    assert not is_dictator(game(100, [99, 1]), "P1")


def test_veto_examples():
    assert has_veto(game(51, [50, 25, 25]), "P1")
    assert has_veto(game(100, [33, 33, 33, 1]), "P4")
    assert not has_veto(game(51, [51, 49]), "P1")


def test_is_critical_examples():
    g = game(51, [50, 49, 1])
    assert is_critical(g, Coalition.of(g, ["P1", "P3"]), "P3")
    assert not is_critical(g, Coalition.grand(g), "P2")
    assert not is_critical(g, Coalition.of(g, ["P2", "P3"]), "P2")  # losing
    with pytest.raises(ValidationError):
        is_critical(g, Coalition.of(g, ["P1", "P3"]), "P2")


def test_power_report_normalized_and_absolute():
    report = power_report(game(51, [50, 49, 1]))
    assert report.normalized_vector() == (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))
    assert report.absolute_vector() == (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4))
    assert report.total_swings == 5


def test_power_report_dummy_flag_tracks_beta():
    report = power_report(game(67, [34, 34, 32]))
    assert report.normalized_vector() == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert Status.DUMMY in report.statuses("P3")
    assert Status.DUMMY not in report.statuses("P1")


def test_power_report_dictator_game():
    report = power_report(game(51, [51, 49]))
    assert report.normalized_vector() == (Fraction(1), Fraction(0))
    assert Status.DICTATOR in report.statuses("P1")
    assert Status.DUMMY in report.statuses("P2")


def test_power_report_half_percent_weights():
    report = power_report(game(51, ["49.5", "49.5", "1.0"]))
    assert report.normalized_vector() == (Fraction(1, 2), Fraction(1, 2), Fraction(0))


def test_power_report_unanimity_quarters():
    report = power_report(game(100, [33, 33, 33, 1]))
    assert report.normalized_vector() == (Fraction(1, 4),) * 4
    assert all(Status.VETO in report.statuses(f"P{i}") for i in range(1, 5))


def test_one_person_one_vote():
    assert one_person_one_vote_power(10) == Fraction(1, 10)
    assert one_person_one_vote_power(1) == 1
    with pytest.raises(ValidationError):
        one_person_one_vote_power(0)


def test_de_facto_unanimity_reduces_to_equal_shares():
    # {81: 60, 20, 20}: only the grand coalition wins, so power is 1/N.
    report = power_report(game(81, [60, 20, 20]))
    assert report.normalized_vector() == (one_person_one_vote_power(3),) * 3


def test_backend_limits():
    # Reduced by their gcd, these weights total 100 over ten players.
    g = game(51, [11, 9] + [10] * 8)
    with pytest.raises(EnumerationLimitError):
        swing_counts_enum(g, limit=9)
    with pytest.raises(DpTableLimitError):
        swing_counts_dp(g, table_bound=10)
    with pytest.raises(ValidationError):
        power_report(g, "nope")


def test_enum_beyond_int64_matches_brute_force():
    # Denominators that are distinct Mersenne primes leave a reduced total
    # far above 2^62, so enumeration runs on Python integers.
    primes = [2**13 - 1, 2**17 - 1, 2**19 - 1, 2**31 - 1, 2**61 - 1]
    players = [
        Player(f"P{i}", f"P{i}", Nationality.domestic(), Weight(whole + Fraction(1, p)))
        for i, (whole, p) in enumerate(zip([3, 2, 2, 1, 1], primes))
    ]
    g = make_game(Quota.of(51, 100), players)
    assert _integer_form(g)[2] >= 2**62
    brute = [0] * g.n
    for coalition, _ in enumerate_coalitions(g):
        for i, player in enumerate(g.players):
            if coalition.contains(g, player.id) and is_critical(g, coalition, player.id):
                brute[i] += 1
    assert [c.beta for c in swing_counts_enum(g)] == brute
    assert len(set(brute)) > 1


def test_beta_bounded_by_half_powerset():
    for quota, weights, _ in CRITICAL_TABLES:
        g = game(quota, weights)
        bound = 1 << (g.n - 1)
        assert all(c.beta <= bound for c in swing_counts_enum(g))


def test_mc_is_deterministic_for_a_seed():
    g = game(51, [50, 49, 1])
    first = swing_estimate_mc(g, 5000, seed=7)
    second = swing_estimate_mc(g, 5000, seed=7)
    assert first == second
    assert swing_estimate_mc(g, 5000, seed=8) != first


def test_mc_estimates_absolute_index():
    g = game(51, [50, 49, 1])
    report = swing_estimate_mc(g, 40_000, seed=3)
    for entry, exact in zip(report.entries, (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4))):
        assert abs(float(entry.absolute - exact)) <= entry.half_width


def test_mc_dictator_probability_is_one():
    report = swing_estimate_mc(game(51, [51, 49]), 2000, seed=1)
    assert report.absolute("P1") == 1
    assert Status.DICTATOR in report.statuses("P1")
    assert Status.DUMMY in report.statuses("P2")


def test_mc_requires_positive_samples():
    with pytest.raises(ValidationError):
        swing_estimate_mc(game(51, [60, 40]), 0)
