from __future__ import annotations

from fractions import Fraction

import pytest

from votepower import (
    Coalition,
    EnumerationLimitError,
    Nationality,
    Player,
    Quota,
    UnknownPlayerError,
    ValidationError,
    Weight,
    enumerate_coalitions,
    is_winning,
    make_game,
)
from conftest import game


def test_weight_percent_round_trip_is_exact():
    w = Weight.from_percent("66.63")
    assert w.bp == Fraction(6663)
    assert w.percent == Fraction("66.63")


def test_weight_rejects_floats_and_negatives():
    with pytest.raises(ValidationError):
        Weight(66.63)
    with pytest.raises(ValidationError):
        Weight.from_percent(66.63)
    with pytest.raises(ValidationError):
        Weight.from_bp(-1)


def test_quota_bounds():
    assert Quota.percent(51).threshold == Fraction(51, 100)
    assert Quota.of(2, 3).threshold == Fraction(2, 3)
    assert Quota.unanimous().threshold == 1
    with pytest.raises(ValidationError):
        Quota(Fraction(0))
    with pytest.raises(ValidationError):
        Quota(Fraction(11, 10))
    with pytest.raises(ValidationError):
        Quota(0.51)


def test_public_float_carries_no_country():
    with pytest.raises(ValidationError):
        Nationality(Nationality.public_float().kind, "PH")


def test_make_game_paper_notation():
    g = game(51, [50, 49, 1])
    assert g.n == 3
    assert g.total_weight.bp == 10_000
    assert g.winning_threshold == Fraction(51, 100) * 10_000


def test_make_game_single_player_unanimous():
    g = game(Quota.unanimous(), [100])
    assert g.n == 1
    assert is_winning(g, Coalition.grand(g))


def test_make_game_rejects_duplicate_ids():
    players = [
        Player("P1", "P1", Nationality.domestic(), Weight.from_bp(100)),
        Player("P1", "again", Nationality.domestic(), Weight.from_bp(200)),
    ]
    with pytest.raises(ValidationError, match="duplicate"):
        make_game(Quota.percent(51), players)


def test_make_game_rejects_empty_and_zero_total():
    with pytest.raises(ValidationError):
        make_game(Quota.percent(51), [])
    with pytest.raises(ValidationError):
        game(51, [0, 0])


def test_make_game_minority_quota_needs_override():
    with pytest.raises(ValidationError, match="dictator"):
        game(Quota.of(1, 2), [60, 40])
    players = [
        Player("P1", "P1", Nationality.domestic(), Weight.from_bp(60)),
        Player("P2", "P2", Nationality.domestic(), Weight.from_bp(40)),
    ]
    g = make_game(Quota.of(1, 2), players, allow_minority_quota=True)
    assert g.quota.threshold == Fraction(1, 2)


def test_is_winning_matches_published_coalition_table():
    g = game(51, [50, 49, 1])
    assert is_winning(g, Coalition.of(g, ["P1", "P3"]))          # weight 51
    assert not is_winning(g, Coalition.of(g, ["P2", "P3"]))      # weight 50
    assert not is_winning(g, Coalition.of(g, []))


def test_winning_is_non_strict_at_the_quota():
    g = game(51, [51, 49])
    assert is_winning(g, Coalition.of(g, ["P1"]))


def test_coalition_unknown_member():
    g = game(51, [50, 49, 1])
    with pytest.raises(UnknownPlayerError):
        Coalition.of(g, ["P9"])
    with pytest.raises(UnknownPlayerError):
        Coalition(1 << 5).weight(g)


def test_coalition_weight_and_members():
    g = game(51, [50, 49, 1])
    c = Coalition.of(g, ["P2", "P3"])
    assert c.weight(g).bp == 5000
    assert c.member_ids(g) == ("P2", "P3")
    assert c.size == 2


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 7)])
def test_enumerate_counts(n, expected):
    g = game(51, [100 // n] * n)
    coalitions = list(enumerate_coalitions(g))
    assert len(coalitions) == expected
    assert len({c.mask for c, _ in coalitions}) == expected
    assert all(c.mask for c, _ in coalitions)


def test_enumerate_flags_match_is_winning():
    g = game(67, [40, 30, 30])
    for coalition, winning in enumerate_coalitions(g):
        assert winning == is_winning(g, coalition)


def test_enumerate_limit():
    # The stream starts at 24 players and refuses 25.
    assert next(enumerate_coalitions(game(51, [4] * 24)))[0].mask == 1
    with pytest.raises(EnumerationLimitError, match="enumeration limit of 24"):
        next(enumerate_coalitions(game(51, [4] * 25)))


def test_winning_closed_under_supersets():
    g = game(67, [40, 30, 20, 10])
    outcomes = {c.mask: w for c, w in enumerate_coalitions(g)}
    for mask, winning in outcomes.items():
        if not winning:
            continue
        for bit in range(g.n):
            assert outcomes.get(mask | (1 << bit), True)


def test_exactness_of_two_decimal_weights():
    # 49.5 + 49.5 + 1.0 must hit the 51% threshold comparisons exactly.
    g = game(51, ["49.5", "49.5", "1.0"])
    assert not is_winning(g, Coalition.of(g, ["P1", "P3"]))      # 50.5 < 51
    assert is_winning(g, Coalition.of(g, ["P1", "P2"]))          # 99 >= 51
