from __future__ import annotations

import inspect
from fractions import Fraction

import pytest

import votepower
from votepower import (
    EnumerationLimitError,
    Nationality,
    Player,
    Quota,
    Status,
    ValidationError,
    VotingGame,
    Weight,
    make_game,
    power_report,
    swing_counts_dp,
    swing_counts_enum,
)
from conftest import fraction_betas, game


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
    assert g.quota.threshold * g.total_weight.bp == 5_100


def test_make_game_single_player_unanimous():
    g = game(Quota.unanimous(), [100])
    assert g.n == 1
    assert swing_counts_enum(g) == (1,)
    assert power_report(g).statuses("P1") == {Status.DICTATOR}


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
    # make_game refuses a quota at or below 1/2; the VotingGame constructor
    # takes it, and the engine counts such a game.
    with pytest.raises(ValidationError, match="dictator"):
        game(Quota.of(1, 2), [60, 40])
    players = [
        Player("P1", "P1", Nationality.domestic(), Weight.from_bp(60)),
        Player("P2", "P2", Nationality.domestic(), Weight.from_bp(40)),
    ]
    g = VotingGame(Quota.of(1, 2), players)
    assert g.quota.threshold == Fraction(1, 2)
    assert swing_counts_enum(g) == (2, 0)


def test_is_winning_matches_published_coalition_table():
    # The paper's example {51: 50, 49, 1}: {P1, P2}, {P1, P3} and
    # {P1, P2, P3} win, P1 swings in all three and P2 and P3 in one each.
    g = game(51, [50, 49, 1])
    assert fraction_betas(g) == [3, 1, 1]
    assert swing_counts_enum(g) == swing_counts_dp(g) == (3, 1, 1)


def test_winning_is_non_strict_at_the_quota():
    # 51% alone meets a 51% quota, so P1 dictates.
    g = game(51, [51, 49])
    assert swing_counts_enum(g) == (2, 0)
    assert power_report(g).statuses("P1") == {Status.DICTATOR}


def test_enumerate_limit():
    # Enumeration counts 24 positive-weight players and refuses 25.
    assert len(set(swing_counts_enum(game(51, [4] * 24)))) == 1
    with pytest.raises(EnumerationLimitError, match="25 players exceeds the enumeration limit of 24"):
        swing_counts_enum(game(51, [4] * 25))


def test_exactness_of_two_decimal_weights():
    # 49.5 + 49.5 + 1.0 must hit the 51% threshold comparisons exactly:
    # P1 + P3 = 50.5 < 51 loses, P1 + P2 = 99 >= 51 wins, so P3 never swings.
    g = game(51, ["49.5", "49.5", "1.0"])
    assert fraction_betas(g) == [2, 2, 0]
    assert swing_counts_enum(g) == swing_counts_dp(g) == (2, 2, 0)
    assert power_report(g).statuses("P3") == {Status.DUMMY}


def test_the_coalition_reference_and_the_test_only_api_are_gone():
    removed = ("Coalition", "is_winning", "enumerate_coalitions", "is_critical",
               "is_dictator", "has_veto", "one_person_one_vote_power")
    assert [name for name in removed if hasattr(votepower, name) or name in votepower.__all__] == []
    assert [name for name in ("index_of", "player", "winning_threshold", "with_quota")
            if hasattr(VotingGame, name)] == []
    parameters = inspect.signature(make_game).parameters.values()
    assert [p.name for p in parameters if p.kind is p.KEYWORD_ONLY] == []
