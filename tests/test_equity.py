from __future__ import annotations

from fractions import Fraction

import pytest

from votepower import (
    ControlClassification,
    ControlTestVerdict,
    Nationality,
    Player,
    Quota,
    ValidationError,
    Weight,
    allocate_board_seats,
    board_power,
    classify_foreign_control,
    control_test,
    float_adjust,
    make_game,
    power_report,
)
from votepower import equity, report
from votepower.corpus import corpus_dir
from votepower.report import run_scenario
from votepower.scenario import load
from conftest import game

F = Nationality.foreign()
D = Nationality.domestic()
PUB = Nationality.public_float()


def tagged_game(quota, weights, tags):
    return game(quota, weights, nationalities=tags)


def board_vector(g, quota):
    """Normalized power on a ten-seat board apportioned from ``g``."""
    return board_power(g, allocate_board_seats(g, 10), quota).normalized_vector()


def test_control_test_examples():
    g = tagged_game(51, [40, 20, 20, 20], [F, D, D, D])
    assert control_test(g, Fraction(60, 100)) is ControlTestVerdict.NATIONAL
    g = tagged_game(51, ["64.27", "35.73"], [F, D])
    assert control_test(g, Fraction(60, 100)) is ControlTestVerdict.FOREIGN
    g = tagged_game(51, [70, 30], [D, D])
    assert control_test(g, Fraction(60, 100)) is ControlTestVerdict.NATIONAL


def test_control_test_threshold_validation():
    g = tagged_game(51, [60, 40], [D, F])
    with pytest.raises(ValidationError):
        control_test(g, 0.6)
    with pytest.raises(ValidationError):
        control_test(g, Fraction(2))


def test_classify_matrix_examples():
    assert classify_foreign_control(tagged_game(51, [40, 20, 20, 20], [F, D, D, D])) == {
        "P1": ControlClassification.EFFECTIVE_CONTROL
    }
    assert classify_foreign_control(tagged_game(67, [40, 60], [F, D])) == {
        "P1": ControlClassification.JOINT_CONTROL
    }
    assert classify_foreign_control(tagged_game(51, [20, 80], [F, D])) == {
        "P1": ControlClassification.NO_CONTROL
    }
    assert classify_foreign_control(tagged_game(67, [25, 38, 37], [F, D, D])) == {
        "P1": ControlClassification.NO_CONTROL
    }
    assert classify_foreign_control(tagged_game(51, [60, 40], [F, D])) == {
        "P1": ControlClassification.DICTATOR
    }


def test_classify_accepts_quota_override():
    g = tagged_game(51, [40, 30, 30], [F, D, D])
    assert classify_foreign_control(g) == {"P1": ControlClassification.JOINT_CONTROL}
    assert classify_foreign_control(make_game(Quota.percent(67), g.players)) == {
        "P1": ControlClassification.EFFECTIVE_CONTROL
    }


def test_classify_requires_domestic_comparators():
    g = tagged_game(51, [60, 40], [F, F])
    with pytest.raises(ValidationError, match="domestic"):
        classify_foreign_control(g)


def test_classify_is_scale_invariant():
    g1 = tagged_game(67, [40, 30, 30], [F, D, D])
    players = [
        Player(p.id, p.name, p.nationality, Weight(p.weight.bp * 3))
        for p in g1.players
    ]
    g3 = make_game(g1.quota, players)
    assert classify_foreign_control(g1) == classify_foreign_control(g3)


def test_float_adjust_published_example():
    g = tagged_game(51, [40, 20, 20, 20], [F, D, D, PUB])
    adjusted = float_adjust(g)
    assert [p.weight.bp for p in adjusted.players] == [5000, 2500, 2500]
    assert adjusted.quota == g.quota
    assert power_report(g).normalized_vector() == (
        Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
    assert power_report(adjusted).normalized_vector() == (
        Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))


def test_float_adjust_without_float_is_identity():
    g = tagged_game(51, [60, 40], [F, D])
    assert float_adjust(g) is g


def test_float_adjust_preserves_pairwise_ratios():
    g = tagged_game(51, ["25.57", "20.35", "45.88", "8.01", "0.19"],
                    [D, F, PUB, D, PUB])
    adjusted = float_adjust(g)
    original = {p.id: p.weight.bp for p in g.players}
    for a in adjusted.players:
        for b in adjusted.players:
            if original[b.id] and b.weight.bp:
                assert a.weight.bp / b.weight.bp == original[a.id] / original[b.id]
    assert adjusted.total_weight == g.total_weight


def test_float_adjust_rejects_total_float():
    g = tagged_game(51, [100], [PUB])
    with pytest.raises(ValidationError):
        float_adjust(g)


def test_board_seats_published_rows():
    assert allocate_board_seats(game(51, [40, 60]), 10).vector() == (4, 6)
    assert allocate_board_seats(game(51, [40, 30, 30]), 10).vector() == (4, 3, 3)
    assert allocate_board_seats(game(51, [40, 20, 20, 20]), 10).vector() == (4, 2, 2, 2)
    assert allocate_board_seats(game(Quota.unanimous(), [100]), 5).vector() == (5,)


def test_board_seats_largest_remainder_tie_breaks():
    # shares 1.5 / 0.9 / 0.6: the two larger remainders win the spare seats
    assert allocate_board_seats(game(51, [50, 30, 20]), 3).vector() == (1, 1, 1)
    # equal remainders fall back to the larger weight, then input order
    assert allocate_board_seats(game(51, [45, 45, 10]), 3).vector() == (2, 1, 0)


def test_board_seats_always_sum_to_board_size():
    for size in (1, 3, 7, 10, 15):
        allocation = allocate_board_seats(game(51, [37, 23, 21, 19]), size)
        assert sum(allocation.vector()) == size


def test_board_power_published_rows():
    g = tagged_game(51, [40, 30, 30], [F, D, D])
    assert board_vector(g, Quota.of(2, 3)) == (
        Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))
    g = tagged_game(51, [40, 60], [F, D])
    assert board_vector(g, Quota.percent(51)) == (
        Fraction(0), Fraction(1))
    g = tagged_game(51, [40, 20, 20, 20], [F, D, D, D])
    maj = board_vector(g, Quota.percent(51))
    sup = board_vector(g, Quota.percent(67))
    assert maj == (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
    assert sup == (Fraction(2, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
    assert maj[0] > max(maj[1:]) and sup[0] > max(sup[1:])


def test_board_power_mirrors_stockholder_power_when_divisible():
    for weights in ([40, 60], [40, 30, 30], [40, 20, 20, 20]):
        g = game(51, weights)
        for quota in (Quota.percent(51), Quota.percent(67)):
            stockholder = power_report(make_game(quota, g.players)).normalized_vector()
            assert board_vector(g, quota) == stockholder


def test_board_analysis_apportions_seats_once(monkeypatch):
    scenario = load(corpus_dir() / "board_tables.json")
    boards = sum(spec["analysis"] == "board" for spec in scenario.analyses)
    calls = []

    def counted(game, board_size):
        calls.append(board_size)
        return allocate_board_seats(game, board_size)

    # Both modules that could apportion: the analysis runner and equity itself.
    monkeypatch.setattr(report, "allocate_board_seats", counted)
    monkeypatch.setattr(equity, "allocate_board_seats", counted)
    run_scenario(scenario)
    assert boards > 0
    assert len(calls) == boards


def test_board_power_rejects_an_allocation_of_other_players():
    g3 = game(51, [40, 30, 30])
    g2 = game(51, [60, 40])
    reordered = equity.SeatAllocation(tuple(reversed(allocate_board_seats(g3, 5).seats)), 5)
    for allocation in (allocate_board_seats(g2, 5), reordered):
        with pytest.raises(ValidationError):
            board_power(g3, allocation, Quota.percent(51))


def test_board_power_requires_positive_size():
    with pytest.raises(ValidationError):
        allocate_board_seats(game(51, [60, 40]), 0)
