"""Foreign-control analysis of a single stockholder meeting.

Contrasts the statute-style Control Test, which sums same-nationality
weights against a threshold, with a power-based classification of each
foreign stockholder relative to the domestic ones. Also hosts the public
float adjustment and the transposition of stockholder weights into board
seats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction

from .core import (
    BP_PER_UNIT,
    NationalityKind,
    Player,
    Quota,
    ValidationError,
    VotingGame,
    Weight,
    make_game,
)
from .engine import PowerReport, Status, power_report


class ControlTestVerdict(enum.Enum):
    NATIONAL = "national"
    FOREIGN = "foreign"


class ControlClassification(enum.Enum):
    NO_CONTROL = "no_control"
    JOINT_CONTROL = "joint_control"
    EFFECTIVE_CONTROL = "effective_control"
    DICTATOR = "dictator"


def control_test(game: VotingGame, domestic_threshold: Fraction) -> ControlTestVerdict:
    """Sum domestic weights and compare the share against the statutory floor.

    Public-float aggregates count toward the total but not the domestic sum.
    """
    if isinstance(domestic_threshold, float):
        raise ValidationError("domestic threshold must be an exact rational")
    domestic_threshold = Fraction(domestic_threshold)
    if not 0 < domestic_threshold <= 1:
        raise ValidationError("domestic threshold must lie in (0, 1]")
    domestic = Fraction(0)
    for player in game.players:
        if player.nationality.kind is NationalityKind.DOMESTIC:
            domestic += player.weight.bp
    share = domestic / game.total_weight.bp
    if share >= domestic_threshold:
        return ControlTestVerdict.NATIONAL
    return ControlTestVerdict.FOREIGN


def classify_foreign_control(
    game: VotingGame, *, backend: str = "enum"
) -> dict[str, ControlClassification]:
    """Classify each foreign player's de facto control.

    A foreign stockholder is a dictator when their weight alone meets the
    quota; has effective control when their normalized power strictly
    exceeds every domestic stockholder's; has joint control when it exactly
    equals the best domestic power (and is positive); and otherwise has no
    control. Nationality never aggregates: each foreign player is judged
    individually. Judge another quota with ``game.with_quota(quota)``.
    """
    return _classify(game, power_report(game, backend))


def _classify(game: VotingGame, report: PowerReport) -> dict[str, ControlClassification]:
    if not any(p.nationality.kind is NationalityKind.DOMESTIC for p in game.players):
        raise ValidationError("no domestic players to compare against")
    entries = list(zip(game.players, report.entries))
    best_domestic = max(
        e.normalized for p, e in entries if p.nationality.kind is NationalityKind.DOMESTIC
    )
    verdicts: dict[str, ControlClassification] = {}
    for player, entry in entries:
        if player.nationality.kind is not NationalityKind.FOREIGN:
            continue
        power = entry.normalized
        if Status.DICTATOR in entry.statuses:
            verdicts[player.id] = ControlClassification.DICTATOR
        elif power > best_domestic:
            verdicts[player.id] = ControlClassification.EFFECTIVE_CONTROL
        elif power == best_domestic and power > 0:
            verdicts[player.id] = ControlClassification.JOINT_CONTROL
        else:
            verdicts[player.id] = ControlClassification.NO_CONTROL
    return verdicts


def float_adjust(game: VotingGame) -> VotingGame:
    """Return the game net of public float.

    Players tagged as public-float aggregates are removed and the remaining
    weights are divided by (1 - float share), preserving their relative
    proportions and the total; the quota fraction is unchanged. A game with
    no float players is returned as is.
    """
    float_share = Fraction(0)
    retained: list[Player] = []
    for player in game.players:
        if player.nationality.kind is NationalityKind.PUBLIC_FLOAT:
            float_share += player.weight.fraction_of(game.total_weight)
        else:
            retained.append(player)
    if float_share == 0:
        return game
    if float_share == 1:
        raise ValidationError("the public float holds the entire voting stock")
    scale = 1 - float_share
    rescaled = [replace(p, weight=Weight(p.weight.bp / scale)) for p in retained]
    return make_game(game.quota, rescaled)


@dataclass(frozen=True)
class SeatAllocation:
    """Board seats per stockholder; the seats always sum to the board size."""

    seats: tuple[tuple[str, int], ...]
    board_size: int

    def __post_init__(self) -> None:
        if sum(s for _, s in self.seats) != self.board_size:
            raise ValidationError("seat counts must sum to the board size")

    def vector(self) -> tuple[int, ...]:
        return tuple(count for _, count in self.seats)


def allocate_board_seats(game: VotingGame, board_size: int) -> SeatAllocation:
    """Apportion board seats proportionally to weight by largest remainder.

    Each stockholder receives the floor of their exact proportional share;
    leftover seats go to the largest fractional remainders, ties broken by
    larger weight and then input order.
    """
    if board_size < 1:
        raise ValidationError("board size must be at least 1")
    total = game.total_weight.bp
    shares = [p.weight.bp / total * board_size for p in game.players]
    base = [int(share) for share in shares]
    leftover = board_size - sum(base)
    order = sorted(
        range(game.n),
        key=lambda i: (-(shares[i] - base[i]), -game.players[i].weight.bp, i),
    )
    for i in order[:leftover]:
        base[i] += 1
    return SeatAllocation(
        seats=tuple((p.id, b) for p, b in zip(game.players, base)),
        board_size=board_size,
    )


def board_power(
    game: VotingGame,
    allocation: SeatAllocation,
    quota: Quota,
    *,
    backend: str = "enum",
) -> PowerReport:
    """Power distribution in the board, with each stockholder's nominees
    voting as one bloc.

    ``allocation`` is the game's :func:`allocate_board_seats`. The board game
    gives every stockholder a weight of seats/board_size, so whenever the
    board size divides the weights evenly the board-level power mirrors the
    stockholder-level power exactly. An allocation whose ids are not the
    game's player ids, in order, raises :class:`ValidationError`.
    """
    if [player_id for player_id, _ in allocation.seats] != [p.id for p in game.players]:
        raise ValidationError("the seat allocation does not name the game's players in order")
    players = [
        replace(p, weight=Weight(Fraction(seats * BP_PER_UNIT, allocation.board_size)))
        for p, (_, seats) in zip(game.players, allocation.seats)
    ]
    board_game = make_game(quota, players)
    return power_report(board_game, backend)
