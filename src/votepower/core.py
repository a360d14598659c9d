"""Exact domain model for stockholder voting games.

Weights are exact rationals measured in basis points of total voting stock
(1 bp = 0.01%), so two-decimal percentages such as 66.63% are representable
without floating point. Quota comparisons are exact and non-strict: a
coalition wins when its weight is at least the quota share of the game's
actual total weight. At margins of 0.01% that distinction decides outcomes,
so no tolerance appears anywhere in this module.

All types are immutable values; they can be shared freely across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

BP_PER_UNIT = 10_000
"""Basis points in the whole: a weight of 10,000 bp is 100% of the stock."""

DEFAULT_ENUMERATION_LIMIT = 24
"""Largest player count for which exhaustive coalition enumeration runs."""


class VotePowerError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(VotePowerError, ValueError):
    """An input violates a structural invariant."""


class UnknownPlayerError(VotePowerError, LookupError):
    """A player id does not belong to the game."""


class BackendLimitError(VotePowerError):
    """The requested computation exceeds the backend's fixed bound."""


class EnumerationLimitError(BackendLimitError):
    """Too many players for exhaustive coalition enumeration."""


class NationalityKind(enum.Enum):
    DOMESTIC = "domestic"
    FOREIGN = "foreign"
    PUBLIC_FLOAT = "public_float"


@dataclass(frozen=True)
class Nationality:
    """Nationality tag of a stockholder.

    A ``PUBLIC_FLOAT`` tag marks an aggregate of dispersed holders that is
    assumed never to vote as a bloc; such an aggregate carries no country.
    """

    kind: NationalityKind
    country: str | None = None

    def __post_init__(self) -> None:
        if self.kind is NationalityKind.PUBLIC_FLOAT and self.country is not None:
            raise ValidationError("a public-float aggregate carries no country label")

    @classmethod
    def domestic(cls, country: str | None = None) -> "Nationality":
        return cls(NationalityKind.DOMESTIC, country)

    @classmethod
    def foreign(cls, country: str | None = None) -> "Nationality":
        return cls(NationalityKind.FOREIGN, country)

    @classmethod
    def public_float(cls) -> "Nationality":
        return cls(NationalityKind.PUBLIC_FLOAT)


@dataclass(frozen=True)
class Weight:
    """A voting weight in basis points, always an exact non-negative rational."""

    bp: Fraction

    def __post_init__(self) -> None:
        if isinstance(self.bp, float):
            raise ValidationError("weights must be exact rationals, not floats")
        if not isinstance(self.bp, Fraction):
            object.__setattr__(self, "bp", Fraction(self.bp))
        if self.bp < 0:
            raise ValidationError("voting weight must be non-negative")

    @classmethod
    def from_bp(cls, bp: int | Fraction) -> "Weight":
        return cls(Fraction(bp))

    @classmethod
    def from_percent(cls, percent: int | str | Fraction) -> "Weight":
        """Build a weight from a percentage such as ``"66.63"`` (exact)."""
        if isinstance(percent, float):
            raise ValidationError("pass percentages as strings or rationals, not floats")
        return cls(Fraction(percent) * 100)

    @property
    def percent(self) -> Fraction:
        return self.bp / 100

    def fraction_of(self, total: "Weight") -> Fraction:
        if total.bp == 0:
            raise ValidationError("cannot take a share of a zero total weight")
        return self.bp / total.bp


@dataclass(frozen=True)
class Quota:
    """Decision threshold as an exact fraction of total voting weight."""

    threshold: Fraction

    def __post_init__(self) -> None:
        if isinstance(self.threshold, float):
            raise ValidationError("quota must be an exact rational, not a float")
        if not isinstance(self.threshold, Fraction):
            object.__setattr__(self, "threshold", Fraction(self.threshold))
        if not 0 < self.threshold <= 1:
            raise ValidationError(f"quota must lie in (0, 1], got {self.threshold}")

    @classmethod
    def of(cls, numerator: int, denominator: int) -> "Quota":
        return cls(Fraction(numerator, denominator))

    @classmethod
    def percent(cls, percent: int | str | Fraction) -> "Quota":
        if isinstance(percent, float):
            raise ValidationError("pass percentages as strings or rationals, not floats")
        return cls(Fraction(percent) / 100)

    @classmethod
    def unanimous(cls) -> "Quota":
        return cls(Fraction(1))


@dataclass(frozen=True)
class Player:
    """A stockholder entitled to vote."""

    id: str
    name: str
    nationality: Nationality
    weight: Weight


@dataclass(frozen=True)
class VotingGame:
    """A stockholder meeting: a quota plus per-player exact weights.

    The conventional notation is ``{q: w_1, w_2, ...}``; for example
    ``{51: 50, 49, 1}`` is a simple-majority meeting of three stockholders.
    Use :func:`make_game` rather than the constructor so that id uniqueness
    and the quota bounds are checked.
    """

    quota: Quota
    players: tuple[Player, ...]
    total_weight: Weight = field(init=False, compare=False)
    _positions: dict = field(init=False, repr=False, compare=False)
    _lowered: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        players = tuple(self.players)
        object.__setattr__(self, "players", players)
        if not players:
            raise ValidationError("a voting game needs at least one player")
        total = Fraction(0)
        for player in players:
            total += player.weight.bp
        object.__setattr__(self, "total_weight", Weight(total))
        object.__setattr__(self, "_positions", {p.id: i for i, p in enumerate(players)})

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def winning_threshold(self) -> Fraction:
        """Minimum coalition weight (in bp) that passes a resolution."""
        return self.quota.threshold * self.total_weight.bp

    def index_of(self, player_id: str) -> int:
        try:
            return self._positions[player_id]
        except KeyError:
            raise UnknownPlayerError(f"no player with id {player_id!r}") from None

    def player(self, player_id: str) -> Player:
        return self.players[self.index_of(player_id)]

    def with_quota(self, quota: Quota) -> "VotingGame":
        return VotingGame(quota, self.players)


def make_game(
    quota: Quota,
    players: Iterable[Player],
    *,
    allow_minority_quota: bool = False,
) -> VotingGame:
    """Build a validated voting game.

    Rejects duplicate player ids, a non-positive total weight, and (unless
    ``allow_minority_quota`` is set) a quota at or below half of the total,
    under which two disjoint winning coalitions could exist at once.
    """
    players = tuple(players)
    seen: set[str] = set()
    for player in players:
        if player.id in seen:
            raise ValidationError(f"duplicate player id {player.id!r}")
        seen.add(player.id)
    game = VotingGame(quota, players)
    if game.total_weight.bp <= 0:
        raise ValidationError("total voting weight must be positive")
    if not allow_minority_quota and quota.threshold <= Fraction(1, 2):
        raise ValidationError(
            "quota at or below 1/2 of the total admits simultaneous dictators; "
            "pass allow_minority_quota=True to accept it"
        )
    return game


@dataclass(frozen=True)
class Coalition:
    """A set of players, encoded as a bitmask over the game's player order."""

    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ValidationError("coalition mask must be non-negative")

    @classmethod
    def of(cls, game: VotingGame, player_ids: Iterable[str]) -> "Coalition":
        mask = 0
        for player_id in player_ids:
            mask |= 1 << game.index_of(player_id)
        return cls(mask)

    @classmethod
    def grand(cls, game: VotingGame) -> "Coalition":
        return cls((1 << game.n) - 1)

    def _check(self, game: VotingGame) -> None:
        if self.mask >> game.n:
            raise UnknownPlayerError("coalition references players outside the game")

    def contains(self, game: VotingGame, player_id: str) -> bool:
        self._check(game)
        return bool(self.mask >> game.index_of(player_id) & 1)

    def member_ids(self, game: VotingGame) -> tuple[str, ...]:
        self._check(game)
        return tuple(p.id for i, p in enumerate(game.players) if self.mask >> i & 1)

    def weight(self, game: VotingGame) -> Weight:
        self._check(game)
        total = Fraction(0)
        for i, player in enumerate(game.players):
            if self.mask >> i & 1:
                total += player.weight.bp
        return Weight(total)

    @property
    def size(self) -> int:
        return self.mask.bit_count()


def is_winning(game: VotingGame, coalition: Coalition) -> bool:
    """Exact, non-strict test: the coalition weight meets the quota share."""
    return coalition.weight(game).bp >= game.winning_threshold


def _check_enumeration_limit(n: int) -> None:
    """Refuse to enumerate the coalitions of more than
    ``DEFAULT_ENUMERATION_LIMIT`` players."""
    if n > DEFAULT_ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"{n} players exceeds the enumeration limit of {DEFAULT_ENUMERATION_LIMIT}; "
            "use the dp or mc backend instead"
        )


def enumerate_coalitions(game: VotingGame) -> Iterator[tuple[Coalition, bool]]:
    """Yield every nonempty coalition with its outcome, 2^N - 1 in all.

    Streams in Gray-code order so the running weight changes by one player
    per step; memory stays constant regardless of N. Raises
    :class:`EnumerationLimitError` above ``DEFAULT_ENUMERATION_LIMIT`` players.
    """
    n = game.n
    _check_enumeration_limit(n)
    threshold = game.winning_threshold
    weights = [p.weight.bp for p in game.players]
    mask = 0
    weight = Fraction(0)
    for k in range(1, 1 << n):
        bit = (k & -k).bit_length() - 1
        flipped = 1 << bit
        mask ^= flipped
        if mask & flipped:
            weight += weights[bit]
        else:
            weight -= weights[bit]
        yield Coalition(mask), weight >= threshold
