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
from fractions import Fraction
from typing import Iterable

BP_PER_UNIT = 10_000
"""Basis points in the whole: a weight of 10,000 bp is 100% of the stock."""


class VotePowerError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(VotePowerError, ValueError):
    """An input violates a structural invariant."""


class UnknownPlayerError(VotePowerError, LookupError):
    """An entity id does not belong to the ownership graph."""


class BackendLimitError(VotePowerError):
    """The requested computation exceeds the backend's fixed bound."""


class EnumerationLimitError(BackendLimitError):
    """Too many players for exhaustive coalition enumeration."""


class NationalityKind(enum.Enum):
    DOMESTIC = "domestic"
    FOREIGN = "foreign"
    PUBLIC_FLOAT = "public_float"


# Sets a field of a value under construction, past its frozen __setattr__.
_assign = object.__setattr__


class _Value:
    """Base of the immutable value classes.

    A subclass declares its fields once, as class annotations in ``repr``
    order with optional defaults, and is built by position or by name. A
    class that checks or derives its fields writes its own ``__init__``,
    which sets each once with ``_assign``. Two values are equal when they
    are of the same class and their fields are equal, leaving out the
    fields named in ``_uncompared``; the hash is that of the compared
    fields. Assigning or deleting an attribute raises ``AttributeError``.
    """

    _uncompared: tuple[str, ...] = ()
    _fields: tuple[str, ...]
    _field_set: frozenset[str]
    _compared: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._field_set = frozenset(cls._fields)
        cls._compared = tuple(name for name in cls._fields if name not in cls._uncompared)

    def __init__(self, *values: object, **named: object) -> None:
        if not named and len(values) == len(self._fields):
            self.__dict__.update(zip(self._fields, values))
        elif not values and named.keys() == self._field_set:
            self.__dict__.update(named)
        else:
            self.__dict__.update(self._bind(values, named))

    def _bind(self, values: tuple, named: dict) -> dict:
        """The fields of any other call, a left-out one from its class default."""
        owner, fields = self.__class__.__qualname__, self._fields
        if len(values) > len(fields):
            raise TypeError(f"{owner}() takes {len(fields)} fields ({', '.join(fields)}), "
                            f"got {len(values)}")
        bound = dict(zip(fields, values))
        for name, value in named.items():
            if name in bound:
                raise TypeError(f"{owner}() got field {name!r} twice")
            if name not in self._field_set:
                raise TypeError(f"{owner}() has no field {name!r}")
            bound[name] = value
        defaults = vars(self.__class__)
        for name in fields:
            if name not in bound and name not in defaults:
                raise TypeError(f"{owner}() is missing field {name!r}")
        return {name: bound[name] if name in bound else defaults[name] for name in fields}

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _rational(value: object, what: str, on_float: str) -> Fraction:
    """A value that is not a ``Fraction`` as an exact one. A float raises
    ``on_float``, and a value ``Fraction`` cannot read names ``what``."""
    if isinstance(value, float):
        raise ValidationError(on_float)
    try:
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ValidationError(f"{what} must be an exact rational, got {value!r}") from None


_FLOAT_PERCENT = "pass percentages as strings or rationals, not floats"


class Nationality(_Value):
    """Nationality tag of a stockholder.

    A ``PUBLIC_FLOAT`` tag marks an aggregate of dispersed holders that is
    assumed never to vote as a bloc; such an aggregate carries no country.
    """

    kind: NationalityKind
    country: str | None

    def __init__(self, kind: NationalityKind, country: str | None = None) -> None:
        if not isinstance(kind, NationalityKind):
            raise ValidationError(f"nationality kind must be a NationalityKind, got {kind!r}")
        if kind is NationalityKind.PUBLIC_FLOAT and country is not None:
            raise ValidationError("a public-float aggregate carries no country label")
        _assign(self, "kind", kind)
        _assign(self, "country", country)

    @classmethod
    def domestic(cls, country: str | None = None) -> "Nationality":
        return cls(NationalityKind.DOMESTIC, country)

    @classmethod
    def foreign(cls, country: str | None = None) -> "Nationality":
        return cls(NationalityKind.FOREIGN, country)

    @classmethod
    def public_float(cls) -> "Nationality":
        return cls(NationalityKind.PUBLIC_FLOAT)


class Weight(_Value):
    """A voting weight in basis points, always an exact non-negative rational."""

    bp: Fraction

    def __init__(self, bp: Fraction) -> None:
        if not isinstance(bp, Fraction):
            bp = _rational(bp, "voting weight", "weights must be exact rationals, not floats")
        if bp.numerator < 0:
            raise ValidationError("voting weight must be non-negative")
        _assign(self, "bp", bp)

    @classmethod
    def from_percent(cls, percent: int | str | Fraction) -> "Weight":
        """Build a weight from a percentage such as ``"66.63"`` (exact)."""
        return cls(_rational(percent, "percentage", _FLOAT_PERCENT) * 100)

    @property
    def percent(self) -> Fraction:
        return self.bp / 100


class Quota(_Value):
    """Decision threshold as an exact fraction of total voting weight."""

    threshold: Fraction

    def __init__(self, threshold: Fraction) -> None:
        if not isinstance(threshold, Fraction):
            threshold = _rational(threshold, "quota", "quota must be an exact rational, not a float")
        if not 0 < threshold.numerator <= threshold.denominator:
            raise ValidationError(f"quota must lie in (0, 1], got {threshold}")
        _assign(self, "threshold", threshold)

    @classmethod
    def of(cls, numerator: int, denominator: int) -> "Quota":
        try:
            threshold = Fraction(numerator, denominator)
        except (TypeError, ZeroDivisionError):
            raise ValidationError(
                f"quota must be a ratio of integers, got {numerator!r}/{denominator!r}"
            ) from None
        return cls(threshold)

    @classmethod
    def percent(cls, percent: int | str | Fraction) -> "Quota":
        return cls(_rational(percent, "quota percentage", _FLOAT_PERCENT) / 100)


class Player(_Value):
    """A stockholder entitled to vote."""

    id: str
    name: str
    nationality: Nationality
    weight: Weight

    def __init__(self, id: str, name: str, nationality: Nationality, weight: Weight) -> None:
        if not isinstance(weight, Weight):
            raise ValidationError(f"player {id!r}: weight must be a Weight, got {weight!r}")
        _assign(self, "id", id)
        _assign(self, "name", name)
        _assign(self, "nationality", nationality)
        _assign(self, "weight", weight)


class VotingGame(_Value):
    """A stockholder meeting: a quota plus per-player exact weights.

    The conventional notation is ``{q: w_1, w_2, ...}``; for example
    ``{51: 50, 49, 1}`` is a simple-majority meeting of three stockholders.
    The constructor rejects a quota that is not a :class:`Quota`, a player
    that is not a :class:`Player`, a repeated player id, an empty player
    list and a total weight of zero, and accepts any quota in (0, 1]; use
    :func:`make_game` to also require a quota above one half.
    """

    quota: Quota
    players: tuple[Player, ...]
    total_weight: Weight
    _uncompared = ("total_weight",)

    def __init__(self, quota: Quota, players: Iterable[Player]) -> None:
        if not isinstance(quota, Quota):
            raise ValidationError(f"quota must be a Quota, got {quota!r}")
        players = tuple(players)
        if not players:
            raise ValidationError("a voting game needs at least one player")
        seen: set[str] = set()
        total = Fraction(0)
        for player in players:
            if not isinstance(player, Player):
                raise ValidationError(f"a game's players must be Players, got {player!r}")
            if player.id in seen:
                raise ValidationError(f"duplicate player id {player.id!r}")
            seen.add(player.id)
            total += player.weight.bp
        if not total:
            raise ValidationError("total voting weight must be positive")
        _assign(self, "quota", quota)
        _assign(self, "players", players)
        _assign(self, "total_weight", Weight(total))
        # The integer form, set by the engine on first use.
        _assign(self, "_lowered", None)

    @property
    def n(self) -> int:
        return len(self.players)


def make_game(quota: Quota, players: Iterable[Player]) -> VotingGame:
    """A :class:`VotingGame` whose quota exceeds half of the total weight.

    A quota at or below 1/2 admits two disjoint winning coalitions at once;
    build the ``VotingGame`` directly to accept it.
    """
    game = VotingGame(quota, players)
    if quota.threshold <= Fraction(1, 2):
        raise ValidationError(
            "quota at or below 1/2 of the total admits simultaneous dictators; "
            "build the VotingGame directly to accept it"
        )
    return game
