"""Swing counting and power indices over stockholder voting games.

A stockholder is critical in a coalition when the coalition wins but would
lose without them. Counting criticals across all coalitions yields, per
player, the swing count beta; from it come two indices:

* normalized index: beta_i divided by the sum of all swing counts, and
* absolute index: beta_i divided by 2^(N-1), the swing probability when
  every other stockholder joins a coalition independently with chance 1/2.

Three backends produce the counts. Exhaustive enumeration is the reference.
The subset-sum table backend reproduces it exactly in O(N * W) time instead
of O(2^N), W being the game's integer total weight after dividing by the
gcd. Monte Carlo sampling estimates the absolute index with a 95%
confidence half-width for games too large for either.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_ENUMERATION_LIMIT,
    BackendLimitError,
    Coalition,
    EnumerationLimitError,
    ValidationError,
    VotingGame,
    is_winning,
)

DEFAULT_DP_TABLE_BOUND = 5_000_000
"""Largest integer total weight, after dividing the weights by their gcd,
for which the table backend allocates its O(total) table."""

DEFAULT_MC_SAMPLES = 50_000

_INT64_SAFE = 2**62


class DpTableLimitError(BackendLimitError):
    """Integer weight magnitude exceeds the configured table bound."""


class Status(enum.Enum):
    DICTATOR = "dictator"
    DUMMY = "dummy"
    VETO = "veto"


@dataclass(frozen=True)
class SwingCount:
    player_id: str
    beta: int


@dataclass(frozen=True)
class PlayerPower:
    player_id: str
    beta: int
    normalized: Fraction
    absolute: Fraction
    statuses: frozenset[Status]
    half_width: float | None = None


@dataclass(frozen=True)
class PowerReport:
    """Per-player swing counts, indices and status flags for one game."""

    entries: tuple[PlayerPower, ...]
    total_swings: int
    backend: str
    samples: int | None = None
    seed: int | None = None

    def entry(self, player_id: str) -> PlayerPower:
        for entry in self.entries:
            if entry.player_id == player_id:
                return entry
        raise KeyError(player_id)

    def normalized(self, player_id: str) -> Fraction:
        return self.entry(player_id).normalized

    def absolute(self, player_id: str) -> Fraction:
        return self.entry(player_id).absolute

    def statuses(self, player_id: str) -> frozenset[Status]:
        return self.entry(player_id).statuses

    def beta_vector(self) -> tuple[int, ...]:
        return tuple(e.beta for e in self.entries)

    def normalized_vector(self) -> tuple[Fraction, ...]:
        return tuple(e.normalized for e in self.entries)

    def absolute_vector(self) -> tuple[Fraction, ...]:
        return tuple(e.absolute for e in self.entries)


def is_dictator(game: VotingGame, player_id: str) -> bool:
    """A dictator's weight alone meets the quota (w_i >= T, exact)."""
    weights, threshold, total = _integer_form(game)
    return Status.DICTATOR in _weight_statuses(weights[game.index_of(player_id)], threshold, total)


def has_veto(game: VotingGame, player_id: str) -> bool:
    """Veto power: cannot pass a motion alone, yet no coalition passes one
    without them (w_i < T and W - w_i < T, both exact)."""
    weights, threshold, total = _integer_form(game)
    return Status.VETO in _weight_statuses(weights[game.index_of(player_id)], threshold, total)


def is_critical(game: VotingGame, coalition: Coalition, player_id: str) -> bool:
    """True when the coalition wins but loses once the player drops out."""
    if not coalition.contains(game, player_id):
        raise ValidationError(f"player {player_id!r} is not a member of the coalition")
    if not is_winning(game, coalition):
        return False
    remainder = coalition.weight(game).bp - game.player(player_id).weight.bp
    return remainder < game.winning_threshold


def one_person_one_vote_power(n: int) -> Fraction:
    """Equal power 1/N, the degenerate case every unanimity game reduces to."""
    if n < 1:
        raise ValidationError("player count must be at least 1")
    return Fraction(1, n)


def _integer_form(game: VotingGame) -> tuple[tuple[int, ...], int, int]:
    """Lower the game to integers: weights, least winning total T, total W.

    The bp weights are scaled by the lcm of their denominators and divided
    by their gcd, so W is the smallest integer total with the same winning
    coalitions. Winning is weight >= q * W; for integer weights that is
    weight >= T = ceil(q * W), computed here in exact integer arithmetic.
    Every backend and status flag reads this form; it is computed once per
    game and kept on it.
    """
    if game._lowered is None:
        bps = [p.weight.bp for p in game.players]
        scale = math.lcm(*(b.denominator for b in bps))
        weights = [b.numerator * (scale // b.denominator) for b in bps]
        divisor = math.gcd(*weights) or 1
        weights = tuple(w // divisor for w in weights)
        total = sum(weights)
        q = game.quota.threshold
        threshold = -(-q.numerator * total // q.denominator)
        object.__setattr__(game, "_lowered", (weights, threshold, total))
    return game._lowered


def swing_counts_enum(
    game: VotingGame,
    *,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> list[SwingCount]:
    """Count swings by checking every coalition. The reference backend."""
    if game.n > limit:
        raise EnumerationLimitError(
            f"{game.n} players exceeds the enumeration limit of {limit}; "
            "use the dp or mc backend instead"
        )
    weights, threshold, total = _integer_form(game)
    # Python integers in an object array where int64 could overflow.
    sums = np.zeros(1, dtype=np.int64 if total < _INT64_SAFE else object)
    for w in weights:
        sums = np.concatenate([sums, sums + w])
    counts = []
    for i, w in enumerate(weights):
        # Subsets with bit i clear are the coalitions of the other players.
        others = sums.reshape(-1, 2, 1 << i)[:, 0, :].ravel()
        swings = int(np.count_nonzero((others >= threshold - w) & (others < threshold)))
        counts.append(SwingCount(game.players[i].id, swings))
    return counts


def swing_counts_dp(
    game: VotingGame,
    *,
    table_bound: int = DEFAULT_DP_TABLE_BOUND,
) -> list[SwingCount]:
    """Count swings with a subset-sum counting table instead of enumeration.

    Builds the coefficient table of prod_i (1 + x^{w_i}) over integer
    weights, then divides out each player's own factor to count, per sum s,
    the coalitions of the others; the swings are the coalitions with
    T - w_i <= s < T where T is the least winning total. Output is
    identical to :func:`swing_counts_enum` wherever both run.
    """
    weights, threshold, total = _integer_form(game)
    if total > table_bound:
        raise DpTableLimitError(
            f"reduced total weight {total} exceeds the table bound of {table_bound}"
        )
    counts = [0] * (total + 1)
    counts[0] = 1
    for w in weights:
        for s in range(total, w - 1, -1):
            counts[s] += counts[s - w]
    out = []
    for i, w in enumerate(weights):
        player_id = game.players[i].id
        if w == 0:
            out.append(SwingCount(player_id, 0))
            continue
        others = [0] * (total + 1)
        for s in range(total + 1):
            others[s] = counts[s] - (others[s - w] if s >= w else 0)
        beta = sum(others[max(0, threshold - w) : threshold])
        out.append(SwingCount(player_id, beta))
    return out


def swing_estimate_mc(
    game: VotingGame,
    samples: int,
    seed: int = 0,
) -> PowerReport:
    """Estimate the absolute index by sampling coalitions of the others.

    Each other player joins independently with probability 1/2, matching
    the assumption that all coalitions are a priori equally likely, so the
    per-player hit rate is an unbiased estimate of the absolute index.
    Results are reproducible for a fixed seed; the report carries a normal
    95% confidence half-width per player.
    """
    if samples < 1:
        raise ValidationError("samples must be a positive integer")
    weights, threshold, _ = _integer_form(game)
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 2, size=(samples, game.n), dtype=np.int64)
    base = draws @ np.asarray(weights, dtype=np.int64)
    hits = []
    for i, w in enumerate(weights):
        others = base - draws[:, i] * w
        hits.append(int(np.count_nonzero((others >= threshold - w) & (others < threshold))))
    total_hits = sum(hits)
    entries = []
    for player, k, statuses in zip(game.players, hits, _sampling_statuses(game)):
        estimate = Fraction(k, samples)
        p = k / samples
        half_width = 1.96 * math.sqrt(p * (1.0 - p) / samples)
        entries.append(
            PlayerPower(
                player_id=player.id,
                beta=k,
                normalized=Fraction(k, total_hits) if total_hits else Fraction(0),
                absolute=estimate,
                statuses=statuses,
                half_width=half_width,
            )
        )
    return PowerReport(
        entries=tuple(entries),
        total_swings=total_hits,
        backend="mc",
        samples=samples,
        seed=seed,
    )


def _weight_statuses(weight: int, threshold: int, total: int) -> set[Status]:
    if weight >= threshold:
        return {Status.DICTATOR}
    if total - weight < threshold:
        return {Status.VETO}
    return set()


def _sampling_statuses(game: VotingGame) -> list[frozenset[Status]]:
    # Sampling cannot prove beta == 0, so only weight-derivable dummies are
    # flagged: zero weight, or another player dictates under a majority quota.
    weights, threshold, total = _integer_form(game)
    q = game.quota.threshold
    dictators = sum(w >= threshold for w in weights) if 2 * q.numerator > q.denominator else 0
    out = []
    for w in weights:
        statuses = _weight_statuses(w, threshold, total)
        if w == 0 or dictators - (w >= threshold) > 0:
            statuses.add(Status.DUMMY)
        out.append(frozenset(statuses))
    return out


def _exact_report(game: VotingGame, counts: list[SwingCount], backend: str) -> PowerReport:
    weights, threshold, total_weight = _integer_form(game)
    total = sum(c.beta for c in counts)
    denominator = 1 << (game.n - 1)
    entries = []
    for w, count in zip(weights, counts):
        statuses = _weight_statuses(w, threshold, total_weight)
        if count.beta == 0:
            statuses.add(Status.DUMMY)
        entries.append(
            PlayerPower(
                player_id=count.player_id,
                beta=count.beta,
                normalized=Fraction(count.beta, total) if total else Fraction(0),
                absolute=Fraction(count.beta, denominator),
                statuses=frozenset(statuses),
            )
        )
    return PowerReport(entries=tuple(entries), total_swings=total, backend=backend)


def power_report(
    game: VotingGame,
    backend: str = "enum",
    *,
    samples: int | None = None,
    seed: int = 0,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
    dp_table_bound: int = DEFAULT_DP_TABLE_BOUND,
) -> PowerReport:
    """Compute swing counts, both indices and status flags in one report.

    ``backend`` selects ``"enum"``, ``"dp"`` or ``"mc"``. The exact backends
    return exact rationals throughout; ties in the normalized index are exact
    equalities, never within-epsilon.
    """
    if backend == "enum":
        return _exact_report(game, swing_counts_enum(game, limit=enumeration_limit), "enum")
    if backend == "dp":
        return _exact_report(game, swing_counts_dp(game, table_bound=dp_table_bound), "dp")
    if backend == "mc":
        return swing_estimate_mc(game, DEFAULT_MC_SAMPLES if samples is None else samples, seed)
    raise ValidationError(f"unknown backend {backend!r}; expected enum, dp or mc")
