"""Swing counting and power indices over stockholder voting games.

A stockholder is critical in a coalition when the coalition wins but would
lose without them. Counting criticals across all coalitions yields, per
player, the swing count beta; from it come two indices:

* normalized index: beta_i divided by the sum of all swing counts, and
* absolute index: beta_i divided by 2^(N-1), the swing probability when
  every other stockholder joins a coalition independently with chance 1/2.

Three backends produce the counts, each a cached pure function of the
lowered game, so repeated reports on one game count it once; one builder
turns any backend's counts into a report. Enumeration is the reference: it
counts every coalition by meet-in-the-middle, from the subset sums of two
halves of the players, so it holds about 2^(N/2) sums and spends
O(2^(N/2) * N) time per distinct weight instead of O(2^N). The subset-sum
table backend reproduces it exactly in O(N * T) time plus one window sum
per distinct weight, T being the game's least winning integer total after
dividing the weights by their gcd. Both exact backends count once per
distinct weight, and over the positive weights only: each zero-weight
player doubles every other player's count and never swings. Monte Carlo
sampling estimates the absolute index with a 95% confidence half-width for
games too large for either. Its coalitions are the rows of
``numpy.random.default_rng(seed).integers(0, 2, (samples, N))``, equal to
that call cell for cell, drawn one chunk of bounded size at a time and
packed at one bit per draw as they are drawn. The draws depend only on the
player count, sample count and seed, so a process keeps the packed streams
of recent draws under a fixed byte cap, and a later game of the same size
reads its stream back instead of drawing again: a meeting's classification
and its board game, which keeps every stockholder, share one draw. Each
row's weight is summed exactly from per-byte tables of the weights of eight
players, skipping the bytes of zero-weight players, and a player is checked
only in the rows whose weight lies within its own weight of T.

Enumeration holds the halves' sums in one of two forms: plain Python lists,
searched with ``bisect``, for games of at most ``_SPLIT_PLAYERS``
positive-weight players and for any game whose weights sum to 2^62 or more,
and numpy int64 arrays for the rest. Under mc, a tiny game, of at most
``_PLAIN_PLAYERS`` players and no more coalitions than samples, is counted in
plain Python in one pass over its 2^N coalitions: a player swings wherever
its joining or leaving a coalition flips the outcome, and each flip counts as
often as the draws hold that coalition, from one histogram of the draws
shared by every game of its size, so the ownership tiers' many tiny games
draw once per size. numpy is imported by the kernels that use it, on their
first call, so a process whose games all take enumeration's Python lists
never loads it; dp, mc and enum games of 11-24 players summing below 2^62 do.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from bisect import bisect_left
from collections.abc import Iterator
from fractions import Fraction
from itertools import compress
from typing import TYPE_CHECKING

from .core import (
    BackendLimitError,
    Coalition,
    ValidationError,
    VotingGame,
    _assign,
    _check_enumeration_limit,
    _Value,
    is_winning,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_DP_TABLE_BOUND = 5_000_000
"""Largest integer total weight W, after dividing the weights by their gcd,
for which the table backend runs. Its table holds only the T <= W sums below
the least winning total, but the bound stays on the reduced W."""

DEFAULT_MC_SAMPLES = 50_000

_INT64_SAFE = 2**62

# Swing counts kept per reduced game (weights, threshold), and for mc per
# samples and seed too, so reports on the same game in one process count it once.
_BETA_CACHE_SIZE = 256

# The small-game bound of mc alone: a game of at most this many players with
# 2^N <= samples is counted in plain Python from an mc histogram of the draws,
# one flip row per player over the 2^N coalitions (:func:`_flip_rows`); a
# larger game draws its own rows. Per count of 20 random games, median of 5
# runs (2-core Xeon, Python 3.11.7, numpy 2.4.6), plain Python against numpy
# took 11-17 against 54-98 us at N = 4 and 37-54 against 80-85 us at N = 6.
# A numpy histogram would count an mc game of 7-15 players faster than
# drawing its rows, 2.7 against 5.7 ms at N = 7, 3.1 against 7.5 at N = 10
# and 4.0 against 5.7 at N = 15 for 50,000 samples, and 0.4 against 0.55 ms
# at N = 10 for 2,000, but no perfbench workload has such a game.
_PLAIN_PLAYERS = 6

# Enumeration splits games of up to this many players in plain Python, with
# sorted lists and bisect in place of numpy's sort and searchsorted, so no
# enum count of the shipped corpus imports numpy. Per count of 40 random
# games, warm, median of 5 runs, two runs each (2-core Xeon, Python 3.11.7,
# numpy 2.4.6), the Python split took 37-55, 65-69, 110-152, 254-348 and
# 1,453-1,621 us at N = 7, 8, 10, 12 and 16, against 57-94, 79-94, 129-139,
# 173-177 and 458-459 us for numpy. It counts the smallest games too: per
# game, median of 7 (same machine), it took 6-8, 11-12 and 19-21 us at
# N = 2, 4 and 6, against 4, 9 and 31 us for one pass over the 2^N
# coalitions' flip rows. From a total of 2^62, where int64 could overflow,
# it also counts the larger games: at 70-bit weights it took 0.19, 1.03-1.07,
# 6.2-6.6 and 37 ms at N = 12, 16, 20 and 24, against 0.24-0.25, 1.19-1.20,
# 6.6-6.9 and 38-41 ms for numpy arrays of Python integers.
_SPLIT_PLAYERS = 10

# Draws per Monte Carlo chunk, one bool each before packing (256 KiB; up to
# 2 MiB at N = 1, whose rows are padded to whole bytes), and the raw 64-bit
# words, two draws each, read at a time (64 KiB). Small reads leave room for
# the kept streams: 2^15 words at a time peaked 0.4 MB higher in RSS in a
# forked op of a 150-player mc meeting (2-core Xeon), for no gain in time.
_MC_CHUNK_CELLS = 2**18
_MC_RAW_WORDS = 2**13

# Packed draw streams kept per process, keyed by (N, samples, seed), and the
# cap on their total bytes: 50,000 draws of 150 players pack into 0.94 MB.
_MC_KEPT_BYTES = 2**22
_kept_streams: dict[tuple[int, int, int], np.ndarray] = {}


class DpTableLimitError(BackendLimitError):
    """The reduced total weight exceeds the fixed table bound."""


class Status(enum.Enum):
    DICTATOR = "dictator"
    DUMMY = "dummy"
    VETO = "veto"


class PlayerPower(_Value):
    player_id: str
    beta: int
    normalized: Fraction
    absolute: Fraction
    statuses: frozenset[Status]
    half_width: float | None = None


class PowerReport(_Value):
    """Per-player swing counts, indices and status flags for one game."""

    entries: tuple[PlayerPower, ...]
    total_swings: int
    backend: str
    samples: int | None = None
    seed: int | None = None

    @functools.cached_property
    def _by_id(self) -> dict[str, PlayerPower]:
        # Built on the first lookup, not with the report: most reports are
        # read only through their entries.
        return {e.player_id: e for e in self.entries}

    def entry(self, player_id: str) -> PlayerPower:
        """The player's entry; a ``KeyError`` for an id not in the game."""
        return self._by_id[player_id]

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
        _assign(game, "_lowered", (weights, threshold, total))
    return game._lowered


def swing_counts_enum(game: VotingGame) -> tuple[int, ...]:
    """Each player's swing count beta, in player order, counted over every
    coalition: the reference backend.

    It splits the positive-weight players into two halves and counts each
    player's swings from the two halves' subset sums by meet-in-the-middle,
    so it holds about 2^(N/2) sums rather than 2^N. The sums are Python
    lists for up to ``_SPLIT_PLAYERS`` players or a total of 2^62 or more,
    and numpy int64 arrays otherwise. Zero-weight players are left out of
    the count and scale it back; only the positive-weight players count
    towards ``DEFAULT_ENUMERATION_LIMIT``, above which it raises
    :class:`EnumerationLimitError`.
    """
    weights, threshold, _ = _integer_form(game)
    _check_enumeration_limit(len(weights) - weights.count(0))
    return _without_zero_weights(_enum_betas, weights, threshold)


def _without_zero_weights(kernel, weights: tuple[int, ...], threshold: int) -> tuple[int, ...]:
    """Count with ``kernel`` over the positive weights only. A zero-weight
    player never swings, and joining or leaving a coalition changes no
    weight, so each of the z of them doubles every other player's count."""
    positive = tuple(w for w in weights if w)
    betas = iter(kernel(positive, threshold))
    scale = 1 << (len(weights) - len(positive))
    return tuple(next(betas) * scale if w else 0 for w in weights)


@functools.lru_cache(maxsize=_BETA_CACHE_SIZE)
def _enum_betas(weights: tuple[int, ...], threshold: int) -> tuple[int, ...]:
    n = len(weights)
    h = (n + 1) // 2
    # Python lists for small games and wherever int64 sums could overflow.
    if n <= _SPLIT_PLAYERS or sum(weights) >= _INT64_SAFE:
        left, right = _plain_sums(weights[:h]), _plain_sums(weights[h:])
        half_betas = _plain_half_betas
    else:
        left, right = _subset_sums(weights[:h]), _subset_sums(weights[h:])
        half_betas = _half_betas
    # The first player of each distinct weight counts for all of them.
    firsts: dict[int, int] = {}
    for i, w in enumerate(weights):
        firsts.setdefault(w, i)
    betas: dict[int, int] = {}
    for own, other, start, stop in ((left, right, 0, h), (right, left, h, n)):
        bits = {w: i - start for w, i in firsts.items() if start <= i < stop}
        if bits:
            betas.update(half_betas(own, other, bits, threshold))
    return tuple(betas[w] for w in weights)


def _flip_rows(weights: tuple[int, ...], threshold: int) -> list[list[bool]]:
    """Row i holds, for each coalition m, whether adding player i to m or
    dropping it from m changes the outcome; m holds player j when bit j of m
    is set. Only the mc histogram of tiny games reads them."""
    wins = [s >= threshold for s in _plain_sums(weights)]
    coalitions = range(len(wins))
    return [[wins[m] != wins[m ^ bit] for m in coalitions]
            for bit in (1 << i for i in range(len(weights)))]


def _plain_sums(weights: tuple[int, ...]) -> list[int]:
    """sums[m] is the weight of the coalition whose members are the set bits of m."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def _plain_half_betas(own: list[int], other: list[int], bits: dict[int, int],
                      threshold: int) -> dict[int, int]:
    """:func:`_half_betas` over Python lists, by bisection of the sorted
    other half."""
    other = sorted(other)
    betas = {}
    for w, i in bits.items():
        # The masks with bit i clear come in runs of 2^i.
        step = 1 << i
        betas[w] = sum(bisect_left(other, threshold - a) - bisect_left(other, threshold - w - a)
                       for start in range(0, len(own), 2 * step) for a in own[start:start + step])
    return betas


def _subset_sums(weights: tuple[int, ...]) -> np.ndarray:
    """:func:`_plain_sums` in a numpy int64 array."""
    import numpy as np
    sums = np.zeros(1 << len(weights), dtype=np.int64)
    for i, w in enumerate(weights):
        sums[1 << i : 2 << i] = sums[: 1 << i] + w
    return sums


def _half_betas(own: np.ndarray, other: np.ndarray, bits: dict[int, int],
                threshold: int) -> dict[int, int]:
    """The swing count of each weight w in ``bits``, for its player at bit
    ``bits[w]`` of one half; ``own`` and ``other`` are the subset sums of
    that half and of the other one.

    The player swings in a + b, for a a sum of its half without it and b a
    sum of the other half, when T - w - a <= b < T - a. Searching the sorted
    other half counts, for every a, the b below T - a once and the b below
    T - w - a once per player; a player's count is the difference summed
    over the a whose mask has its bit clear.
    """
    import numpy as np
    # A stable sort: a fresh process that runs numpy's default vectorised
    # sort maps about 300 KB more of numpy's code than one that runs this.
    other = np.sort(other, kind="stable")
    room = threshold - own
    below = other.searchsorted(room)
    return {w: int((below - other.searchsorted(room - w)).reshape(-1, 2, 1 << i)[:, 0].sum())
            for w, i in bits.items()}


def swing_counts_dp(game: VotingGame) -> tuple[int, ...]:
    """Each player's swing count beta, in player order, from a subset-sum
    counting table instead of enumeration.

    Builds the coefficients below T of prod_i (1 + x^{w_i}) over the integer
    weights, T being the least winning total, in O(N * T). A player of
    weight w swings in the coalitions of the others that weigh T - w <= s < T,
    and the others' table is this one divided by (1 + x^w); expanding that
    division as a series turns the count into an alternating sum of windows
    of width w over one prefix-sum array, computed once per distinct weight.
    Output is identical to :func:`swing_counts_enum` wherever both run. It
    raises :class:`DpTableLimitError` when the reduced total weight exceeds
    ``DEFAULT_DP_TABLE_BOUND``.
    """
    weights, threshold, total = _integer_form(game)
    if total > DEFAULT_DP_TABLE_BOUND:
        raise DpTableLimitError(
            f"reduced total weight {total} exceeds the table bound of {DEFAULT_DP_TABLE_BOUND}"
        )
    return _without_zero_weights(_dp_betas, weights, threshold)


@functools.lru_cache(maxsize=_BETA_CACHE_SIZE)
def _dp_betas(weights: tuple[int, ...], threshold: int) -> tuple[int, ...]:
    import numpy as np
    # counts[s] is the number of coalitions of weight s < T. Each is at most
    # 2^N, so int64 holds every cell and prefix sum up to N = 62.
    counts = np.zeros(threshold, dtype=np.int64 if len(weights) <= 62 else object)
    counts[0] = 1
    for w in weights:
        if w < threshold:
            # numpy reads the overlapping operand as a copy: a 0/1 step.
            counts[w:] += counts[:-w]
    prefix = np.concatenate(([0], np.cumsum(counts)))
    betas = {}
    for w in set(weights):
        # others = counts / (1 + x^w) = counts * (1 - x^w + x^2w - ...), so
        # the swing window [T - w, T) of others is an alternating sum of the
        # windows [T - (j+1)w, T - jw) of counts, clipped at 0.
        ends = np.arange(threshold, 0, -w)
        windows = prefix[ends] - prefix[np.maximum(ends - w, 0)]
        betas[w] = int(windows[0::2].sum() - windows[1::2].sum())
    return tuple(betas[w] for w in weights)


def swing_estimate_mc(game: VotingGame, samples: int, seed: int = 0) -> PowerReport:
    """Estimate the absolute index by sampling coalitions of the others.

    Each other player joins independently with probability 1/2, matching
    the assumption that all coalitions are a priori equally likely, so the
    per-player hit rate is an unbiased estimate of the absolute index.
    The coalitions drawn are the rows of
    ``numpy.random.default_rng(seed).integers(0, 2, (samples, N))``, the
    same for any chunking; they are drawn at most ``_MC_CHUNK_CELLS`` cells
    at a time and held at one bit per draw, and every swing is decided in
    exact integers whatever the weights, from per-byte weight tables that
    skip the bytes of zero-weight players.
    Results are reproducible for a fixed seed; the report carries a normal
    95% confidence half-width per player. The hits of recent
    (weights, T, samples, seed) draws are kept, so repeated reports on one
    game count it once, and the packed draws of recent (N, samples, seed)
    are kept up to ``_MC_KEPT_BYTES``, so another game of the same size
    reads them back instead of drawing again. A game of at most
    ``_PLAIN_PLAYERS`` players with no more coalitions than samples counts
    each coalition once, weighted by a histogram of the draws shared by
    every game of its size and seed; the hits are those of drawing its own
    rows.
    """
    _check_mc_arguments(samples, seed)
    weights, threshold, _ = _integer_form(game)
    return _exact_report(game, _mc_hits(weights, threshold, samples, seed), "mc", samples, seed)


def _check_mc_arguments(samples: int, seed: int) -> None:
    if not isinstance(samples, numbers.Integral) or samples < 1:
        raise ValidationError("samples must be a positive integer")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError("seed must be a non-negative integer")


@functools.lru_cache(maxsize=_BETA_CACHE_SIZE)
def _mc_hits(weights: tuple[int, ...], threshold: int, samples: int, seed: int) -> tuple[int, ...]:
    n = len(weights)
    if n <= _PLAIN_PLAYERS and (1 << n) <= samples:
        # Count each coalition once, weighted by how often the stream drew
        # it: a player swings in every drawn row whose outcome its bit flips.
        counts = _coalition_counts(n, samples, seed)
        return tuple(sum(compress(counts, row)) for row in _flip_rows(weights, threshold))
    hits = [0] * n
    tables = _row_tables(weights)
    for rows in _mc_rows(n, samples, seed):
        _add_swing_hits(hits, rows, _row_offsets(rows, tables, threshold), weights)
    return tuple(hits)


# A histogram stands for its whole stream, so it reads the draws directly
# and leaves no packed stream behind.
@functools.lru_cache(maxsize=32)
def _coalition_counts(n: int, samples: int, seed: int) -> list[int]:
    """How often each of the 2^N coalitions occurs among the draws of
    :func:`_mc_hits`; coalition m holds player i when bit i of m is set."""
    import numpy as np
    counts = np.zeros(1 << n, dtype=np.int64)
    for rows in _mc_draws(n, samples, seed):
        # While N <= 8 a packed row is one byte, and that byte is its coalition.
        counts += np.bincount(rows[:, 0], minlength=1 << n)
    return counts.tolist()


def _mc_rows(n: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    """The packed rows of :func:`_mc_draws`, in chunks of the same rows.

    A stream of at most ``_MC_KEPT_BYTES`` packed bytes is kept, and a later
    game with the same N, sample count and seed reads it back instead of
    drawing again; the kept streams never total more than that cap, the
    least recently read going first. A longer stream is drawn again each
    time it is read.
    """
    import numpy as np
    key = (n, samples, seed)
    stream = _kept_streams.pop(key, None)
    if stream is None:
        width = (n + 7) // 8
        if samples * width > _MC_KEPT_BYTES:
            yield from _mc_draws(n, samples, seed)
            return
        stream = np.empty((samples, width), dtype=np.uint8)
        start = 0
        for rows in _mc_draws(n, samples, seed):
            stream[start:start + len(rows)] = rows
            start += len(rows)
        stream.flags.writeable = False  # later games share the kept array
        while sum(s.nbytes for s in _kept_streams.values()) + stream.nbytes > _MC_KEPT_BYTES:
            del _kept_streams[next(iter(_kept_streams))]
    _kept_streams[key] = stream  # read last, so evicted last
    rows = max(1, _MC_CHUNK_CELLS // n)
    for start in range(0, samples, rows):
        yield stream[start:start + rows]


def _mc_draws(n: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    """The rows of ``default_rng(seed).integers(0, 2, (samples, N))``,
    packed at one bit per draw (bit j & 7 of byte j >> 3 is player j), in
    chunks of an even number of rows and at most ``_MC_CHUNK_CELLS`` draws.

    The rows equal that call cell for cell: for two values numpy returns
    the top bit of one 32-bit draw, and PCG64 serves 32-bit draws as the
    low, then the high half of each raw 64-bit word. So each cell is the
    sign bit of one little-endian half of ``random_raw``, read an even
    number of rows, at most ``_MC_RAW_WORDS`` words, at a time: every read
    but the stream's last ends on a whole word.
    """
    import numpy as np
    bits = np.random.default_rng(seed).bit_generator
    rows = max(2, _MC_CHUNK_CELLS // n & ~1)
    step = max(2, 2 * _MC_RAW_WORDS // n & ~1)
    chunk = np.zeros((min(rows, samples), -(-n // 8) * 8), dtype=bool)  # pad bits stay 0
    for start in range(0, samples, rows):
        count = min(rows, samples - start)
        for at in range(0, count, step):
            take = min(step, count - at)
            words = bits.random_raw((take * n + 1) // 2)
            halves = words.astype("<u8", copy=False).view("<i4")[:take * n]
            np.less(halves.reshape(take, n), 0, out=chunk[at:at + take, :n])
        yield np.packbits(chunk[:count], bitorder="little").reshape(count, -1)


def _row_tables(weights: tuple[int, ...]) -> list[list[tuple[int, np.ndarray]]]:
    """The byte tables of :func:`_row_offsets`, built once per game: one set
    over the whole weights while their total fits int64, else one set per
    32-bit limb of the weights, two while every weight is below 2^63 and at
    least three once some weight is not."""
    if sum(weights) < 2**63:
        return [_byte_tables(weights)]
    top = max(weights).bit_length()
    return [_byte_tables([w >> shift & (2**32 - 1) for w in weights])
            for shift in range(0, 64 if top < 64 else top + 1, 32)]


def _byte_tables(weights: list[int] | tuple[int, ...]) -> list[tuple[int, np.ndarray]]:
    """(c, table) for each byte column c of a packed row that holds a
    positive weight; table[b] is the weight of the players whose bits are
    set in b. A column of zero weights is never read. Every sum of eight
    weights must fit int64."""
    import numpy as np
    columns = np.zeros(-(-len(weights) // 8) * 8, dtype=np.int64)
    columns[:len(weights)] = weights
    columns = columns.reshape(-1, 8)
    tables = columns @ (np.arange(256)[None, :] >> np.arange(8)[:, None] & 1)
    return [(c, tables[c]) for c in np.flatnonzero(columns.any(axis=1)).tolist()]


def _row_offsets(rows: np.ndarray, tables: list[list[tuple[int, np.ndarray]]],
                 threshold: int) -> np.ndarray:
    """Each packed row's weight minus T, exact, summed one byte lookup per
    column of each set of :func:`_row_tables`.

    An int64 array while every weight fits int64: an offset past the int64
    range is clipped to it, which keeps it beyond every weight, where no
    player swings. Python integers when some weight does not fit.
    """
    import numpy as np
    limbs = []
    for limb_tables in tables:
        limb = np.zeros(len(rows), dtype=np.int64)
        for c, table in limb_tables:
            limb += table.take(rows[:, c])  # faster than table[rows[:, c]]
        limbs.append(limb)
    if len(limbs) == 1:
        return limbs[0] - threshold
    # Each limb sum is below N * 2^32.
    if len(limbs) > 2:
        return sum(limb.astype(object) << 32 * k for k, limb in enumerate(limbs)) - threshold
    mask = 2**32 - 1
    low, high = limbs
    low -= threshold & mask
    high += (low >> 32) - (threshold >> 32)
    # offset = high * 2^32 + (low & mask), which fits int64 iff high fits int32.
    offsets = (high << 32) | (low & mask)
    offsets[high >= 2**31] = np.iinfo(np.int64).max
    offsets[high < -(2**31)] = np.iinfo(np.int64).min
    return offsets


def _add_swing_hits(hits: list[int], rows: np.ndarray, offsets: np.ndarray,
                    weights: tuple[int, ...]) -> None:
    import numpy as np
    # Add to each player's hits the packed rows in which it swings. With
    # x = offsets[r], the row's weight minus T, a member swings when
    # 0 <= x < w and a non-member when -w <= x < 0: the player's bit must
    # equal (x >= 0), and w must exceed the gap g = x or -x - 1. Sorting the
    # rows with g below the largest weight by g makes player i's rows a
    # prefix, cut where g reaches w_i; players with the same prefix are
    # counted together.
    inside = offsets >= 0
    gaps = np.where(inside, offsets, -1 - offsets)
    near = np.flatnonzero(gaps < max(weights))
    near = near[np.argsort(gaps[near])]
    side = inside[near]
    rows = rows.take(near, axis=0)
    prefixes: dict[int, list[int]] = {}
    for i, k in enumerate(np.searchsorted(gaps[near], weights).tolist()):
        if k:
            prefixes.setdefault(k, []).append(i)
    for k, players in prefixes.items():
        players = np.array(players)
        bits = rows[:k, players >> 3] >> (players & 7).astype(np.uint8) & 1
        sums = (bits == side[:k, None]).sum(axis=0)
        for i, h in zip(players.tolist(), sums.tolist()):
            hits[i] += h


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


def _exact_report(game: VotingGame, betas: tuple[int, ...], backend: str,
                  samples: int | None = None, seed: int | None = None) -> PowerReport:
    """Build any backend's report from its per-player swing counts.

    Exact counts are over 2^(N-1) coalitions, and beta == 0 proves a dummy.
    Sampled hits (``samples`` set) are over the draws, carry a Wald 95%
    half-width and take their flags from :func:`_sampling_statuses`.
    """
    weights, threshold, total_weight = _integer_form(game)
    total = sum(betas)
    if samples is None:
        denominator = 1 << (game.n - 1)
        flags = [
            _weight_statuses(w, threshold, total_weight) | ({Status.DUMMY} if beta == 0 else set())
            for w, beta in zip(weights, betas)
        ]
        half_widths = [None] * game.n
    else:
        denominator = samples
        flags = _sampling_statuses(game)
        half_widths = [1.96 * math.sqrt(k / samples * (1.0 - k / samples) / samples) for k in betas]
    entries = tuple(
        PlayerPower(
            player_id=player.id,
            beta=beta,
            normalized=Fraction(beta, total) if total else Fraction(0),
            absolute=Fraction(beta, denominator),
            statuses=frozenset(statuses),
            half_width=half_width,
        )
        for player, beta, statuses, half_width in zip(game.players, betas, flags, half_widths)
    )
    return PowerReport(entries, total, backend, samples, seed)


def power_report(
    game: VotingGame,
    backend: str = "enum",
    *,
    samples: int | None = None,
    seed: int = 0,
) -> PowerReport:
    """Compute swing counts, both indices and status flags in one report.

    ``backend`` selects ``"enum"``, ``"dp"`` or ``"mc"``; ``samples``
    (default 50,000) and ``seed`` apply to ``"mc"`` only, and the exact
    backends ignore them. The exact backends return exact rationals
    throughout; ties in the normalized index are exact equalities, never
    within-epsilon. All three keep their counts per reduced game.
    """
    if backend == "enum":
        return _exact_report(game, swing_counts_enum(game), "enum")
    if backend == "dp":
        return _exact_report(game, swing_counts_dp(game), "dp")
    if backend == "mc":
        return swing_estimate_mc(game, DEFAULT_MC_SAMPLES if samples is None else samples, seed)
    raise ValidationError(f"unknown backend {backend!r}; expected enum, dp or mc")
