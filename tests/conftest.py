from __future__ import annotations

import random
from fractions import Fraction

from votepower import Nationality, Player, Quota, Weight, make_game

QUOTA_CHOICES = (
    Quota.of(51, 100),
    Quota.of(55, 100),
    Quota.of(60, 100),
    Quota.of(2, 3),
    Quota.of(67, 100),
    Quota.of(3, 4),
    Quota.of(1, 1),
)


def game(quota, weights, nationalities=None):
    """Build a game from percent weights given as ints or strings."""
    if not isinstance(quota, Quota):
        quota = Quota.percent(quota)
    players = []
    for i, w in enumerate(weights):
        nationality = nationalities[i] if nationalities else Nationality.domestic()
        players.append(Player(f"P{i+1}", f"P{i+1}", nationality, Weight.from_percent(str(w))))
    return make_game(quota, players)


def random_game(rng: random.Random, max_players: int = 16, max_weight: int = 60):
    n = rng.randint(1, max_players)
    weights = [rng.randint(0, max_weight) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    players = [
        Player(f"p{i}", f"p{i}", Nationality.domestic(), Weight.from_bp(w))
        for i, w in enumerate(weights)
    ]
    return make_game(rng.choice(QUOTA_CHOICES), players)


def fraction_betas(g) -> list[int]:
    """Swing counts by brute force, in Fraction arithmetic over the bp
    weights: for every coalition m, each member i whose weight takes m from
    at least q * W to below it counts once."""
    bps = [p.weight.bp for p in g.players]
    need = g.quota.threshold * sum(bps, Fraction(0))
    betas = [0] * len(bps)
    for mask in range(1 << len(bps)):
        members = [i for i in range(len(bps)) if mask >> i & 1]
        total = sum((bps[i] for i in members), Fraction(0))
        for i in members:
            betas[i] += total >= need > total - bps[i]
    return betas


def _oracle_betas(bps: list[int], quota: Quota) -> list[int]:
    """Per player, count the coalitions of the others by a plain subset-sum
    over their bp weights and keep the sums s with T - w <= s < T."""
    total = sum(bps)
    q = quota.threshold
    threshold = -(-q.numerator * total // q.denominator)
    betas = []
    for i, w in enumerate(bps):
        table = [1] + [0] * total
        for j, other in enumerate(bps):
            if j != i:
                table = [a + (table[s - other] if s >= other else 0) for s, a in enumerate(table)]
        betas.append(sum(table[max(threshold - w, 0) : threshold]))
    return betas
