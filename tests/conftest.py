from __future__ import annotations

import random

from votepower import (
    Nationality,
    Player,
    Quota,
    Weight,
    enumerate_coalitions,
    is_critical,
    make_game,
)

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
    """Swing counts from the coalition stream and ``is_critical``, in Fraction arithmetic."""
    betas = [0] * g.n
    for coalition, wins in enumerate_coalitions(g):
        if wins:
            for player_id in coalition.member_ids(g):
                betas[g.index_of(player_id)] += is_critical(g, coalition, player_id)
    return betas
