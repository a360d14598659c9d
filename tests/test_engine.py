from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from votepower import (
    EnumerationLimitError,
    Nationality,
    Player,
    Quota,
    Status,
    ValidationError,
    Weight,
    make_game,
    power_report,
    swing_counts_dp,
    swing_counts_enum,
    swing_estimate_mc,
)
from votepower import engine
from votepower.engine import DpTableLimitError, _dp_betas, _integer_form
from conftest import _oracle_betas, fraction_betas, game

CRITICAL_TABLES = [
    (51, [50, 49, 1], (3, 1, 1)),
    (67, [50, 49, 1], (2, 2, 0)),
    (51, [40, 30, 30], (2, 2, 2)),
    (67, [40, 30, 30], (3, 1, 1)),
]


@pytest.mark.parametrize("quota,weights,expected", CRITICAL_TABLES)
def test_swing_counts_enum_tables(quota, weights, expected):
    g = game(quota, weights)
    assert swing_counts_enum(g) == expected


@pytest.mark.parametrize("quota,weights,expected", CRITICAL_TABLES)
def test_swing_counts_dp_matches_enum(quota, weights, expected):
    g = game(quota, weights)
    assert swing_counts_dp(g) == expected


def test_dp_single_player():
    g = game(Quota(1), [100])
    assert list(swing_counts_dp(g)) == [1]
    assert list(swing_counts_enum(g)) == [1]


def test_dp_twenty_symmetric_players():
    # 20 players of weight 5 at quota 51: a player swings exactly when the
    # other nineteen supply 50, i.e. ten of them join: C(19, 10) subsets.
    g = game(51, [5] * 20)
    counts = list(swing_counts_dp(g))
    assert len(set(counts)) == 1
    assert counts[0] == math.comb(19, 10)


def _statuses(quota, weights, player_id):
    return power_report(game(quota, weights)).statuses(player_id)


def test_dictator_examples():
    assert Status.DICTATOR in _statuses(51, [51, 49], "P1")
    assert Status.DICTATOR not in _statuses(67, [51, 49], "P1")
    assert Status.DICTATOR not in _statuses(100, [99, 1], "P1")


def test_veto_examples():
    assert Status.VETO in _statuses(51, [50, 25, 25], "P1")
    assert Status.VETO in _statuses(100, [33, 33, 33, 1], "P4")
    assert Status.VETO not in _statuses(51, [51, 49], "P1")


def test_power_report_normalized_and_absolute():
    report = power_report(game(51, [50, 49, 1]))
    assert report.normalized_vector() == (Fraction(3, 5), Fraction(1, 5), Fraction(1, 5))
    assert report.absolute_vector() == (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4))
    assert report.total_swings == 5


def test_power_report_looks_players_up_by_id():
    report = power_report(game(51, [50, 49, 1]))
    for entry in report.entries:
        assert report.entry(entry.player_id) is entry
        assert report.normalized(entry.player_id) == entry.normalized
        assert report.absolute(entry.player_id) == entry.absolute
        assert report.statuses(entry.player_id) == entry.statuses
    for read in (report.entry, report.normalized, report.absolute, report.statuses):
        with pytest.raises(KeyError):
            read("P4")
    assert report == power_report(game(51, [50, 49, 1]))


def test_power_report_dummy_flag_tracks_beta():
    report = power_report(game(67, [34, 34, 32]))
    assert report.normalized_vector() == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert Status.DUMMY in report.statuses("P3")
    assert Status.DUMMY not in report.statuses("P1")


def test_power_report_dictator_game():
    report = power_report(game(51, [51, 49]))
    assert report.normalized_vector() == (Fraction(1), Fraction(0))
    assert Status.DICTATOR in report.statuses("P1")
    assert Status.DUMMY in report.statuses("P2")


def test_power_report_half_percent_weights():
    report = power_report(game(51, ["49.5", "49.5", "1.0"]))
    assert report.normalized_vector() == (Fraction(1, 2), Fraction(1, 2), Fraction(0))


def test_power_report_unanimity_quarters():
    report = power_report(game(100, [33, 33, 33, 1]))
    assert report.normalized_vector() == (Fraction(1, 4),) * 4
    assert all(Status.VETO in report.statuses(f"P{i}") for i in range(1, 5))


def test_one_person_one_vote():
    # N equal holders share the power equally, 1/N each.
    assert power_report(game(51, [10] * 10)).normalized_vector() == (Fraction(1, 10),) * 10
    assert power_report(game(51, [100])).normalized_vector() == (1,)
    with pytest.raises(ValidationError):
        game(51, [])


def test_de_facto_unanimity_reduces_to_equal_shares():
    # {81: 60, 20, 20}: only the grand coalition wins, so power is 1/N.
    report = power_report(game(81, [60, 20, 20]))
    assert report.normalized_vector() == (Fraction(1, 3),) * 3


def test_backend_limits():
    # Enumeration refuses 25 players.
    g = game(51, [4] * 25)
    with pytest.raises(EnumerationLimitError) as counted:
        swing_counts_enum(g)
    assert str(counted.value) == (
        "25 players exceeds the enumeration limit of 24; use the dp or mc backend instead")
    # The table runs up to a reduced total weight of 5,000,000 and no further.
    at_bound = game(51, ["25000.01", "24999.99"])
    assert _integer_form(at_bound)[2] == 5_000_000
    assert swing_counts_dp(at_bound) == (1, 1)
    past_bound = game(51, ["25000.01", "25000"])
    assert _integer_form(past_bound)[2] == 5_000_001
    with pytest.raises(DpTableLimitError, match="5000001 exceeds the table bound of 5000000"):
        swing_counts_dp(past_bound)
    with pytest.raises(ValidationError):
        power_report(g, "nope")


def test_enum_beyond_int64_matches_brute_force():
    # Denominators that are distinct Mersenne primes leave a reduced total
    # far above 2^62, so enumeration runs on Python integers.
    primes = [2**13 - 1, 2**17 - 1, 2**19 - 1, 2**31 - 1, 2**61 - 1]
    players = [
        Player(f"P{i}", f"P{i}", Nationality.domestic(), Weight(whole + Fraction(1, p)))
        for i, (whole, p) in enumerate(zip([3, 2, 2, 1, 1], primes))
    ]
    g = make_game(Quota.of(51, 100), players)
    assert _integer_form(g)[2] >= 2**62
    brute = fraction_betas(g)
    assert list(swing_counts_enum(g)) == brute
    assert len(set(brute)) > 1


def test_beta_bounded_by_half_powerset():
    for quota, weights, _ in CRITICAL_TABLES:
        g = game(quota, weights)
        bound = 1 << (g.n - 1)
        assert all(beta <= bound for beta in swing_counts_enum(g))


def _small_enum_cases():
    rng = random.Random(1991)
    for positive in range(1, 13):
        # Zero weights, a repeated weight, and distinct ones.
        bps = [rng.randint(1, 900) for _ in range(positive)]
        if positive > 2:
            bps[-1] = bps[0]
        bps += [0] * rng.randint(0, min(2, 12 - positive))
        rng.shuffle(bps)
        total = sum(bps)
        # A quota met exactly by some coalition's weight, and unanimity.
        met = next(s for s in itertools.accumulate(sorted(bps, reverse=True)) if 2 * s > total)
        yield _bp_game(bps, Quota.of(met, total))
        yield _bp_game(bps, Quota(1))
    # Games on both sides of the Python split's bound whose reduced total
    # passes 2^62, so numpy's halves hold Python integers.
    primes = [2**13 - 1, 2**17 - 1, 2**19 - 1, 2**31 - 1, 2**61 - 1]
    for n in (engine._SPLIT_PLAYERS, engine._SPLIT_PLAYERS + 1):
        players = [
            Player(f"P{i}", f"P{i}", Nationality.domestic(),
                   Weight(1 + i % 4 + Fraction(1, primes[i % 5])))
            for i in range(n)
        ]
        yield make_game(Quota.of(51, 100), players)


def _plain_cases():
    """Games on both sides of the plain-Python bound, with zero, equal and
    fractional weights, under a quota some coalition meets exactly and under
    unanimity."""
    rng = random.Random(2718)
    for n in range(1, engine._PLAIN_PLAYERS + 3):
        fractional = [Weight(Fraction(rng.randint(1, 60), rng.choice([3, 7, 11])))
                      for _ in range(n)]
        for weights in ([Weight(rng.randint(1, 900)) for _ in range(n)],
                        [Weight(250)] * n,
                        [Weight(0)] + [Weight(rng.randint(1, 9))] * n,
                        fractional):
            players = [Player(f"P{i}", f"P{i}", Nationality.domestic(), w)
                       for i, w in enumerate(weights)]
            total = sum(w.bp for w in weights)
            met = next(s for s in itertools.accumulate(sorted((w.bp for w in weights), reverse=True))
                       if 2 * s > total)
            yield make_game(Quota.of(met, total), players)
            yield make_game(Quota(1), players)


def test_enum_matches_fraction_reference_on_small_games():
    cases = list(_plain_cases()) + list(_small_enum_cases())
    # One positive-weight player, and both sides of the Python split's bound,
    # each with zero weights; the two sides also with repeated weights and a
    # Python-int game.
    forms = [_integer_form(g)[0] for g in cases]
    for n in (1, engine._SPLIT_PLAYERS, engine._SPLIT_PLAYERS + 1):
        sized = [w for w in forms if len(w) - w.count(0) == n]
        assert any(0 in w for w in sized)
        assert n == 1 or any(len({x for x in w if x}) < n for w in sized)
    for n in (engine._SPLIT_PLAYERS, engine._SPLIT_PLAYERS + 1):
        assert any(g.n == n and sum(_integer_form(g)[0]) >= 2**62 for g in cases)
    engine._enum_betas.cache_clear()
    mismatches = [g for g in cases if list(swing_counts_enum(g)) != fraction_betas(g)]
    assert mismatches == []


def test_plain_split_matches_the_numpy_split(monkeypatch):
    rng = random.Random(77)
    cases = []
    for n in range(1, engine._SPLIT_PLAYERS + 3):
        for _ in range(20):
            weights = tuple(rng.choice((rng.randint(1, 9), rng.randint(1, 2**40)))
                            for _ in range(n))
            # Some coalition weighs exactly the threshold.
            cases.append((weights, max(1, sum(w for w in weights if rng.random() < 0.5))))
    betas = []
    for bound in (engine._SPLIT_PLAYERS, 0):
        monkeypatch.setattr(engine, "_SPLIT_PLAYERS", bound)
        engine._enum_betas.cache_clear()
        betas.append([engine._enum_betas(w, t) for w, t in cases])
    plain, numpy_split = betas
    assert plain == numpy_split
    engine._enum_betas.cache_clear()


def _beyond_int64_games():
    """Games of 11, 12 and 16 positive-weight players whose reduced total
    passes 2^62, with a repeated weight, under a quota some coalition meets
    exactly and under unanimity; the two smaller ones also hold zero weights."""
    rng = random.Random(62)
    for n in (11, 12, 16):
        bps = [rng.getrandbits(70) for _ in range(n)]
        bps[-1] = bps[0]
        bps += [0] * (2 if n < 16 else 0)
        rng.shuffle(bps)
        total = sum(bps)
        met = next(s for s in itertools.accumulate(sorted(bps, reverse=True)) if 2 * s > total)
        yield _bp_game(bps, Quota.of(met, total))
        yield _bp_game(bps, Quota(1))


def _mask_betas(weights: tuple[int, ...], threshold: int) -> list[int]:
    """Each player's swing count over all 2^n masks of the integer weights:
    the masks without player i whose weight s has T - w_i <= s < T."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return [sum(threshold - w <= s < threshold for m, s in enumerate(sums) if not m >> i & 1)
            for i, w in enumerate(weights)]


def test_enum_beyond_int64_matches_a_mask_count():
    games = list(_beyond_int64_games())
    forms = [_integer_form(g) for g in games]
    assert {len(w) - w.count(0) for w, _, _ in forms} == {11, 12, 16}
    assert all(total >= 2**62 for _, _, total in forms)
    engine._enum_betas.cache_clear()
    for g, (weights, threshold, _) in zip(games, forms):
        assert list(swing_counts_enum(g)) == _mask_betas(weights, threshold)


def test_plain_mc_hits_match_the_row_path(monkeypatch):
    cases = [(g, samples) for g in _plain_cases() for samples in (2**g.n, 2_000)]
    row_counted = []
    original = engine._add_swing_hits

    def spy(hits, rows, offsets, weights):
        row_counted.append(len(weights))
        return original(hits, rows, offsets, weights)

    monkeypatch.setattr(engine, "_add_swing_hits", spy)
    hits = []
    for bound in (engine._PLAIN_PLAYERS, 0):
        monkeypatch.setattr(engine, "_PLAIN_PLAYERS", bound)
        engine._mc_hits.cache_clear()
        hits.append([swing_estimate_mc(g, samples, seed).beta_vector()
                     for g, samples in cases for seed in range(3)])
        # Only the games above the bound draw rows; bound 0 sends every game there.
        assert set(row_counted) == {g.n for g, _ in cases if g.n > bound}
    plain, rows = hits
    assert plain == rows
    engine._mc_hits.cache_clear()


def _large_enum_cases():
    rng = random.Random(1424)
    for n in (13, 14, 17, 20, 23, 24):
        bps = rng.sample(range(1, 250), n)
        if n % 2:
            # Repeated weights, whose first player sits in the right half.
            bps[-1] = bps[-2] = bps[-3]
        total = sum(bps)
        met = next(s for s in itertools.accumulate(bps) if 2 * s > total)
        yield bps, Quota.of(51, 100)
        yield bps, Quota.of(met, total)
    yield bps, Quota(1)


def test_enum_matches_subset_sum_oracle_on_large_games():
    engine._enum_betas.cache_clear()
    for bps, quota in _large_enum_cases():
        assert list(swing_counts_enum(_bp_game(bps, quota))) == _oracle_betas(bps, quota)


def test_enum_memory_stays_near_the_half_sums():
    # 24 distinct weights: all 2^24 coalition sums would take 128 MiB.
    g = _bp_game(list(range(101, 125)), Quota.of(51, 100))
    engine._enum_betas.cache_clear()
    tracemalloc.start()
    try:
        betas = swing_counts_enum(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(betas)) == 24
    assert peak < 8 * 2**20


def test_zero_weight_players_leave_exact_counts():
    # Three seat holders among 30 stockholders: each of the 27 zero-weight
    # players doubles the others' counts and never swings.
    g = game(51, [50, 49, 1] + [0] * 27)
    expected = (3 << 27, 1 << 27, 1 << 27) + (0,) * 27
    assert swing_counts_enum(g) == swing_counts_dp(g) == expected
    report = power_report(g)
    assert report.absolute_vector()[:3] == (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4))
    assert all(Status.DUMMY in report.statuses(f"P{i}") for i in range(4, 31))
    # Only the positive-weight players count towards the limit.
    with pytest.raises(EnumerationLimitError, match="^25 players exceeds"):
        swing_counts_enum(game(51, [4] * 25 + [0] * 3))


def test_mc_is_deterministic_for_a_seed():
    g = game(51, [50, 49, 1])
    first = swing_estimate_mc(g, 5000, seed=7)
    # Draw again rather than read the first draw back from the cache.
    engine._mc_hits.cache_clear()
    second = swing_estimate_mc(g, 5000, seed=7)
    assert first == second
    assert swing_estimate_mc(g, 5000, seed=8) != first


def test_mc_estimates_absolute_index():
    g = game(51, [50, 49, 1])
    report = swing_estimate_mc(g, 40_000, seed=3)
    for entry, exact in zip(report.entries, (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4))):
        assert abs(float(entry.absolute - exact)) <= entry.half_width


def test_mc_dictator_probability_is_one():
    report = swing_estimate_mc(game(51, [51, 49]), 2000, seed=1)
    assert report.absolute("P1") == 1
    assert Status.DICTATOR in report.statuses("P1")
    assert Status.DUMMY in report.statuses("P2")


def test_mc_requires_positive_samples():
    with pytest.raises(ValidationError):
        swing_estimate_mc(game(51, [60, 40]), 0)


def _bp_game(bps: list[int], quota: Quota):
    players = [
        Player(f"p{i}", f"p{i}", Nationality.domestic(), Weight(w))
        for i, w in enumerate(bps)
    ]
    return make_game(quota, players)


def _wide_games():
    rng = random.Random(20120)
    for n in (62, 63, 64, 71, 80, 90):
        bps = [rng.choice([0, 0, 1, 2, 2, 3, 5, 8]) for _ in range(n)]
        total = sum(bps)
        # A quota met exactly by the first players' weight, a majority one,
        # and unanimity.
        prefix = next(s for s in itertools.accumulate(bps) if 2 * s > total)
        yield bps, Quota.of(prefix, total)
        yield bps, Quota.of(51, 100)
        yield bps, Quota(1)
    # A dictator whose weight alone meets the quota.
    yield [400] + [rng.randint(0, 6) for _ in range(69)], Quota.of(51, 100)


@pytest.mark.parametrize(
    "bps,quota", list(_wide_games()),
    ids=lambda case: f"n{len(case)}" if isinstance(case, list) else str(case.threshold),
)
def test_dp_beyond_int64_matches_subset_sum_oracle(bps, quota):
    g = _bp_game(bps, quota)
    assert list(swing_counts_dp(g)) == _oracle_betas(bps, quota)


def test_dp_beyond_int64_cases_cover_the_edges():
    cases = list(_wide_games())
    # One case on each side of the int64 / object switch at 62 players.
    assert {len(bps) for bps, _ in cases} >= {62, 63}
    assert all(0 in bps and len(set(bps)) < len(bps) for bps, _ in cases)
    assert any(quota == Quota(1) for _, quota in cases)
    dictator, quota = cases[-1]
    assert dictator[0] >= quota.threshold * sum(dictator)
    wide = [_bp_game(bps, quota) for bps, quota in cases if len(bps) >= 63]
    assert max(beta for g in wide for beta in swing_counts_dp(g)) > 2**63


# One meeting with a public float, analysed by power, classify and float_adjust.
MEETING = {
    "schema_version": 1,
    "entities": [{"id": x, "name": x, "nationality": n} for x, n in (
        ("A", "foreign"), ("B", "domestic"), ("C", "domestic"), ("F", "public_float"))],
    "games": [{"id": "m", "quota": {"num": 51, "den": 100}, "players": [
        {"entity": e, "weight_bp": w} for e, w in (("A", 3000), ("B", 2500),
                                                    ("C", 2500), ("F", 2000))]}],
    "graphs": [],
    "analyses": [{"analysis": a, "game": "m"} for a in ("power", "classify", "float_adjust")],
}


def test_exact_counts_are_cached_per_reduced_game():
    from votepower.equity import float_adjust
    from votepower.report import RunOptions, run_scenario
    from votepower.scenario import parse

    parsed = parse(MEETING)
    game_ = parsed.build_game("m")
    reduced = {_integer_form(game_)[:2], _integer_form(float_adjust(game_))[:2]}
    assert len(reduced) == 2
    _dp_betas.cache_clear()
    run_scenario(parsed, RunOptions(backend="dp"))
    # power, classify and the first float_adjust report share one count.
    info = _dp_betas.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_mc_counts_are_cached_per_reduced_game():
    from votepower.report import RunOptions, run_scenario
    from votepower.scenario import parse

    engine._mc_hits.cache_clear()
    results = run_scenario(parse(MEETING), RunOptions(backend="mc", samples=500, seed=3))
    # classify draws its own default samples; the first float_adjust report
    # is the power analysis's draw, read back from the cache.
    info = engine._mc_hits.cache_info()
    assert (info.misses, info.hits) == (3, 1)
    assert results[2].payload["power_before"] == results[0].payload["power"]


def test_cached_counts_are_keyed_by_threshold():
    weights = [20, 20, 20, 20, 20]
    majority, supermajority = game(51, weights), game(67, weights)
    assert list(swing_counts_dp(majority)) == [6] * 5
    assert list(swing_counts_dp(supermajority)) == [4] * 5
    assert list(swing_counts_enum(majority)) == [6] * 5
    assert list(swing_counts_enum(supermajority)) == [4] * 5


def test_limit_errors_repeat_after_a_cached_count(monkeypatch):
    # Reduced by their gcd, these weights total 100 over ten players.
    g = game(51, [11, 9] + [10] * 8)
    swing_counts_enum(g)
    swing_counts_dp(g)
    monkeypatch.setattr(engine, "DEFAULT_ENUMERATION_LIMIT", 9)
    monkeypatch.setattr(engine, "DEFAULT_DP_TABLE_BOUND", 10)
    for _ in range(2):
        with pytest.raises(EnumerationLimitError):
            swing_counts_enum(g)
        with pytest.raises(DpTableLimitError):
            swing_counts_dp(g)


def _mc_reference(g, samples: int, seed: int) -> list[int]:
    weights, threshold, _ = _integer_form(g)
    draws = np.random.default_rng(seed).integers(0, 2, size=(samples, g.n), dtype=np.int64)
    base = draws @ np.asarray(weights, dtype=np.int64)
    hits = []
    for i, w in enumerate(weights):
        others = base - draws[:, i] * w
        hits.append(int(np.count_nonzero((others >= threshold - w) & (others < threshold))))
    return hits


def test_mc_chunks_match_one_draw_matrix(monkeypatch):
    rng = random.Random(7)
    g = _bp_game([rng.randint(0, 300) for _ in range(151)], Quota.of(51, 100))
    chunk = max(1, engine._MC_CHUNK_CELLS // g.n)
    samples = 2 * chunk + 1
    assert swing_estimate_mc(g, samples, seed=5).beta_vector() == tuple(_mc_reference(g, samples, 5))
    # Odd chunks of three rows, and reduced weights whose sum wraps int64.
    monkeypatch.setattr(engine, "_MC_CHUNK_CELLS", 3 * 5)
    engine._mc_hits.cache_clear()
    players = [
        Player(f"P{i}", f"P{i}", Nationality.domestic(), Weight(whole + Fraction(1, 2**61 - 1)))
        for i, whole in enumerate([3, 2, 2, 1, 1])
    ]
    wide = make_game(Quota.of(51, 100), players)
    assert sum(_integer_form(wide)[0]) >= 2**63 > max(_integer_form(wide)[0])
    for samples in (1, 3, 7, 100):
        got = swing_estimate_mc(wide, samples, seed=9).beta_vector()
        assert got == tuple(_mc_reference(wide, samples, 9))


def _small_mc_cases():
    rng = random.Random(2010)
    for n in range(1, 17):
        bps = [rng.choice([0, 1, 2, 2, 3, 5, 8]) for _ in range(n)]
        bps[0] = max(bps[0], 1)
        for quota in (Quota.of(51, 100), Quota(1)):
            for samples in (2**n - 1, 2**n, 2**n + 1, 2_000, 50_000):
                yield _bp_game(bps, quota), samples
    # Reduced weights whose sum wraps int64, through the histogram too.
    players = [
        Player(f"P{i}", f"P{i}", Nationality.domestic(), Weight(whole + Fraction(1, 2**61 - 1)))
        for i, whole in enumerate([3, 2, 2, 1, 1])
    ]
    wide = make_game(Quota.of(51, 100), players)
    assert sum(_integer_form(wide)[0]) >= 2**63
    for samples in (32, 33, 2_000):
        yield wide, samples


def test_small_mc_games_match_one_draw_matrix(monkeypatch):
    cases = list(_small_mc_cases())
    lowered = [_integer_form(g)[0] for g, _ in cases]
    # Some game has a zero weight and a repeated positive weight.
    assert any(0 in w and len(set(w) - {0}) < len(w) - w.count(0) for w in lowered)
    drawn = []
    original = engine._coalition_counts

    def spy(n, samples, seed):
        drawn.append((n, samples))
        return original(n, samples, seed)

    monkeypatch.setattr(engine, "_coalition_counts", spy)
    engine._mc_hits.cache_clear()
    mismatches = [
        (g.n, samples) for k, (g, samples) in enumerate(cases)
        if swing_estimate_mc(g, samples, seed=k % 3).beta_vector()
        != tuple(_mc_reference(g, samples, k % 3))
    ]
    assert mismatches == []
    # Games of at most _PLAIN_PLAYERS players with 2^n <= samples share a
    # histogram; the rest, 7 to 16 players at every sample count among them,
    # draw rows.
    bound = engine._PLAIN_PLAYERS
    assert set(drawn) == {(g.n, s) for g, s in cases if 2**g.n <= s and g.n <= bound}
    assert {n for n, _ in drawn} == set(range(1, bound + 1))
    assert {(n, 2**n + 1) for n in range(bound + 1, 17)} <= {(g.n, s) for g, s in cases}


@pytest.mark.parametrize("cells, words",
                         [(None, None), (3 * 5, None), (7, 3), (1, None), (80, 24)])
@pytest.mark.parametrize("n", [1, 2, 5, 8, 16, 150, 151])
def test_mc_draws_are_the_generator_stream(monkeypatch, n, cells, words):
    # Chunks of even row counts end on a whole raw word, tiny cell counts
    # still give chunks of two rows, and small raw reads split one chunk
    # across several; at N = 8 and 16 a packed row has no pad bits.
    if cells is not None:
        monkeypatch.setattr(engine, "_MC_CHUNK_CELLS", cells)
    if words is not None:
        monkeypatch.setattr(engine, "_MC_RAW_WORDS", words)
    rows = max(1, engine._MC_CHUNK_CELLS // n)
    for samples in (1, 3, 2 * rows + 1):
        chunks = list(engine._mc_draws(n, samples, 11))
        assert all(c.dtype == np.uint8 and c.nbytes <= 2**21 for c in chunks)
        assert all(c.shape[1] == (n + 7) // 8 for c in chunks)
        assert all(len(c) % 2 == 0 for c in chunks[:-1])
        expected = np.random.default_rng(11).integers(0, 2, size=(samples, n), dtype=np.int64)
        drawn = np.unpackbits(np.concatenate(chunks), axis=1, count=n, bitorder="little")
        assert np.array_equal(drawn, expected)


@pytest.mark.parametrize("cells, words", [(None, None), (45, 8)])
@pytest.mark.parametrize("n", range(1, 7))
def test_coalition_counts_are_the_histogram_of_the_draws(monkeypatch, n, cells, words):
    # Odd sample counts end the stream within a chunk of an even row count,
    # and within a raw word at odd N.
    if cells is not None:
        monkeypatch.setattr(engine, "_MC_CHUNK_CELLS", cells)
        monkeypatch.setattr(engine, "_MC_RAW_WORDS", words)
    for samples in (2**n + 1, 3_001, 2 * engine._MC_CHUNK_CELLS // n + 1):
        draws = np.random.default_rng(4).integers(0, 2, size=(samples, n))
        expected = np.bincount(draws @ (1 << np.arange(n)), minlength=1 << n)
        assert engine._coalition_counts.__wrapped__(n, samples, 4) == expected.tolist()


def _exact_hits(weights, threshold, samples, seed):
    """Swing hits over the draws of one samples x N matrix, in Python ints."""
    draws = np.random.default_rng(seed).integers(0, 2, size=(samples, len(weights))).tolist()
    hits = [0] * len(weights)
    for row in draws:
        total = sum(w for w, d in zip(weights, row) if d)
        for i, (w, d) in enumerate(zip(weights, row)):
            others = total - w if d else total
            hits[i] += threshold - w <= others < threshold
    return hits


def _wide_mc_cases():
    rng = random.Random(2**64)
    for k in range(24):
        n = rng.choice([3, 6, 9, 20])
        # Magnitudes from tiny to int64's largest, and past it for some games.
        top = 63 if k % 3 else 70
        weights = [0]
        while sum(weights) < 2**64:
            weights = [rng.randrange(2 ** rng.choice([3, 31, 33, 61, top])) for _ in range(n)]
            weights[rng.randrange(n)] = 2**63 - 1
            # Equal heavy weights make rows land near the threshold.
            weights[rng.randrange(n)] = weights[rng.randrange(n)]
        q = rng.choice([Fraction(51, 100), Fraction(2, 3), Fraction(1, 2), Fraction(1)])
        threshold = -(-q.numerator * sum(weights) // q.denominator)
        for samples in (min(2**n - 1, 300), 600):
            yield tuple(weights), threshold, samples, k
    # Weights of exactly 64 bits: past int64, yet two 32-bit limbs each.
    band = [(2**64 - 1, 2**64 - 2, 2**64 - 3, 2**64 - 5), (2**63, 2**63 - 1, 2**63 + 7, 3, 2**62)]
    for weights in band:
        threshold = -(-51 * sum(weights) // 100)
        for samples in (2 ** len(weights) - 1, 600):
            yield weights, threshold, samples, 7


def test_mc_hits_are_exact_on_wide_games():
    cases = list(_wide_mc_cases())
    assert all(sum(w) >= 2**64 for w, *_ in cases)
    # Both the row path and the histogram path, and weights past int64.
    histogram = [2**n <= s and n <= engine._PLAIN_PLAYERS for w, _, s, _ in cases for n in [len(w)]]
    assert set(histogram) == {True, False}
    assert any(max(w) >= 2**63 for w, *_ in cases)
    assert any(max(w).bit_length() == 64 for w, *_ in cases)
    engine._mc_hits.cache_clear()
    mismatches = [case for case in cases if list(engine._mc_hits(*case)) != _exact_hits(*case)]
    assert mismatches == []
    # The cases are not vacuous: the big players swing in some rows.
    assert sum(sum(engine._mc_hits(*case)) > 0 for case in cases) > len(cases) // 2


def _wide_meeting(n: int, board_size: int = 8) -> dict:
    """A meeting of n stockholders, one of them foreign and one the public
    float, with every analysis of a game."""
    rng = random.Random(n)
    ids = ["A", "F"] + [f"S{i}" for i in range(n - 2)]
    kinds = {"A": "foreign", "F": "public_float"}
    weights = [2600, 1900] + [rng.randint(1, 5500 // (n - 2)) for _ in range(n - 2)]
    return {
        "schema_version": 1,
        "entities": [{"id": x, "name": x, "nationality": kinds.get(x, "domestic")} for x in ids],
        "games": [{"id": "m", "quota": {"num": 51, "den": 100}, "players": [
            {"entity": x, "weight_bp": w} for x, w in zip(ids, weights)]}],
        "graphs": [],
        "analyses": [{"analysis": a, "game": "m"} for a in ("power", "classify", "float_adjust")]
        + [{"analysis": "board", "game": "m", "board_size": board_size}],
    }


def _spy_draws(monkeypatch) -> list[tuple[int, int, int]]:
    drawn = []
    original = engine._mc_draws

    def spy(n, samples, seed):
        drawn.append((n, samples, seed))
        return original(n, samples, seed)

    monkeypatch.setattr(engine, "_mc_draws", spy)
    return drawn


def test_classify_and_board_read_one_mc_stream(monkeypatch):
    from votepower.report import RunOptions, run_scenario
    from votepower.scenario import parse

    drawn = _spy_draws(monkeypatch)
    engine._mc_hits.cache_clear()
    engine._kept_streams.clear()
    results = run_scenario(parse(_wide_meeting(40)), RunOptions(backend="mc", samples=700, seed=4))
    seats = [s["seats"] for s in results[3].payload["seats"]]
    assert sum(seats) == 8 and 0 < sum(s > 0 for s in seats) < 40
    # classify and board both sample 50,000 coalitions of all 40 stockholders
    # with seed 0, and the board game reads classify's stream back; the
    # adjusted game of float_adjust leaves the public float out.
    assert sorted(drawn) == [(39, 700, 4), (40, 700, 4), (40, 50_000, 0)]
    assert sum(s.nbytes for s in engine._kept_streams.values()) <= engine._MC_KEPT_BYTES


def test_kept_streams_stay_under_their_cap(monkeypatch):
    drawn = _spy_draws(monkeypatch)
    monkeypatch.setattr(engine, "_MC_KEPT_BYTES", 5_000)
    engine._mc_hits.cache_clear()
    engine._kept_streams.clear()
    # Packed rows of 3 bytes: 1,000 samples fit the cap, 2,000 do not.
    weights, threshold = tuple(range(1, 21)), 106
    for samples, seed in [(1_000, 0), (400, 1), (2_000, 0), (1_000, 2), (2_000, 0), (400, 1),
                          (1_000, 0)]:
        engine._mc_hits.cache_clear()
        assert engine._mc_hits(weights, threshold, samples, seed) == tuple(
            _exact_hits(weights, threshold, samples, seed))
        assert sum(s.nbytes for s in engine._kept_streams.values()) <= 5_000
        assert (20, 2_000, 0) not in engine._kept_streams
    # The stream above the cap is drawn each time. (1000, 2) evicts the
    # least recently read (1000, 0), which is drawn again; (400, 1) is read back.
    assert drawn == [(20, 1_000, 0), (20, 400, 1), (20, 2_000, 0), (20, 1_000, 2),
                     (20, 2_000, 0), (20, 1_000, 0)]


def _mc_payloads(document, options) -> list[dict]:
    from votepower.report import run_scenario
    from votepower.scenario import parse

    engine._mc_hits.cache_clear()
    return [r.payload for r in run_scenario(parse(document), options)]


@pytest.mark.parametrize("document, cells", [(MEETING, 3 * 7), (_wide_meeting(30), 2**12 + 3)])
def test_kept_streams_give_the_fresh_answer(monkeypatch, document, cells):
    from votepower.report import RunOptions

    # 9 samples put MEETING's 4-player power games on the row path.
    options = RunOptions(backend="mc", samples=9, seed=3)
    engine._kept_streams.clear()
    fresh = _mc_payloads(document, options)
    assert engine._kept_streams
    assert _mc_payloads(document, options) == fresh
    # Read back, then drawn, in chunks of other row counts.
    monkeypatch.setattr(engine, "_MC_CHUNK_CELLS", cells)
    assert _mc_payloads(document, options) == fresh
    engine._kept_streams.clear()
    assert _mc_payloads(document, options) == fresh


def _packed_boundary_games():
    rng = random.Random(8)
    for n in (7, 8, 9, 15, 16, 17, 150, 151):
        bps = [rng.randint(1, 400) for _ in range(n)]
        # A whole byte column of zeros where there is one, and single zero bits.
        for j in range(8, 16) if n >= 16 else ():
            bps[j] = 0
        for j in rng.sample(range(n), n // 5):
            bps[j] = 0
        bps[n - 1] = max(bps[n - 1], 1)
        yield bps
    # A board: 3 seat holders among 150 stockholders, in three byte columns.
    board = [0] * 150
    board[5], board[77], board[149] = 3, 3, 2
    yield board


@pytest.mark.parametrize("bps", list(_packed_boundary_games()), ids=lambda b: f"n{len(b)}")
def test_packed_rows_match_one_draw_matrix(bps):
    g = _bp_game(bps, Quota.of(51, 100))
    engine._mc_hits.cache_clear()
    engine._kept_streams.clear()
    # The row path at two sample counts: no game this large reads a histogram.
    for samples in (100, 1_000):
        got = swing_estimate_mc(g, samples, seed=len(bps)).beta_vector()
        assert got == tuple(_mc_reference(g, samples, len(bps)))
    # Zero-weight byte columns are never read.
    weights = _integer_form(g)[0]
    columns = [c for c, _ in engine._row_tables(weights)[0]]
    assert columns == [c for c in range((len(bps) + 7) // 8) if any(weights[8 * c:8 * c + 8])]


@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 150])
def test_packed_rows_are_exact_on_wide_weights(n):
    rng = random.Random(n)
    engine._mc_hits.cache_clear()
    # Row sums in int64, in two 32-bit limbs, and in Python ints.
    for top, limbs in ((50, 1), (63, 2), (64, 3), (70, 3)):
        weights = [rng.randrange(2**top) if rng.random() < 0.7 else 0 for _ in range(n)]
        for j in range(8, 16) if n >= 16 else ():
            weights[j] = 0
        weights[rng.randrange(n)] = 2**top - 1
        weights[rng.randrange(n)] = 2**top - 2
        assert len(engine._row_tables(weights)) == limbs
        threshold = -(-51 * sum(weights) // 100)
        for samples in (200, 2**n if n <= 9 else 300):
            case = tuple(weights), threshold, samples, top
            assert list(engine._mc_hits(*case)) == _exact_hits(*case)
