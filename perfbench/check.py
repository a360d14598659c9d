"""Output checks for the benchmark, written apart from the package.

Each checker receives one op's outputs, one per analysis: a machine-output
dict, a rendered table, a ``CorpusReport``, or the exception the analysis
raised. It returns a ``Verdict``: the wrong outputs it found and every
exception, split into the documented seed-state failures and the rest.

Exact swing counts are compared with an oracle of the checker's own, modulo
a large prime, and with exact invariants where the oracle is out of reach.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from votepower.core import BackendLimitError

ORACLE_N = 20
DP_LIMIT = 2_000_000
PRIME = 2**61 - 1
MC_DEFAULT_SAMPLES = 50_000
MC_CHECK_SAMPLES = 20_000
SUPERMAJORITY = {"percent": Fraction(67, 100), "exact-fraction": Fraction(2, 3)}


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    # (kind, expected): kind is "limit:<class>", "untyped:<class>" or
    # "wrong_output"; expected when the seed state documents it.
    errors: list[tuple[str, bool]] = field(default_factory=list)
    checks: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems) or any(not expected for _, expected in self.errors)

    def record(self, found: list[str], expected: tuple[str, ...]) -> None:
        """File one analysis's wrong outputs, as a documented seed-state
        failure when ``expected`` names ``wrong_output``."""
        if found and "wrong_output" in expected:
            self.errors.append(("wrong_output", True))
        else:
            self.problems.extend(found)


@dataclass
class Game:
    ids: list[str]
    weights: list[Fraction]
    quota: Fraction
    nationalities: list[str] = field(default_factory=list)

    @property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    @property
    def threshold(self) -> Fraction:
        return self.quota * self.total


def frac(value: dict) -> Fraction:
    return Fraction(value["num"], value["den"])


def pct(value: Fraction) -> str:
    scaled = value * 10_000
    q, r = divmod(scaled.numerator, scaled.denominator)
    q += 2 * r >= scaled.denominator
    return f"{q // 100}.{q % 100:02d}"


def resolve_quota(raw, interpretation: str) -> Fraction:
    return SUPERMAJORITY[interpretation] if raw == "supermajority" else Fraction(raw["num"], raw["den"])


def integer_form(game: Game) -> tuple[list[int], int]:
    """Weights scaled to integers, and the least winning integer total."""
    scale = math.lcm(*(w.denominator for w in game.weights))
    ints = [int(w * scale) for w in game.weights]
    t = game.quota * sum(ints)
    return ints, -(-t.numerator // t.denominator)


def oracle_betas(game: Game) -> list[int] | None:
    """Swing counts modulo ``PRIME``, or None when out of reach.

    Small integer thresholds use a subset-sum table over sums below the
    threshold, once per distinct weight; otherwise up to ``ORACLE_N``
    players enumerate all 2^n coalition sums.
    """
    ints, threshold = integer_form(game)
    if threshold <= DP_LIMIT:
        return list(_table_betas(tuple(ints), threshold))
    if len(ints) <= ORACLE_N and sum(ints) < 2**62:
        return [b % PRIME for b in _enumerated_betas(ints, threshold)]
    return None


@functools.lru_cache(maxsize=64)
def _table_betas(ints: tuple[int, ...], threshold: int) -> tuple[int, ...]:
    betas = {}
    for w in set(ints):
        if w == 0:
            betas[w] = 0
            continue
        # counts[s]: coalitions of the other players with weight s < threshold.
        counts = np.zeros(threshold, dtype=np.int64)
        counts[0] = 1
        skipped = False
        for v in ints:
            if v == w and not skipped:
                skipped = True
            elif v == 0:
                counts = counts * 2 % PRIME
            elif v < threshold:
                counts[v:] = counts[v:] + counts[:-v]
                counts[counts >= PRIME] -= PRIME
        betas[w] = sum(counts[max(0, threshold - w):].tolist()) % PRIME
    return tuple(betas[w] for w in ints)


def _enumerated_betas(ints: list[int], threshold: int) -> list[int]:
    sums = np.zeros(1, dtype=np.int64)
    for w in ints:
        sums = np.concatenate([sums, sums + w])
    masks = np.arange(1 << len(ints), dtype=np.int64)
    betas = []
    for i, w in enumerate(ints):
        without = sums[(masks >> i) & 1 == 0]
        betas.append(int(np.count_nonzero((without < threshold) & (without + w >= threshold))))
    return betas


def mc_swing_rate(game: Game) -> tuple[float, float, int]:
    """Swings per sampled coalition, estimated in float64 with a generator of
    the checker's own: the mean and variance of the count per sample, and
    the number of samples that hold at least one swing."""
    weights = np.array([float(w) for w in game.weights])
    threshold = float(game.threshold)
    rng = np.random.default_rng(0)
    counts = []
    for _ in range(MC_CHECK_SAMPLES // 1000):
        draws = rng.integers(0, 2, size=(1000, len(weights)), dtype=np.uint8)
        base = draws @ weights
        swings = np.zeros(1000)
        for i, w in enumerate(weights):
            others = base - draws[:, i] * w
            swings += (others >= threshold - w) & (others < threshold)
        counts.append(swings)
    counts = np.concatenate(counts)
    return float(counts.mean()), float(counts.var()), int(np.count_nonzero(counts))


def game_from_json(raw: dict) -> Game:
    players = raw["players"]
    return Game([p["id"] for p in players], [frac(p["weight_bp"]) for p in players],
                frac(raw["quota"]), [p.get("nationality") for p in players])


def check_game_json(raw: dict, game: Game, where: str, problems: list[str]) -> None:
    got = game_from_json(raw)
    if (got.ids, got.weights, got.quota) != (game.ids, game.weights, game.quota):
        problems.append(f"{where}: game differs from the input document")
    if frac(raw["total_weight_bp"]) != game.total:
        problems.append(f"{where}: wrong total weight")
    for p, w in zip(raw["players"], game.weights):
        if p["weight_pct"] != pct(w / 10_000):
            problems.append(f"{where}: weight_pct of {p['id']}")


def check_power(game: Game, power: dict, backend: str, samples: int | None,
                where: str, problems: list[str]) -> list[Fraction]:
    """Check one power report; return its normalized indices."""
    entries = power["players"]
    if [e["id"] for e in entries] != game.ids or power["backend"] != backend:
        problems.append(f"{where}: players or backend differ")
        return []
    betas = [e["beta"] for e in entries]
    total = sum(betas)
    threshold, weight_total = game.threshold, game.total
    dictators = sum(1 for w in game.weights if w >= threshold)
    if power["total_swings"] != total:
        problems.append(f"{where}: total_swings != sum of beta")
    n = len(betas)
    for e, w, beta in zip(entries, game.weights, betas):
        statuses = set()
        if w >= threshold:
            statuses.add("dictator")
        if w < threshold and weight_total - w < threshold:
            statuses.add("veto")
        if backend == "mc":
            absolute = Fraction(beta, samples)
            if w == 0 or (game.quota > Fraction(1, 2) and dictators - (w >= threshold) > 0):
                statuses.add("dummy")
            if "half_width" not in e or not 0 <= beta <= samples:
                problems.append(f"{where}: mc entry {e['id']} malformed")
        else:
            absolute = Fraction(beta, 1 << (n - 1))
            if beta == 0:
                statuses.add("dummy")
        normalized = Fraction(beta, total) if total else Fraction(0)
        if (frac(e["normalized"]), frac(e["absolute"])) != (normalized, absolute):
            problems.append(f"{where}: indices of {e['id']} do not follow from beta")
        if (e["normalized_pct"], e["absolute_pct"]) != (pct(normalized), pct(absolute)):
            problems.append(f"{where}: percent text of {e['id']}")
        if sorted(statuses) != e["statuses"]:
            problems.append(f"{where}: statuses of {e['id']}: {e['statuses']} != {sorted(statuses)}")
    if backend == "mc":
        if (power.get("samples"), power.get("seed") is None) != (samples, False):
            problems.append(f"{where}: mc sample record")
        # Six standard errors; the variance floor covers counts too rare to
        # have shown up in the check's own samples.
        mean, variance, hit_samples = mc_swing_rate(game)
        variance = max(variance, 1 / MC_CHECK_SAMPLES)
        if abs(total / samples - mean) > 6 * math.sqrt(
                variance * (1 / samples + 1 / MC_CHECK_SAMPLES)):
            problems.append(f"{where}: {total / samples:.4g} swings per sample, "
                            f"an independent estimate gives {mean:.4g}")
        # Rare swings that come many at a time make that variance large, so
        # a report of no swings at all is tested on its own. If both sides
        # sampled the same game, the samples holding a swing would fall
        # among all samples at random; all of them landing on the check's
        # side must be likelier than one in 10^9.
        share = MC_CHECK_SAMPLES / (MC_CHECK_SAMPLES + samples)
        if total == 0 and hit_samples * math.log(share) < math.log(1e-9):
            problems.append(f"{where}: no swings in {samples} samples, yet "
                            f"{hit_samples} of {MC_CHECK_SAMPLES} independent samples hold one")
        return [frac(e["normalized"]) for e in entries]
    expected = oracle_betas(game)
    if expected is not None:
        if expected != [b % PRIME for b in betas]:
            problems.append(f"{where}: beta differs from the oracle")
    else:
        # Swing counts are monotone in weight, and equal weights swing equally.
        ranked = sorted(zip(game.weights, betas))
        for (w1, b1), (w2, b2) in zip(ranked, ranked[1:]):
            if b1 > b2 or (w1 == w2 and b1 != b2):
                problems.append(f"{where}: beta not monotone in weight")
                break
    if total and sum((frac(e["normalized"]) for e in entries), Fraction(0)) != 1:
        problems.append(f"{where}: normalized indices do not sum to 1")
    return [frac(e["normalized"]) for e in entries]


def classify_error(exc: BaseException, expected: tuple[str, ...]) -> tuple[str, bool]:
    kind = "limit" if isinstance(exc, BackendLimitError) else "untyped"
    return f"{kind}:{type(exc).__name__}", type(exc).__name__ in expected


# ---------------------------------------------------------------- corpus


def match(expected, actual, path: str, problems: list[str]) -> None:
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            problems.append(f"{path}: expected an object")
            return
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{path}.{key}: missing")
            else:
                match(value, actual[key], f"{path}.{key}", problems)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            problems.append(f"{path}: expected {len(expected)} items")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            match(e, a, f"{path}[{i}]", problems)
    elif expected != actual:
        problems.append(f"{path}: expected {expected!r}, got {actual!r}")


def applicable_checks(op) -> list[tuple[int, dict]]:
    """The file's frozen checks that apply to the op's interpretation."""
    out = []
    for check in op.checks:
        if op.interpretation in check.get("interpretations", ["percent"]):
            expect = check.get("expect", {})
            if isinstance(expect, dict) and "by_interpretation" in expect:
                expect = expect["by_interpretation"][op.interpretation]
            out.append((check["analysis"], expect))
    return out


def check_corpus(op, outputs: list) -> Verdict:
    verdict = Verdict()
    if op.verify:
        report = outputs[0]
        if isinstance(report, BaseException):
            verdict.errors.append(classify_error(report, ()))
            return verdict
        verdict.checks = len(report.outcomes)
        if not report.passed or len(report.outcomes) != op.expected_checks:
            verdict.problems.append(f"verify_corpus: passed={report.passed}, "
                                    f"{len(report.outcomes)} of {op.expected_checks} checks")
        return verdict
    analyses = json.loads(op.text)["scenario"]["analyses"]
    for i, out in enumerate(outputs):
        if isinstance(out, BaseException):
            verdict.errors.append(classify_error(out, ()))
        elif op.fmt == "table" and not out.startswith(f"== {analyses[i]['analysis']}"):
            verdict.problems.append(f"analysis {i}: table does not start with its header")
    if op.fmt == "machine":
        for index, expect in applicable_checks(op):
            if isinstance(outputs[index], BaseException):
                continue
            verdict.checks += 1
            match(expect, outputs[index], f"analysis {index}", verdict.problems)
    return verdict


# ---------------------------------------------------------------- meetings


def allocate_seats(game: Game, size: int) -> list[int]:
    shares = [w / game.total * size for w in game.weights]
    base = [int(s) for s in shares]
    order = sorted(range(len(shares)),
                   key=lambda i: (-(shares[i] - base[i]), -game.weights[i], i))
    for i in order[: size - sum(base)]:
        base[i] += 1
    return base


def check_meeting(op, outputs: list) -> Verdict:
    verdict = Verdict()
    doc = json.loads(op.text)
    nationality = {e["id"]: e["nationality"] for e in doc["entities"]}
    spec = doc["games"][0]
    game = Game([p["entity"] for p in spec["players"]],
                [Fraction(p["weight_bp"]) for p in spec["players"]],
                resolve_quota(spec["quota"], op.interpretation),
                [nationality[p["entity"]] for p in spec["players"]])
    exact = op.backend != "mc"
    power_out = None
    for i, (analysis, out) in enumerate(zip(doc["analyses"], outputs)):
        if isinstance(out, BaseException):
            verdict.errors.append(classify_error(out, op.expected_errors.get(i, ())))
            continue
        where = f"{op.name} analysis {i} ({analysis['analysis']})"
        verdict.checks += 1
        problems: list[str] = []
        check_game_json(out["input"], game, where, problems)
        kind = analysis["analysis"]
        if kind == "power":
            power_out = out["power"]
            check_power(game, power_out, op.backend, op.samples, where, problems)
        elif kind == "classify":
            check_classify(game, out["classifications"], power_out if exact else None,
                           where, problems)
        elif kind == "board":
            size = analysis["board_size"]
            seats = allocate_seats(game, size)
            if out["seats"] != [{"id": pid, "seats": s} for pid, s in zip(game.ids, seats)]:
                problems.append(f"{where}: seats differ from largest remainder")
            quota = resolve_quota(analysis["quota"], op.interpretation) if "quota" in analysis \
                else game.quota
            board = Game(game.ids, [Fraction(s * 10_000, size) for s in seats], quota)
            check_power(board, out["board_power"], op.backend,
                        MC_DEFAULT_SAMPLES if not exact else None, where, problems)
        elif kind == "float_adjust":
            kept = [i for i, nat in enumerate(game.nationalities) if nat != "public_float"]
            share = 1 - sum((game.weights[i] for i in kept), Fraction(0)) / game.total
            adjusted = Game([game.ids[i] for i in kept],
                            [game.weights[i] / (1 - share) for i in kept], game.quota)
            check_game_json(out["adjusted"], adjusted, where, problems)
            if power_out is not None and out["power_before"] != power_out:
                problems.append(f"{where}: power before adjustment differs from power")
            check_power(game, out["power_before"], op.backend, op.samples, where, problems)
            check_power(adjusted, out["power_after"], op.backend, op.samples, where, problems)
        verdict.record(problems, op.expected_errors.get(i, ()))
    return verdict


def check_classify(game: Game, got: dict, power: dict | None, where: str,
                   problems: list[str]) -> None:
    foreign = [i for i, nat in enumerate(game.nationalities) if nat == "foreign"]
    if list(got) != [game.ids[i] for i in foreign]:
        problems.append(f"{where}: classified players are not the foreign holders")
        return
    normalized = [frac(e["normalized"]) for e in power["players"]] if power else None
    if normalized:
        best = max(normalized[i] for i, nat in enumerate(game.nationalities) if nat == "domestic")
    for i in foreign:
        value = got[game.ids[i]]
        if game.weights[i] >= game.threshold:
            expected = "dictator"
        elif normalized is None:
            if value not in ("no_control", "joint_control", "effective_control"):
                problems.append(f"{where}: {game.ids[i]} classified {value}")
            continue
        elif normalized[i] > best:
            expected = "effective_control"
        elif normalized[i] == best and best > 0:
            expected = "joint_control"
        else:
            expected = "no_control"
        if value != expected:
            problems.append(f"{where}: {game.ids[i]} classified {value}, expected {expected}")


# ---------------------------------------------------------------- chains


class Chain:
    """The document's network, and discrete propagation recomputed from it."""

    def __init__(self, doc: dict, interpretation: str):
        graph = doc["graphs"][0]
        self.nationality = {e["id"]: e["nationality"] for e in doc["entities"]}
        self.held: dict[str, list[tuple[str, Fraction]]] = {}
        self.holds: dict[str, list[tuple[str, Fraction]]] = {}
        for h in graph["holdings"]:
            self.held.setdefault(h["corporation"], []).append((h["holder"], Fraction(h["weight_bp"])))
            self.holds.setdefault(h["holder"], []).append((h["corporation"], Fraction(h["weight_bp"])))
        self.quota = {q["corporation"]: resolve_quota(q["quota"], interpretation)
                      for q in graph["quotas"]}
        referenced = set(self.held) | set(self.holds)
        self.ultimate = [e["id"] for e in doc["entities"]
                         if e["id"] in referenced and e["id"] not in self.held]
        self.equity_memo: dict[str, dict[str, Fraction]] = {}

    def tier_games(self, order: list[str]) -> dict[str, tuple[Game, list, list]]:
        """Per corporation, in ``order``: the tier game, its dictators and
        imputations, with dictated blocks voted by their controller."""
        votes_as: dict[str, str] = {}
        tiers = {}
        for corp in order:
            blocks: dict[str, Fraction] = {}
            sources: dict[str, list[str]] = {}
            for holder, w in self.held[corp]:
                voter = votes_as.get(holder, holder)
                blocks[voter] = blocks.get(voter, Fraction(0)) + w
                sources.setdefault(voter, []).append(holder)
            game = Game(list(blocks), list(blocks.values()), self.quota[corp],
                        [self.nationality[v] for v in blocks])
            dictators = [v for v, w in blocks.items() if w >= game.threshold]
            if dictators:
                votes_as[corp] = dictators[0]
            imputations = [{"holder": h, "voted_by": v}
                           for v, hs in sources.items() for h in hs if h != v]
            tiers[corp] = (game, dictators, imputations)
        return tiers

    def is_topological(self, order: list[str]) -> bool:
        position = {corp: i for i, corp in enumerate(order)}
        return len(position) == len(self.held) and set(position) == set(self.held) and all(
            position[h] < position[corp]
            for corp, stakes in self.held.items() for h, _ in stakes if h in self.held)

    def equity(self, target: str) -> dict[str, Fraction]:
        """Path-product share of every entity in ``target``."""
        if target not in self.equity_memo:
            memo = {target: Fraction(1)}

            def reach(node: str) -> Fraction:
                if node not in memo:
                    memo[node] = sum((w / 10_000 * reach(corp) for corp, w in self.holds.get(node, ())),
                                     Fraction(0))
                return memo[node]

            self.equity_memo[target] = {h: reach(h) for h in self.ultimate}
        return self.equity_memo[target]


def check_tier(tier: dict, game: Game, dictators: list, imputations: list, backend: str,
               where: str, problems: list[str]) -> None:
    check_game_json(tier["game"], game, where, problems)
    samples = MC_DEFAULT_SAMPLES if backend == "mc" else None
    normalized = check_power(game, tier["power"], backend, samples, where, problems)
    if dictators:
        expected = (dictators[0], "dictator", [])
    elif normalized:
        best = max(normalized)
        top = [i for i, v in zip(game.ids, normalized) if v == best]
        expected = (top[0], "effective", []) if len(top) == 1 else (None, None, top)
    else:
        return
    got = (tier["controller"], tier["controller_kind"], tier["joint_controllers"])
    if got != expected:
        problems.append(f"{where}: controller {got} != {expected}")
    if tier["imputations"] != imputations:
        problems.append(f"{where}: imputations differ")


def check_chain(op, outputs: list) -> Verdict:
    verdict = Verdict()
    doc = json.loads(op.text)
    chain = Chain(doc, op.interpretation)
    tiers = None
    shares: dict[str, dict[str, Fraction]] = {}
    for i, (analysis, out) in enumerate(zip(doc["analyses"], outputs)):
        if isinstance(out, BaseException):
            verdict.errors.append(classify_error(out, op.expected_errors.get(i, ())))
            continue
        where = f"{op.name} analysis {i} ({analysis['analysis']})"
        verdict.checks += 1
        problems: list[str] = []
        kind = analysis["analysis"]
        if kind == "discrete":
            order = [t["corporation"] for t in out["tiers"]]
            if chain.is_topological(order):
                tiers = chain.tier_games(order)
                for tier in out["tiers"]:
                    check_tier(tier, *tiers[tier["corporation"]], op.backend,
                               f"{where} tier {tier['corporation']}", problems)
            else:
                problems.append(f"{where}: tiers are not in a topological order")
        elif kind == "compare":
            target = analysis["target"]
            if tiers is None:
                tiers = chain.tier_games(topological(chain))
            check_tier(out["discrete_tier"], *tiers[target], op.backend, where, problems)
            equity = chain.equity(target)
            holders = sorted(((s, h) for h, s in equity.items() if s > 0),
                             key=lambda item: (-item[0], item[1]))
            flat = Game([h for _, h in holders], [s * 10_000 for s, _ in holders],
                        chain.quota[target])
            if sum(flat.weights, Fraction(0)) > 10_000:
                problems.append(f"{where}: grandfather shares sum above 1")
            check_game_json(out["grandfather_game"], flat, where, problems)
            samples = MC_DEFAULT_SAMPLES if op.backend == "mc" else None
            normalized = check_power(flat, out["grandfather_power"], op.backend, samples,
                                     where, problems)
            tiered = {e["id"]: frac(e["normalized"]) for e in out["discrete_tier"]["power"]["players"]}
            if out["diverges"] != (dict(zip(flat.ids, normalized)) != tiered):
                problems.append(f"{where}: divergence flag")
        elif kind == "grandfather":
            holder, target = analysis["holder"], analysis["target"]
            share = frac(out["share"])
            shares.setdefault(target, {})[holder] = share
            if share != chain.equity(target)[holder] or out["share_pct"] != pct(share):
                problems.append(f"{where}: share differs from the path product")
        verdict.record(problems, op.expected_errors.get(i, ()))
    for target, by_holder in shares.items():
        if sum(by_holder.values(), Fraction(0)) > 1:
            verdict.problems.append(f"{op.name}: grandfather shares into {target} sum above 1")
    return verdict


def topological(chain: Chain) -> list[str]:
    pending = {c: sum(1 for h, _ in stakes if h in chain.held) for c, stakes in chain.held.items()}
    ready = [c for c, k in pending.items() if k == 0]
    order = []
    while ready:
        corp = ready.pop()
        order.append(corp)
        for below, _ in chain.holds.get(corp, ()):
            pending[below] -= 1
            if pending[below] == 0:
                ready.append(below)
    return order


CHECKERS = {"corpus": check_corpus, "meetings": check_meeting, "chains": check_chain}


def corrupt(op, outputs: list) -> list | None:
    """A copy of ``outputs`` with one value a correct checker must reject,
    or None when the op has no value to corrupt."""
    bad = copy.deepcopy(outputs)
    if op.checks:
        # Corpus: change the first leaf the first applicable frozen check reads.
        for index, expect in applicable_checks(op):
            node, parent, key = expect, bad, index
            while isinstance(node, (dict, list)) and node:
                parent = parent[key]
                key = next(iter(node)) if isinstance(node, dict) else 0
                node = node[key]
            if isinstance(parent, (dict, list)):
                parent[key] = ["corrupted", parent[key]]
                return bad
        return None
    for index, out in enumerate(bad):
        if "wrong_output" in op.expected_errors.get(index, ()):
            continue
        stack = [out] if isinstance(out, dict) else []
        while stack:
            node = stack.pop(0)
            if "normalized" in node:
                value = node["normalized"]
                value["num"] += value["den"]
                return bad
            stack.extend(v for v in node.values() if isinstance(v, dict))
            stack.extend(x for v in node.values() if isinstance(v, list) for x in v
                         if isinstance(x, dict))
    return None
