"""Multi-tier ownership analysis over an acyclic shareholding network.

Two ways to unravel a chain of corporate layers:

* the grandfather product, which imputes fractional indirect equity by
  multiplying stake percentages along every path, and
* discrete propagation, which resolves each tier in sequence: whoever
  dictates a corporation's stockholder meeting votes that corporation's
  entire block one tier down, undiluted.

The two can disagree about who holds power; ``compare_methods`` puts them
side by side and flags the divergence.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Mapping

from .core import (
    BP_PER_UNIT,
    Nationality,
    NationalityKind,
    Player,
    Quota,
    UnknownPlayerError,
    ValidationError,
    VotingGame,
    Weight,
    _assign,
    _Value,
    make_game,
)
from .engine import PowerReport, Status, power_report
from .equity import (
    ControlClassification,
    ControlTestVerdict,
    _classify,
    control_test,
)


class CycleError(ValidationError):
    """The shareholding network contains a cycle."""


class Entity(_Value):
    """A corporation or ultimate holder appearing in the network."""

    id: str
    name: str
    nationality: Nationality


class Holding(_Value):
    """A directed stake: ``holder`` owns ``weight`` of ``corporation``."""

    holder: str
    corporation: str
    weight: Weight


class OwnershipGraph(_Value):
    """Validated acyclic shareholding network with per-corporation quotas.

    Use :func:`make_graph`. Holdings are expressed in basis points of the
    held corporation's stock; per corporation they may sum to less than
    100% (the remainder is untracked minority residue) but never more, and
    never to 0. Each quota must be a :class:`Quota`.
    """

    entities: tuple[Entity, ...]
    holdings: tuple[Holding, ...]
    quotas: tuple[tuple[str, Quota], ...]

    def __init__(self, entities: tuple[Entity, ...], holdings: tuple[Holding, ...],
                 quotas: tuple[tuple[str, Quota], ...]) -> None:
        by_id: dict[str, Entity] = {}
        for entity in entities:
            if not isinstance(entity, Entity):
                raise ValidationError(f"entities must be Entity values, got {entity!r}")
            if entity.id in by_id:
                raise ValidationError(f"duplicate entity id {entity.id!r}")
            by_id[entity.id] = entity
        held: dict[str, list[Holding]] = {}
        holds: dict[str, list[Holding]] = {}
        seen_edges: set[tuple[str, str]] = set()
        for holding in holdings:
            if not isinstance(holding, Holding):
                raise ValidationError(f"holdings must be Holding values, got {holding!r}")
            for endpoint in (holding.holder, holding.corporation):
                if endpoint not in by_id:
                    raise ValidationError(f"holding references unknown entity {endpoint!r}")
            edge = (holding.holder, holding.corporation)
            if edge in seen_edges:
                raise ValidationError(f"duplicate holding {holding.holder!r} -> {holding.corporation!r}")
            seen_edges.add(edge)
            held.setdefault(holding.corporation, []).append(holding)
            holds.setdefault(holding.holder, []).append(holding)
        for corp, incoming in held.items():
            total = sum((h.weight.bp for h in incoming), Fraction(0))
            # A corporation whose stock carries no votes has no game to play.
            if not total:
                raise ValidationError(f"holdings in {corp!r} sum to 0 bp")
            if total > BP_PER_UNIT:
                raise ValidationError(
                    f"holdings in {corp!r} sum to {total} bp, above the full stock"
                )
        quota_map = dict(quotas)
        for corp in held:
            if corp not in quota_map:
                raise ValidationError(f"no quota recorded for corporation {corp!r}")
        for corp, quota in quota_map.items():
            if corp not in held:
                raise ValidationError(f"quota given for {corp!r}, which has no stockholders")
            if not isinstance(quota, Quota):
                raise ValidationError(f"quota for {corp!r} must be a Quota, got {quota!r}")
        _assign(self, "entities", entities)
        _assign(self, "holdings", holdings)
        _assign(self, "quotas", quotas)
        _assign(self, "_by_id", by_id)
        _assign(self, "_held", held)
        _assign(self, "_quota_map", quota_map)
        _assign(self, "_topo", _topological_order(held, holds))
        _assign(self, "_tiers", {})

    def entity(self, entity_id: str) -> Entity:
        try:
            return self._by_id[entity_id]
        except KeyError:
            raise UnknownPlayerError(f"no entity with id {entity_id!r}") from None

    def corporations(self) -> tuple[str, ...]:
        """Corporation ids in top-down order: holders before what they hold."""
        return self._topo

    def ultimate_holders(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.entities if e.id not in self._held)

    def quota(self, corporation: str) -> Quota:
        try:
            return self._quota_map[corporation]
        except KeyError:
            raise ValidationError(f"{corporation!r} has no stockholders on record") from None

    def holdings_in(self, corporation: str) -> tuple[Holding, ...]:
        return tuple(self._held.get(corporation, ()))


def _topological_order(
    held: Mapping[str, list[Holding]],
    holds: Mapping[str, list[Holding]],
) -> tuple[str, ...]:
    # Kahn's algorithm over corporations; a corporation waits for every
    # corporation that holds a stake in it. Ready sets are sorted so the
    # order is deterministic, though any valid order yields the same verdicts.
    pending = {
        corp: sum(1 for h in incoming if h.holder in held)
        for corp, incoming in held.items()
    }
    ready = sorted(corp for corp, n in pending.items() if n == 0)
    order: list[str] = []
    while ready:
        corp = ready.pop(0)
        order.append(corp)
        for holding in holds.get(corp, ()):
            below = holding.corporation
            pending[below] -= 1
            if pending[below] == 0:
                ready.append(below)
                ready.sort()
    if len(order) != len(held):
        raise CycleError("ownership chain contains a cycle")
    return tuple(order)


def make_graph(
    entities: Iterable[Entity],
    holdings: Iterable[Holding],
    quotas: Mapping[str, Quota],
) -> OwnershipGraph:
    """Build a validated ownership graph."""
    return OwnershipGraph(
        entities=tuple(entities),
        holdings=tuple(holdings),
        quotas=tuple(sorted(quotas.items())),
    )


def _grandfather_shares(graph: OwnershipGraph, target: str) -> dict[str, Fraction]:
    # Walking the top-down order backwards, a corporation comes after every
    # corporation it holds, so its share is final when it reaches its holders.
    shares = {target: Fraction(1)}
    for corporation in reversed(graph.corporations()):
        share = shares.get(corporation)
        if share:
            for holding in graph.holdings_in(corporation):
                pushed = holding.weight.bp / BP_PER_UNIT * share
                shares[holding.holder] = shares.get(holding.holder, 0) + pushed
    return shares


def grandfather_equity(graph: OwnershipGraph, holder: str, target: str) -> Fraction:
    """Fractional indirect equity: the path-product sum of stakes.

    A 60% stake in a company holding 30% of the target contributes
    0.6 * 0.3 = 18%. Direct holdings add in as one-edge paths; an
    unreachable target contributes zero.
    """
    graph.entity(holder)
    graph.entity(target)
    return _grandfather_shares(graph, target).get(holder, Fraction(0))


class ControllerKind(enum.Enum):
    DICTATOR = "dictator"
    EFFECTIVE = "effective"


class Imputation(_Value):
    """A block voted upstream: ``holder``'s stake is cast by ``voted_by``."""

    holder: str
    voted_by: str


class TierVerdict(_Value):
    """Outcome of one corporation's stockholder meeting within the chain."""

    corporation: str
    game: VotingGame
    report: PowerReport
    controller: str | None
    controller_kind: ControllerKind | None
    joint_controllers: tuple[str, ...]
    imputations: tuple[Imputation, ...]


def _tier_game(
    graph: OwnershipGraph,
    corporation: str,
    votes_as: Mapping[str, str],
) -> tuple[VotingGame, tuple[Imputation, ...]]:
    blocks: dict[str, Fraction] = {}
    sources: dict[str, list[str]] = {}
    for holding in graph.holdings_in(corporation):
        voter = votes_as.get(holding.holder, holding.holder)
        blocks[voter] = blocks.get(voter, Fraction(0)) + holding.weight.bp
        sources.setdefault(voter, []).append(holding.holder)
    players = []
    imputations = []
    for voter, bp in blocks.items():
        entity = graph.entity(voter)
        holders = sources[voter]
        if holders == [voter]:
            name = entity.name
        else:
            held_names = " + ".join(graph.entity(h).name for h in holders)
            name = f"{held_names} (as {entity.name})"
        imputations.extend(Imputation(h, voter) for h in holders if h != voter)
        players.append(Player(voter, name, entity.nationality, Weight(bp)))
    return make_game(graph.quota(corporation), players), tuple(imputations)


def _judge(graph: OwnershipGraph, corporation: str, votes_as: dict[str, str],
           backend: str) -> TierVerdict:
    """Play one corporation's meeting once every corporation above it has
    been judged; a dictator's block is voted by it from here on."""
    game, imputations = _tier_game(graph, corporation, votes_as)
    report = power_report(game, backend)
    controller: str | None = None
    kind: ControllerKind | None = None
    joint: tuple[str, ...] = ()
    dictators = [e.player_id for e in report.entries if Status.DICTATOR in e.statuses]
    if dictators:
        controller = dictators[0]
        kind = ControllerKind.DICTATOR
        votes_as[corporation] = controller
    else:
        best = max(report.normalized_vector())
        top = [e.player_id for e in report.entries if e.normalized == best]
        if len(top) == 1:
            controller = top[0]
            kind = ControllerKind.EFFECTIVE
        else:
            joint = tuple(top)
    return TierVerdict(
        corporation=corporation,
        game=game,
        report=report,
        controller=controller,
        controller_kind=kind,
        joint_controllers=joint,
        imputations=imputations,
    )


def _resolve(graph: OwnershipGraph, targets: Iterable[str], backend: str) -> dict[str, TierVerdict]:
    """The backend's verdicts on the graph, once ``targets`` and every
    corporation above them are judged.

    A verdict reads only the verdicts above it, through the blocks their
    dictators vote, so the corporations not yet judged are judged in the
    top-down order and each at most once. Every judged corporation has all
    of its upstream judged too, so the upward walk stops at one.
    """
    verdicts, votes_as = graph._tiers.setdefault(backend, ({}, {}))
    missing = {t for t in targets if t not in verdicts}
    stack = list(missing)
    while stack:
        for holding in graph.holdings_in(stack.pop()):
            holder = holding.holder
            if holder in graph._held and holder not in verdicts and holder not in missing:
                missing.add(holder)
                stack.append(holder)
    for corporation in graph.corporations():
        if corporation in missing:
            verdicts[corporation] = _judge(graph, corporation, votes_as, backend)
    return verdicts


def discrete_propagate(graph: OwnershipGraph, *, backend: str = "enum") -> tuple[TierVerdict, ...]:
    """Resolve every tier top-down with full-block imputation.

    At each corporation the direct holders play a voting game. When an
    upper tier produced a dictator, the dictated corporation's block one
    tier down is voted by that controller (transitively resolved); blocks
    that resolve to the same controller vote as one. Tiers without a
    dictator impute nothing: the intermediate corporation votes its own
    block, and any power tie is recorded as joint control. The verdicts
    are kept on the graph per backend and corporation, shared with
    :func:`tier_verdict`, so only the tiers it has not yet judged are
    played, and every call returns the same verdict objects, top down.
    """
    verdicts = _resolve(graph, graph.corporations(), backend)
    return tuple(verdicts[c] for c in graph.corporations())


def tier_verdict(graph: OwnershipGraph, corporation: str, *, backend: str = "enum") -> TierVerdict:
    """The discrete-propagation verdict for one corporation.

    Only the corporation and the corporations above it are judged, each once
    per graph and backend; the verdicts are those of
    :func:`discrete_propagate`, the same objects whichever runs first.
    """
    graph.quota(corporation)  # raises for a corporation with no stockholders
    return _resolve(graph, (corporation,), backend)[corporation]


class MethodComparison(_Value):
    """Grandfathered hypothetical game vs the discrete tier verdict."""

    target: str
    grandfather_game: VotingGame
    grandfather_report: PowerReport
    tier: TierVerdict
    diverges: bool


def compare_methods(graph: OwnershipGraph, target: str, *, backend: str = "enum") -> MethodComparison:
    """Put the two chain-unraveling methods side by side for one target.

    The grandfathered game seats every ultimate holder with their fractional
    path-product equity as a direct player; the discrete side is the target's
    tier verdict, for which only the target and the corporations above it
    are judged. The divergence flag is set when the two normalized power
    assignments differ for any entity.
    """
    tier = tier_verdict(graph, target, backend=backend)
    shares = _grandfather_shares(graph, target)
    holders = sorted(
        (holder for holder in graph.ultimate_holders() if shares.get(holder, 0) > 0),
        key=lambda holder: (-shares[holder], holder),
    )
    players = [
        Player(holder, graph.entity(holder).name, graph.entity(holder).nationality,
               Weight(shares[holder] * BP_PER_UNIT))
        for holder in holders
    ]
    grandfather_game = make_game(graph.quota(target), players)
    grandfather_report = power_report(grandfather_game, backend)
    flat = {e.player_id: e.normalized for e in grandfather_report.entries}
    tiered = {e.player_id: e.normalized for e in tier.report.entries}
    return MethodComparison(
        target=target,
        grandfather_game=grandfather_game,
        grandfather_report=grandfather_report,
        tier=tier,
        diverges=flat != tiered,
    )


class NationalityVerdict(_Value):
    """Three readings of a target corporation's nationality."""

    target: str
    control_test: ControlTestVerdict
    grandfather_domestic_share: Fraction
    grandfather: ControlTestVerdict
    foreign_power: tuple[tuple[str, ControlClassification], ...]
    tier: TierVerdict


def direct_game(graph: OwnershipGraph, corporation: str) -> VotingGame:
    """The target's stockholder meeting with every direct holder as itself."""
    return _tier_game(graph, corporation, {})[0]


def nationality_verdict(
    graph: OwnershipGraph,
    target: str,
    domestic_threshold: Fraction,
    *,
    backend: str = "enum",
) -> NationalityVerdict:
    """Flat Control Test, grandfathered equity and discrete power, together.

    The Control Test reads each direct holder's registered nationality at
    face value. The grandfather verdict compares the domestic share of the
    path-product equity against the same threshold. The power verdict reads
    the target's tier verdict and classifies each foreign ultimate holder by
    the control they end up with at the target tier (holders whose stake was
    absorbed by an upstream controller have no control). A target tier with
    no domestic voter judges the foreign voters against a domestic power of
    0, so a foreign holder that meets the quota alone is its dictator.
    """
    test = control_test(direct_game(graph, target), domestic_threshold)
    shares = _grandfather_shares(graph, target)
    domestic_share = Fraction(0)
    for holder in graph.ultimate_holders():
        if graph.entity(holder).nationality.kind is NationalityKind.DOMESTIC:
            domestic_share += shares.get(holder, 0)
    grandfather = (
        ControlTestVerdict.NATIONAL
        if domestic_share >= Fraction(domestic_threshold)
        else ControlTestVerdict.FOREIGN
    )
    tier = tier_verdict(graph, target, backend=backend)
    foreign_ids = [
        holder for holder in graph.ultimate_holders()
        if graph.entity(holder).nationality.kind is NationalityKind.FOREIGN
    ]
    classifications = _classify(tier.game, tier.report)
    foreign_power = tuple(
        (holder, classifications.get(holder, ControlClassification.NO_CONTROL))
        for holder in foreign_ids
    )
    return NationalityVerdict(
        target=target,
        control_test=test,
        grandfather_domestic_share=domestic_share,
        grandfather=grandfather,
        foreign_power=foreign_power,
        tier=tier,
    )
