"""Value semantics of the public classes: ``repr``, equality and hashing,
immutability, pickling, typed errors for bad arguments, and the one
constructor that builds every record by position, by name or with defaults.

The ``repr`` strings are frozen from the ``dataclasses``-generated classes
these replaced, so a script that parsed or logged them reads the same text.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from votepower import (
    Coalition,
    ControlClassification,
    ControlTestVerdict,
    Entity,
    Holding,
    MethodComparison,
    Nationality,
    NationalityKind,
    NationalityVerdict,
    OwnershipGraph,
    Player,
    PlayerPower,
    PowerReport,
    Quota,
    SeatAllocation,
    Status,
    TierVerdict,
    ValidationError,
    VotingGame,
    Weight,
    allocate_board_seats,
    board_power,
    control_test,
    make_game,
    make_graph,
    power_report,
    swing_estimate_mc,
)
from votepower.core import _Value
from votepower.corpus import CheckOutcome, CorpusReport
from votepower.ownership import ControllerKind, Imputation
from votepower.report import AnalysisResult
from votepower.scenario import Scenario

DOM = "Nationality(kind=<NationalityKind.DOMESTIC: 'domestic'>, country='PH')"
FGN = "Nationality(kind=<NationalityKind.FOREIGN: 'foreign'>, country=None)"
ALPHA = f"Player(id='A', name='Alpha', nationality={DOM}, weight=Weight(bp=Fraction(6000, 1)))"
BETA = f"Player(id='B', name='Beta', nationality={FGN}, weight=Weight(bp=Fraction(4000, 1)))"
GAME = (f"VotingGame(quota=Quota(threshold=Fraction(2, 3)), players=({ALPHA}, {BETA}), "
        "total_weight=Weight(bp=Fraction(10000, 1)))")
POWER = ("PlayerPower(player_id='A', beta=1, normalized=Fraction(1, 1), absolute=Fraction(1, 2), "
         "statuses=frozenset({<Status.VETO: 'veto'>}), half_width=None)")
REPORT = f"PowerReport(entries=({POWER},), total_swings=1, backend='enum', samples=None, seed=None)"
IMPUTATION = "Imputation(holder='B', voted_by='A')"
TIER = (f"TierVerdict(corporation='C', game={GAME}, report={REPORT}, controller='A', "
        f"controller_kind=<ControllerKind.DICTATOR: 'dictator'>, joint_controllers=(), "
        f"imputations=({IMPUTATION},))")
HOLDING = "Holding(holder='A', corporation='C', weight=Weight(bp=Fraction(6000, 1)))"


def _samples():
    """Per class: its constructor keywords, a second set that differs, and
    the repr of the first."""
    dom = Nationality(kind=NationalityKind.DOMESTIC, country="PH")
    fgn = Nationality(kind=NationalityKind.FOREIGN)
    quota = Quota(threshold=Fraction(2, 3))
    alpha = Player(id="A", name="Alpha", nationality=dom, weight=Weight(bp=Fraction(6000)))
    beta = Player(id="B", name="Beta", nationality=fgn, weight=Weight(bp=Fraction(4000)))
    game = VotingGame(quota=quota, players=(alpha, beta))
    power = dict(player_id="A", beta=1, normalized=Fraction(1), absolute=Fraction(1, 2),
                 statuses=frozenset({Status.VETO}), half_width=None)
    report = dict(entries=(PlayerPower(**power),), total_swings=1, backend="enum",
                  samples=None, seed=None)
    imputation = dict(holder="B", voted_by="A")
    tier = dict(corporation="C", game=game, report=PowerReport(**report), controller="A",
                controller_kind=ControllerKind.DICTATOR, joint_controllers=(),
                imputations=(Imputation(**imputation),))
    entity = dict(id="C", name="Corp", nationality=dom)
    holding = dict(holder="A", corporation="C", weight=Weight(bp=Fraction(6000)))
    graph = dict(entities=(Entity(id="A", name="Alpha", nationality=dom), Entity(**entity)),
                 holdings=(Holding(**holding),), quotas=(("C", quota),))
    comparison = dict(target="C", grandfather_game=game, grandfather_report=PowerReport(**report),
                      tier=TierVerdict(**tier), diverges=False)
    verdict = dict(target="C", control_test=ControlTestVerdict.NATIONAL,
                   grandfather_domestic_share=Fraction(3, 5), grandfather=ControlTestVerdict.FOREIGN,
                   foreign_power=(("B", ControlClassification.NO_CONTROL),), tier=TierVerdict(**tier))
    document = {"schema_version": 1, "entities": [], "games": [], "graphs": [],
                "analyses": [{"analysis": "discrete", "graph": "G"}]}
    return [
        (Nationality, dict(kind=NationalityKind.DOMESTIC, country="PH"),
         dict(kind=NationalityKind.DOMESTIC, country="US"), DOM),
        (Weight, dict(bp=Fraction(6663, 2)), dict(bp=Fraction(6663)),
         "Weight(bp=Fraction(6663, 2))"),
        (Quota, dict(threshold=Fraction(2, 3)), dict(threshold=Fraction(3, 4)),
         "Quota(threshold=Fraction(2, 3))"),
        (Player, dict(id="A", name="Alpha", nationality=dom, weight=Weight(bp=Fraction(6000))),
         dict(id="A", name="Alpha", nationality=fgn, weight=Weight(bp=Fraction(6000))), ALPHA),
        (VotingGame, dict(quota=quota, players=(alpha, beta)),
         dict(quota=quota, players=(beta, alpha)), GAME),
        (Coalition, dict(mask=3), dict(mask=1), "Coalition(mask=3)"),
        (Entity, entity, {**entity, "name": "Other"}, f"Entity(id='C', name='Corp', nationality={DOM})"),
        (Holding, holding, {**holding, "holder": "B"}, HOLDING),
        (OwnershipGraph, graph, {**graph, "quotas": (("C", Quota(threshold=Fraction(3, 4))),)},
         f"OwnershipGraph(entities=(Entity(id='A', name='Alpha', nationality={DOM}), "
         f"Entity(id='C', name='Corp', nationality={DOM})), holdings=({HOLDING},), "
         "quotas=(('C', Quota(threshold=Fraction(2, 3))),))"),
        (Imputation, imputation, {**imputation, "voted_by": "C"}, IMPUTATION),
        (PlayerPower, power, {**power, "half_width": 0.25}, POWER),
        (PowerReport, report, {**report, "seed": 7}, REPORT),
        (TierVerdict, tier, {**tier, "controller": None}, TIER),
        (MethodComparison, comparison, {**comparison, "diverges": True},
         f"MethodComparison(target='C', grandfather_game={GAME}, grandfather_report={REPORT}, "
         f"tier={TIER}, diverges=False)"),
        (NationalityVerdict, verdict, {**verdict, "grandfather_domestic_share": Fraction(1, 5)},
         "NationalityVerdict(target='C', control_test=<ControlTestVerdict.NATIONAL: 'national'>, "
         "grandfather_domestic_share=Fraction(3, 5), grandfather=<ControlTestVerdict.FOREIGN: "
         "'foreign'>, foreign_power=(('B', <ControlClassification.NO_CONTROL: 'no_control'>),), "
         f"tier={TIER})"),
        (SeatAllocation, dict(seats=(("A", 3), ("B", 2)), board_size=5),
         dict(seats=(("A", 2), ("B", 3)), board_size=5),
         "SeatAllocation(seats=(('A', 3), ('B', 2)), board_size=5)"),
        (Scenario, dict(document=document), dict(document={**document, "analyses": []}),
         "Scenario(document={'schema_version': 1, 'entities': [], 'games': [], 'graphs': [], "
         "'analyses': [{'analysis': 'discrete', 'graph': 'G'}]}, "
         "analyses=({'analysis': 'discrete', 'graph': 'G'},))"),
    ]


SAMPLES = _samples()


def _two_player_game() -> VotingGame:
    return make_game(Quota.of(2, 3), [Player("A", "A", Nationality.domestic(), Weight(Fraction(3))),
                                      Player("B", "B", Nationality.domestic(), Weight(Fraction(1)))])


@pytest.mark.parametrize("cls, kwargs, other, text", SAMPLES, ids=[s[0].__name__ for s in SAMPLES])
def test_value_semantics(cls, kwargs, other, text):
    value = cls(**kwargs)
    assert repr(value) == text
    twin = cls(**kwargs)
    assert value == twin and not value != twin
    assert value != cls(**other)
    assert value != text  # another class compares unequal, not by fields
    if cls is Scenario:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin)
        assert len({value, twin, cls(**other)}) == 2
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(twin, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
    assert repr(copy.deepcopy(value)) == text


def test_a_game_keeps_its_lowered_form_through_copies():
    # The engine keeps the integer form on the game; it is not a field.
    game = _two_player_game()
    power_report(game)
    assert game._lowered is not None
    for copied in (copy.deepcopy(game), pickle.loads(pickle.dumps(game))):
        assert copied == game and copied._lowered == game._lowered
        assert power_report(copied) == power_report(game)


def test_corpus_report_stays_mutable_and_unhashable():
    report = CorpusReport()
    assert report == CorpusReport(outcomes=[]) and repr(report) == "CorpusReport(outcomes=[])"
    report.outcomes = [None]
    assert report.outcomes == [None]
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Quota.of(1, 0), id="quota-zero-denominator"),
    pytest.param(lambda: Quota.of("1", 2), id="quota-str-numerator"),
    pytest.param(lambda: Quota("abc"), id="quota-str"),
    pytest.param(lambda: Weight("abc"), id="weight-str"),
    pytest.param(lambda: Weight(None), id="weight-none"),
    pytest.param(lambda: Player("A", "A", Nationality.domestic(), 5000), id="player-int-weight"),
    pytest.param(lambda: Nationality("domestic"), id="nationality-str-kind"),
    pytest.param(lambda: swing_estimate_mc(_two_player_game(), 1.5), id="mc-float-samples"),
    pytest.param(lambda: swing_estimate_mc(_two_player_game(), 100, seed=0.5), id="mc-float-seed"),
    pytest.param(lambda: swing_estimate_mc(_two_player_game(), "100"), id="mc-str-samples"),
    pytest.param(lambda: Weight.from_bp(0.1), id="weight-from-bp-float"),
    pytest.param(lambda: Weight.from_bp("abc"), id="weight-from-bp-str"),
    pytest.param(lambda: Weight.from_percent("abc"), id="weight-from-percent-str"),
    pytest.param(lambda: Quota.percent("abc"), id="quota-percent-str"),
    pytest.param(lambda: control_test(_two_player_game(), "abc"), id="control-test-str-threshold"),
    pytest.param(lambda: make_game(0.6, _two_player_game().players), id="make-game-float-quota"),
    pytest.param(lambda: make_game(Quota.of(2, 3), [("A", 5)]), id="make-game-tuple-player"),
    pytest.param(lambda: make_graph([("A", "A", Nationality.domestic())], [], {}),
                 id="make-graph-tuple-entity"),
    pytest.param(lambda: make_graph([Entity("A", "A", Nationality.domestic()),
                                     Entity("C", "C", Nationality.domestic())],
                                    [("A", "C", Weight(5))], {"C": Quota.of(2, 3)}),
                 id="make-graph-tuple-holding"),
    pytest.param(lambda: board_power(_two_player_game(), allocate_board_seats(_two_player_game(), 2),
                                     0.6), id="board-power-float-quota"),
    pytest.param(lambda: allocate_board_seats(_two_player_game(), 2.5), id="board-float-size"),
    pytest.param(lambda: SeatAllocation((("A", 1.5),), 1.5), id="seat-allocation-float-seats"),
    pytest.param(lambda: SeatAllocation((("A", -1), ("B", 3)), 2), id="seat-allocation-negative-seats"),
])
def test_bad_constructor_arguments_raise_validation_errors(build):
    with pytest.raises(ValidationError):
        build()



RECORDS = sorted((cls for cls in _Value.__subclasses__() if "__init__" not in vars(cls)),
                 key=lambda cls: cls.__name__)


def test_the_records_that_only_store_their_fields_have_no_init_of_their_own():
    assert set(RECORDS) == {Entity, Holding, Imputation, TierVerdict, MethodComparison,
                            NationalityVerdict, PlayerPower, PowerReport, AnalysisResult,
                            CheckOutcome}


def _field_values(cls) -> dict:
    return {name: f"{name}-value" for name in cls._fields}


def _assert_built(value, cls, fields: dict) -> None:
    # Every field, defaults too, sits in the instance so that pickle and
    # deepcopy carry it.
    assert vars(value) == fields
    assert value == cls(**fields)
    assert pickle.loads(pickle.dumps(value)) == value and vars(copy.deepcopy(value)) == fields


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
def test_a_record_is_built_by_position_by_name_or_both(cls):
    fields = _field_values(cls)
    values = list(fields.values())
    _assert_built(cls(*values), cls, fields)
    _assert_built(cls(**dict(reversed(fields.items()))), cls, fields)
    for split in range(1, len(values)):
        _assert_built(cls(*values[:split], **dict(list(fields.items())[split:])), cls, fields)


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
def test_a_left_out_field_takes_its_default(cls):
    defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
    fields = _field_values(cls)
    for name in defaults:
        given = {k: v for k, v in fields.items() if k != name}
        _assert_built(cls(**given), cls, {**fields, name: defaults[name]})
    required = [v for k, v in fields.items() if k not in defaults]
    _assert_built(cls(*required), cls, {**fields, **defaults})


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
def test_a_bad_record_call_raises_a_type_error_naming_the_field(cls):
    fields = _field_values(cls)
    values = list(fields.values())
    first, last = cls._fields[0], cls._fields[-1]
    rest = {k: v for k, v in fields.items() if k != first}
    with pytest.raises(TypeError, match=f"missing field '{first}'"):
        cls(**rest)
    with pytest.raises(TypeError, match="no field 'bogus'"):
        cls(bogus=1, **rest)
    with pytest.raises(TypeError, match=f"field '{first}' twice"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match=f"{len(values)} fields \\(.*{last}\\), got {len(values) + 1}"):
        cls(*values, "extra")
