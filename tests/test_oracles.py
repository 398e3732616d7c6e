"""Small runs of each verification suite. The acceptance tests rerun
these at full scale; here the point is that each suite is wired up,
passes on its own construction, and reports honestly: the integer-grid
suites give the reports of their Fraction versions in
fraction_reference, and a planted fault shows up as its named failure."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

import fraction_reference as ref
from paritybet import blocktest, builder, cli, decompose, oracles
from paritybet.errors import PreconditionError
from paritybet.oracles import (
    OracleReport,
    all_in_growth_fixture,
    floor_parity_grid,
    growth_random,
    minimality_grid,
    two_round_grid,
    two_round_random,
)
from paritybet.serialize import dumps, to_jsonable
from paritybet.strategy import StrategyTable


def test_two_round_random_small():
    rep = two_round_random(random.Random(3), 300)
    assert rep.passed and rep.total == 300


def test_two_round_grid_coarse():
    rep = two_round_grid(den=4)
    assert rep.passed
    assert rep.total > 1000  # exhaustive even at the coarse step


def test_minimality_grid_coarse():
    rep = minimality_grid(den=2, max_value=2)
    assert rep.passed
    # the dominating class genuinely violates pointwise minimality;
    # a clean count would mean the restricted claim was vacuous
    assert rep.stats["dominating_pointwise_violations"] > 0


def test_growth_random_small():
    rep = growth_random(random.Random(5), 60)
    assert rep.passed and rep.total == 60
    assert rep.stats["skipped_unrepresentable_p"] < 60


def test_all_in_growth_fixture_is_tight():
    rep = all_in_growth_fixture()
    assert rep.passed
    rise = Fraction(rep.stats["rise"])
    bound = Fraction(rep.stats["bound"])
    assert 0 < rise <= bound <= 2 * rise


def test_floor_parity_grid_coarse():
    rep = floor_parity_grid(den=2, max_value=1)
    assert rep.passed and rep.total > 100


def test_draw_refuses_an_empty_interval():
    with pytest.raises(PreconditionError, match="empty interval"):
        oracles._draw(random.Random(0), 5, 4)


def test_report_failure_cap():
    rep = OracleReport("cap")
    for i in range(40):
        rep.fail(i=i)
    assert len(rep.failures) == 32
    assert rep.stats["failures_truncated"] is True
    assert not rep.passed
    payload = to_jsonable(rep)
    assert payload["passed"] is False and payload["name"] == "cap"


# the integer-grid suites against the Fraction suites they replaced, at
# every size whose reference run takes under about a second; left out:
# floor-parity at den * max_value > 4 (3 to 13 s) and minimality at
# (4, 3) (2 s)
_SMALL = [(d, v) for d in range(1, 5) for v in range(1, 4)]


def _same_report(new, old):
    assert dumps(new) == dumps(old)


@pytest.mark.parametrize("den,max_value", [s for s in _SMALL if s[0] * s[1] <= 4])
def test_floor_parity_grid_matches_the_fraction_reference(den, max_value):
    _same_report(floor_parity_grid(den, max_value), ref.floor_parity_grid(den, max_value))


@pytest.mark.parametrize("den,max_value", [s for s in _SMALL if s != (4, 3)])
def test_minimality_grid_matches_the_fraction_reference(den, max_value):
    _same_report(minimality_grid(den, max_value), ref.minimality_grid(den, max_value))


@pytest.mark.parametrize("seed", range(10))
def test_two_round_random_matches_the_fraction_reference(seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    _same_report(two_round_random(rng, 300), ref.two_round_random(ref_rng, 300))
    assert rng.random() == ref_rng.random()  # no draw dropped or added


def test_rand_frac_draws_what_the_fraction_sampler_drew():
    rng, ref_rng = random.Random(11), random.Random(11)
    for lo, hi in [(Fraction(1, 4), Fraction(4)), (Fraction(-1), Fraction(1)),
                   (Fraction(1, 8), Fraction(1)), (Fraction(0), Fraction(0))] * 50:
        assert oracles._rand_frac(rng, lo, hi) == ref._rand_frac(ref_rng, lo, hi)
    assert rng.random() == ref_rng.random()


# planted faults: each suite must report the named kind, with the same
# failure list as its Fraction reference; the fake replaces the function
# where the suites bind it and in its own module, where the reference
# reads it


def _plant(monkeypatch, module, name, fake):
    monkeypatch.setattr(oracles, name, fake)
    monkeypatch.setattr(module, name, fake)


def _mapped(table, f):
    """The table with each value v at state s replaced by f(s, v)."""
    vals = {s: f(s, v) for s, v in table.values.items()}
    return StrategyTable(table.depth, vals, table.kind, table.parity, table.sided)


_FREE_LEAVES = ("01", "11")


def _kinds(report):
    return {f["kind"] for f in report.failures}


_REAL_FLOOR = builder.floor
_FLOOR_FAULTS = {
    "invalid-floor": lambda m, *args: m,
    "not-below": lambda m, *args: _mapped(_REAL_FLOOR(m, *args), lambda s, v: 2 * v),
    "root-not-maximal": lambda m, *args: _mapped(
        _REAL_FLOOR(m, *args), lambda s, v: v / 2
    ),
}


@pytest.mark.parametrize("kind", list(_FLOOR_FAULTS))
def test_floor_parity_grid_reports_a_planted_fault(monkeypatch, capsys, kind):
    _plant(monkeypatch, builder, "floor", _FLOOR_FAULTS[kind])
    new, old = floor_parity_grid(2, 1), ref.floor_parity_grid(2, 1)
    assert _kinds(new) == {kind}
    _same_report(new, old)
    assert cli.main(["verify", "--lemma", "floor-parity"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    assert {f["kind"] for f in payload["reports"][0]["failures"]} == {kind}


_REAL_BASE = decompose.min_block_martingale
_BASE_FAULTS = {
    # the free leaves one grid step high: the base root does not fund them
    "equality-minimality": lambda s, v: v + Fraction(1, 2) if s in _FREE_LEAVES else v,
    # every value a quarter step high: the root is off the half-unit grid
    # and the sweep starts just below it
    "sound-subset": lambda s, v: v + Fraction(1, 8),
    # a root too low to fund the larger target
    "grid-bug": lambda s, v: v / 2,
    # free leaves at zero, which no dominating competitor can dip below
    "missing-counterexample": lambda s, v: 0 if s in _FREE_LEAVES else v,
}


@pytest.mark.parametrize("kind", list(_BASE_FAULTS))
def test_minimality_grid_reports_a_planted_fault(monkeypatch, kind):
    fault = _BASE_FAULTS[kind]
    _plant(monkeypatch, decompose, "min_block_martingale",
           lambda a, b: _mapped(_REAL_BASE(a, b), fault))
    new = minimality_grid(2, 2)
    assert kind in _kinds(new), _kinds(new)
    _same_report(new, ref.minimality_grid(2, 2))


_REAL_BLOCK = blocktest.verify_block_inequality


@pytest.mark.parametrize("kind,field", [
    ("conclusion", "conclusion_ok"), ("hypotheses", "hypotheses_ok"),
])
def test_two_round_random_reports_a_planted_fault(monkeypatch, kind, field):
    def fake(*args):
        return dataclasses.replace(_REAL_BLOCK(*args), **{field: False})

    _plant(monkeypatch, blocktest, "verify_block_inequality", fake)
    rng, ref_rng = random.Random(4), random.Random(4)
    new = two_round_random(rng, 40)
    assert _kinds(new) == {kind} and new.stats["failures_truncated"]
    _same_report(new, ref.two_round_random(ref_rng, 40))
    # the grid replays every 4,999th of its 10,668 points through the checker
    assert _kinds(two_round_grid(den=6)) == {"replay-disagreement"}


_REAL_GROWTH = builder.check_growth_bound
# fault -> (the verdict's fields it changes, the kinds growth_random and
# all_in_growth_fixture then report)
_GROWTH_FAULTS = {
    "hypothesis": (lambda v: {"hypothesis_holds": False},
                   {"hypothesis-derivation"}, {"hypothesis"}),
    "conclusion": (lambda v: {"conclusion_holds": False}, {"conclusion"}, {"conclusion"}),
    # a bound over twice the rise, which the fixture comes within
    "loose-bound": (lambda v: {"bound": 4 * v.bound}, set(), {"not-tight"}),
}


@pytest.mark.parametrize("fault", list(_GROWTH_FAULTS))
def test_growth_suites_report_a_planted_fault(monkeypatch, capsys, fault):
    change, random_kinds, fixture_kinds = _GROWTH_FAULTS[fault]

    def fake(*args, **kwargs):
        verdict = _REAL_GROWTH(*args, **kwargs)
        return dataclasses.replace(verdict, **change(verdict))

    monkeypatch.setattr(oracles, "check_growth_bound", fake)
    assert _kinds(growth_random(random.Random(5), 60)) == random_kinds
    assert _kinds(all_in_growth_fixture()) == fixture_kinds
    assert cli.main(["verify", "--lemma", "growth", "--n", "60"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    kinds = [{f["kind"] for f in r["failures"]} for r in payload["reports"]]
    assert kinds == [random_kinds, fixture_kinds]
