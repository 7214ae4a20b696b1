"""The contract of the stabilizing colon chain of ratliff_rush_module.

The Ratliff-Rush closure of I = (X^4, X^3*Y, X*Y^3, Y^4) is reached from
both of the embeddings a caller can hold -- the ideal wrapped as a rank-1
module (ModuleEmbedding(I), as the library and the corpus do)
and a one-row generator matrix (from_matrix, as a problem file does) --
and both keep one rule: the value is the chain's last change, confirmed
by `window` equal steps; a change after step `l_max` raises
UnstableChainError carrying the new value and the colengths of the
chain's values; an expired deadline raises DeadlineExceeded.
"""

import sys

import pytest

from reescalc import (ClosureOptions, DeadlineExceeded, ModuleEmbedding,
                      RingContext, SubmoduleData, UnstableChainError, closures,
                      groebner, groebner_basis, integral_closure_module,
                      parse_poly, ratliff_rush_module)
from reescalc.fixtures import indecomposable_presentation

CTX = RingContext(characteristic=0, base_vars=("X", "Y"))


def _ideal(*gens):
    return SubmoduleData.ideal(CTX, [parse_poly(g, CTX) for g in gens])


I = _ideal("X^4", "X^3*Y", "X*Y^3", "Y^4")
M4 = groebner_basis(_ideal("X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4"))


def _ideal_route(opts):
    return ratliff_rush_module(ModuleEmbedding(I), 1, opts)


def _module_route(opts):
    row = [g[0] for g in I.gens]
    return ratliff_rush_module(ModuleEmbedding.from_matrix(CTX, [row]), 1,
                               opts)


ROUTES = [_ideal_route, _module_route]


@pytest.mark.parametrize("route", ROUTES)
def test_default_options_give_m4_after_one_change(route):
    res = route(ClosureOptions())
    assert res.submodule.gens == M4.gens
    assert res.stabilization_index == 1
    assert res.window == 2


@pytest.mark.parametrize("route", ROUTES)
def test_change_after_l_max_raises_with_new_value(route):
    with pytest.raises(UnstableChainError) as info:
        route(ClosureOptions(l_max=0))
    assert info.value.last_value.gens == M4.gens


@pytest.mark.parametrize("route", ROUTES)
def test_unstable_chain_carries_its_colengths(route):
    # value_0 = I and value_1 = m^4: l(A/m^4) = 10, and I misses only
    # X^2*Y^2 from m^4
    with pytest.raises(UnstableChainError) as info:
        route(ClosureOptions(l_max=0))
    assert info.value.colengths == (11, 10)
    assert str(info.value).endswith("colengths 11, 10")


@pytest.mark.parametrize("route", ROUTES)
def test_expired_deadline_raises(route):
    with pytest.raises(DeadlineExceeded):
        route(ClosureOptions(deadline_seconds=1e-9))


def test_a_nested_deadline_ends_no_later_and_exit_restores_the_outer():
    # The chain's own 60-second scope does not outlast the expired scope
    # around it, and leaving that scope, here by the exception, restores
    # the one before it, where the same call completes.
    with pytest.raises(DeadlineExceeded):
        with ClosureOptions(deadline_seconds=1e-9).deadline():
            _ideal_route(ClosureOptions(deadline_seconds=60))
    assert _ideal_route(ClosureOptions(deadline_seconds=60)).submodule.gens \
        == M4.gens


def _embedding(*rows):
    return ModuleEmbedding.from_matrix(
        CTX, [[parse_poly(e, CTX) for e in row] for row in rows])


def _binomial_embedding():
    return _embedding(("X^2", "X*Y+Y^2", "Y^3", "0"),
                      ("0", "X^2-Y^2", "X*Y", "Y^2"))


def infinite_embedding():
    """The module of the rr-infinite golden: of infinite colength, so its
    chain takes the syzygy colon."""
    return _embedding(("X^2+X*Y", "X*Y^2", "0"), ("Y^2", "X*Y", "X^2-Y^2"))


def test_deadline_is_checked_inside_a_chain_step(monkeypatch):
    # The chain checks its deadline before each step, power_piece once per
    # power it computes, the Buchberger runs once per input or pair, and
    # the linear-algebra colon once per standard monomial.  Before the
    # first step's piece_colon come 42 checks: M^1 makes one and the run
    # that builds its basis 8, the chain one, and M^2 one and its run 31.
    # So a deadline that expires on its 43rd check stops that piece_colon
    # before it returns.
    checks, events = [], []

    def check(self):
        checks.append(1)
        if len(checks) == 43:
            raise DeadlineExceeded("expired on the 43rd check")

    real = closures.piece_colon

    def piece_colon(*args, **kwargs):
        events.append("enter")
        result = real(*args, **kwargs)
        events.append("return")
        return result

    monkeypatch.setattr(groebner._Deadline, "check", check)
    monkeypatch.setattr(closures, "piece_colon", piece_colon)
    with pytest.raises(DeadlineExceeded):
        ratliff_rush_module(_binomial_embedding(), 1,
                            ClosureOptions(deadline_seconds=60))
    assert events == ["enter"]


def test_chain_checks_its_deadline_inside_its_powers(monkeypatch):
    # The powers the chain builds run in its deadline's scope, so a step
    # whose power overruns stops too: some checks run inside power_piece.
    inside, checks = [], []
    monkeypatch.setattr(groebner._Deadline, "check",
                        lambda self: checks.append(bool(inside)))
    real = ModuleEmbedding.power_piece

    def power_piece(self, n):
        inside.append(n)
        try:
            return real(self, n)
        finally:
            inside.pop()

    monkeypatch.setattr(ModuleEmbedding, "power_piece", power_piece)
    ratliff_rush_module(_binomial_embedding(), 1,
                        ClosureOptions(deadline_seconds=60))
    assert True in checks and False in checks


def _checks_inside(monkeypatch, function):
    """A list that gains, per deadline check, whether function is on the
    stack."""
    code = function.__code__
    checks = []

    def check(self):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        checks.append(frame is not None)

    monkeypatch.setattr(groebner._Deadline, "check", check)
    return checks


def test_syzygy_colon_checks_its_deadline_inside_its_eliminations(
        monkeypatch):
    # The chain's deadline reaches the block eliminations of the syzygy
    # colon (preimages and intersections): some checks run inside
    # groebner._eliminate_block.
    checks = _checks_inside(monkeypatch, groebner._eliminate_block)
    ratliff_rush_module(infinite_embedding(), 1,
                        ClosureOptions(deadline_seconds=60))
    assert True in checks


def test_reduction_tests_check_the_ambient_deadline(monkeypatch):
    # The powers and products of a candidate closure's reduction tests run
    # in the caller's deadline scope: some checks run inside is_reduction.
    checks = _checks_inside(monkeypatch, closures.is_reduction)
    fix = indecomposable_presentation()
    with ClosureOptions(deadline_seconds=60).deadline():
        integral_closure_module(fix["E"], candidates=[fix["candidate"]])
    assert True in checks
