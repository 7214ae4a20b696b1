"""The contract every stabilizing colon chain keeps.

The two routes to the Ratliff-Rush closure of I = (X^4, X^3*Y, X*Y^3,
Y^4) -- the ideal chain and the rank-1 module chain -- share one rule:
the value is the chain's last change, confirmed by `window` equal steps;
a change after step `l_max` raises UnstableChainError carrying the new
value and the colengths of the chain's values; an expired deadline raises
DeadlineExceeded.
"""

import pytest

from reescalc import (ClosureOptions, DeadlineExceeded, ModuleEmbedding,
                      RingContext, SubmoduleData, UnstableChainError,
                      groebner_basis, parse_poly, ratliff_rush_ideal,
                      ratliff_rush_module)

CTX = RingContext(characteristic=0, base_vars=("X", "Y"))


def _ideal(*gens):
    return SubmoduleData.ideal(CTX, [parse_poly(g, CTX) for g in gens])


I = _ideal("X^4", "X^3*Y", "X*Y^3", "Y^4")
M4 = groebner_basis(_ideal("X^4", "X^3*Y", "X^2*Y^2", "X*Y^3", "Y^4"))


def _ideal_route(opts):
    return ratliff_rush_ideal(I, opts)


def _module_route(opts):
    return ratliff_rush_module(ModuleEmbedding.from_submodule(I), 1, opts)


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
