"""The value semantics callers rely on in the library's record classes."""

import pytest

from reescalc import (ClosureOptions, ClosureResult, ContextMismatchError,
                      InputError, Polynomial, RankMismatchError, RingContext,
                      SubmoduleData, groebner_basis, member, parse_poly)
from reescalc.groebner import DEFAULT_ORDER
from reescalc.problem import ProblemFile

CTX = RingContext(characteristic=0, base_vars=("X", "Y"))


def _module(*rows):
    vectors = [tuple(parse_poly(e, CTX) for e in col) for col in zip(*rows)]
    return SubmoduleData.from_vectors(CTX, len(rows), vectors)


def test_the_reduced_basis_is_cached_once():
    U = _module(["X^2+Y", "X*Y"], ["Y^2", "X+Y"])
    basis = groebner_basis(U)
    entries = len(U._cache)
    assert groebner_basis(U) is basis
    assert len(U._cache) == entries
    assert U._cache[DEFAULT_ORDER] is basis


def test_submodule_equality_and_hash_include_what_they_did():
    U = _module(["X^2+Y", "X*Y"], ["Y^2", "X+Y"])
    same = _module(["X^2+Y", "X*Y"], ["Y^2", "X+Y"])
    assert U == same and hash(U) == hash(same)
    groebner_basis(U)
    assert U._cache and not same._cache
    assert U == same and hash(U) == hash(same)
    assert U != _module(["X^2+Y", "X*Y"], ["Y^2", "X-Y"])
    assert U != SubmoduleData(CTX, 2, U.gens[:1])
    other_ring = RingContext(characteristic=32003, base_vars=("X", "Y"))
    assert SubmoduleData.zero(CTX, 2) != SubmoduleData.zero(other_ring, 2)
    assert SubmoduleData.zero(CTX, 1) != SubmoduleData.zero(CTX, 2)
    assert U != U.gens
    assert not hasattr(U, "__dict__")


def test_submodule_construction_still_checks_its_generators():
    one = Polynomial.one(CTX)
    with pytest.raises(RankMismatchError):
        SubmoduleData(CTX, 2, ((one,),))
    foreign = Polynomial.one(RingContext(characteristic=0,
                                         base_vars=("U", "V")))
    with pytest.raises(ContextMismatchError):
        SubmoduleData(CTX, 1, ((foreign,),))
    for names in (("X",), ("X", "Y", "Z")):
        with pytest.raises(InputError, match="two base variables"):
            RingContext(characteristic=0, base_vars=names)


def test_member_checks_its_vector_as_construction_does():
    # member tests containment of the one-vector module, so a vector over
    # another field, or of another length, is refused as a generator is
    U = _module(["X^2+Y"])
    other_field = RingContext(characteristic=32003, base_vars=("X", "Y"))
    with pytest.raises(ContextMismatchError):
        member((parse_poly("X^2+Y", other_field),), U)
    one = Polynomial.one(CTX)
    with pytest.raises(RankMismatchError):
        member((one, one), U)
    assert member((parse_poly("X^3+X*Y", CTX),), U)
    assert not member((one,), U)


def test_default_lists_and_dicts_are_never_shared():
    U = SubmoduleData.zero(CTX)
    files = [ProblemFile(CTX, [["X"]]) for _ in range(2)]
    files[0].candidates.append(["X"])
    files[0].factors.append(["X", "Y"])
    files[0].options["lmax"] = 3
    assert (files[1].candidates, files[1].factors, files[1].options) == \
        ([], [], {})
    results = [ClosureResult(U, "newton") for _ in range(2)]
    results[0].extra["key"] = 1
    assert results[1].extra == {}
    assert (results[1].stabilization_index, results[1].window,
            results[1].certified) == (0, 0, False)


@pytest.mark.parametrize("kwargs", [
    {"l_max": -1}, {"window": 0}, {"s_max": -1}, {"deadline_seconds": 0},
    {"deadline_seconds": -5.0},
])
def test_bad_closure_options_raise_input_error(kwargs):
    with pytest.raises(InputError):
        ClosureOptions(**kwargs)


def test_closure_options_defaults():
    opts = ClosureOptions()
    assert (opts.l_max, opts.window, opts.s_max, opts.deadline_seconds) == \
        (10, 2, 5, None)
    assert ClosureOptions(0, 1, 0, 1e-9).window == 1
