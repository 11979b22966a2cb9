"""Value semantics of the records against plain frozen-dataclass
declarations of the same fields: construction, ==, hash, repr,
immutability, fields(), replace() and pickling must not tell them apart.
Every record has its generated constructor; `build_digraph` and
`total_sw_class`, which build one per matrix, skip it and store each field
into the instance __dict__, and what they build must be indistinguishable
from what the constructor builds."""

import dataclasses
import itertools
import pickle
from dataclasses import FrozenInstanceError, dataclass

import pytest

from realbott import BottMatrix, build_digraph, enumerate_all, matrix_from_index, total_sw_class
from realbott import cohomology, criteria, digraph


# The reference declarations carry the records' own names, so that the
# generated repr of both reads the same.
@dataclass(frozen=True)
class RowWitness:
    i: int


@dataclass(frozen=True)
class PairWitness:
    j: int
    k: int
    P: int
    Q: int


@dataclass(frozen=True)
class SpinVerdict:
    orientable: bool
    spin: bool
    witnesses: tuple = ()


@dataclass(frozen=True)
class BottDigraph:
    n: int
    out_masks: tuple
    in_masks: tuple


@dataclass(frozen=True)
class SWProfile:
    matrix: BottMatrix
    total: int


_M3 = matrix_from_index(3, 5)
CASES = [
    (criteria.RowWitness, RowWitness, [(1,), (2,), (1,)]),
    (criteria.PairWitness, PairWitness, [(1, 2, 0, 1), (1, 3, 1, 0), (1, 2, 0, 1)]),
    (
        criteria.SpinVerdict,
        SpinVerdict,
        [
            (True, True, ()),
            (False, False, (criteria.RowWitness(1),)),
            (True, False, (criteria.PairWitness(1, 2, 1, 0),)),
            (False, False, (criteria.RowWitness(1), criteria.PairWitness(1, 2, 1, 0))),
            (True, True, ()),
        ],
    ),
    (digraph.BottDigraph, BottDigraph, [(3, (6, 4, 0), (0, 1, 3)), (2, (2, 0), (0, 1))]),
    (cohomology.SWProfile, SWProfile, [(_M3, 5), (_M3, 7), (BottMatrix.zero(2), 1)]),
]
IDS = [new.__name__ for new, _, _ in CASES]


@pytest.mark.parametrize("new, ref, values", CASES, ids=IDS)
def test_construction_and_value_semantics(new, ref, values):
    names = [f.name for f in dataclasses.fields(ref)]
    for args in values:
        a = new(*args)
        b = new(**dict(zip(names, args)))
        r = ref(*args)
        assert a == b and (repr(a), hash(a)) == (repr(b), hash(b))
        assert (repr(a), hash(a)) == (repr(r), hash(r))
        assert [getattr(a, name) for name in names] == list(args)
        assert pickle.loads(pickle.dumps(a)) == a
    for x, y in itertools.product(values, repeat=2):
        assert (new(*x) == new(*y)) == (ref(*x) == ref(*y))
        assert (new(*x) != new(*y)) == (ref(*x) != ref(*y))


@pytest.mark.parametrize("new, ref, values", CASES, ids=IDS)
def test_frozen(new, ref, values):
    a = new(*values[0])
    name = dataclasses.fields(ref)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(a, name, 0)
    with pytest.raises(FrozenInstanceError):
        delattr(a, name)
    with pytest.raises(FrozenInstanceError):
        a.extra = 0
    assert new(*values[0]) == a


@pytest.mark.parametrize("new, ref, values", CASES, ids=IDS)
def test_fields_and_replace(new, ref, values):
    spec = [(f.name, f.default, f.init, f.compare) for f in dataclasses.fields(ref)]
    assert [(f.name, f.default, f.init, f.compare) for f in dataclasses.fields(new)] == spec
    name = spec[0][0]
    first, second = values[0], values[1]
    changed = dataclasses.replace(new(*first), **{name: second[0]})
    expected = dataclasses.replace(ref(*first), **{name: second[0]})
    assert type(changed) is new
    assert (repr(changed), hash(changed)) == (repr(expected), hash(expected))


def test_verdict_default_witnesses():
    assert criteria.SpinVerdict(True, True).witnesses == ()
    assert criteria.SpinVerdict(True, True) == criteria.SpinVerdict(True, True, ())
    assert repr(criteria.SpinVerdict(True, True)) == repr(SpinVerdict(True, True))


def test_profile_classes_cached():
    profile = total_sw_class(matrix_from_index(4, 37))
    before = (repr(profile), hash(profile))
    classes = profile.classes
    assert profile.classes is classes
    assert profile.__dict__["classes"] is classes
    # the cache sits outside the fields
    assert (repr(profile), hash(profile)) == before
    assert profile == cohomology.SWProfile(profile.matrix, profile.total)


def test_profile_flags_derived_once():
    # both construction paths store the flags beside the fields when the
    # profile is built, by the one rule of `_flags`
    for n in range(1, 6):
        for C in enumerate_all(n):
            profile = total_sw_class(C)
            assert {"orientable", "spin"} <= profile.__dict__.keys()
            built = cohomology.SWProfile(C, profile.total)
            assert {"orientable", "spin"} <= built.__dict__.keys()
            assert (built.orientable, built.spin) == (profile.orientable, profile.spin)
            assert built.__dict__["spin"] is built.spin
            assert built == profile and repr(built) == repr(profile)


def assert_alike(fast, built):
    """`fast` from a per-matrix builder, `built` by the constructor: the same
    state, flags included, under ==, hash, repr, pickling and replace()."""
    assert type(fast) is type(built) and vars(fast) == vars(built)
    assert fast == built and (repr(fast), hash(fast)) == (repr(built), hash(built))
    for a, b in [(pickle.loads(pickle.dumps(fast)), built),
                 (dataclasses.replace(fast), dataclasses.replace(built))]:
        assert type(a) is type(b) and vars(a) == vars(b)
        assert a == b and (repr(a), hash(a)) == (repr(b), hash(b))


def test_builders_match_constructors():
    for n in range(1, 5):
        for M in enumerate_all(n):
            assert_alike(build_digraph(M), digraph.BottDigraph(M.n, M.rows, M.columns()))
            profile = total_sw_class(M)
            assert_alike(profile, cohomology.SWProfile(M, profile.total))
