"""Value semantics of the records against plain frozen-dataclass
declarations of the same fields: construction, ==, hash, repr,
immutability, fields(), replace() and pickling must not tell them apart.
Every record has one construction path, its generated constructor;
`SWProfile` takes the matrix alone and derives its total class and flags
from it, so `total_sw_class(C)` and `replace(profile, matrix=C)` build the
same profile."""

import dataclasses
import itertools
import pickle
from dataclasses import FrozenInstanceError, dataclass, field

import pytest

from realbott import BottMatrix, enumerate_all, matrix_from_index, total_sw_class, wk_recursive
from realbott import cohomology, criteria


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
class SWProfile:
    matrix: BottMatrix
    total: int = field(init=False, repr=False)

    def __post_init__(self):
        # w_0 = 1 and w_k by the recursion over leading blocks: the degrees
        # are disjoint, so their sum is an OR
        total = 1
        for k in range(1, self.matrix.n + 1):
            total |= wk_recursive(self.matrix, k).bits
        object.__setattr__(self, "total", total)


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
    (cohomology.SWProfile, SWProfile,
     [(_M3,), (matrix_from_index(3, 7),), (BottMatrix.zero(2),), (_M3,)]),
]
IDS = [new.__name__ for new, _, _ in CASES]


@pytest.mark.parametrize("new, ref, values", CASES, ids=IDS)
def test_construction_and_value_semantics(new, ref, values):
    names = [f.name for f in dataclasses.fields(ref) if f.init]
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
    assert profile == cohomology.SWProfile(profile.matrix)


def test_profile_flags_derived_once():
    # the constructor stores the flags beside the fields when the profile
    # is built: orientable iff w_1 = 0, then spin iff w_2 = 0
    for n in range(1, 6):
        for C in enumerate_all(n):
            profile = total_sw_class(C)
            assert {"orientable", "spin"} <= profile.__dict__.keys()
            w = profile.classes
            assert profile.orientable is w[1].is_zero()
            assert profile.spin is ((n < 2 or w[2].is_zero()) if profile.orientable else None)


def test_replace_derives_from_the_new_matrix():
    # replace() runs the one constructor on the new matrix, so no total of
    # the old one survives into the flags or the classes
    for n in range(1, 5):
        p = total_sw_class(matrix_from_index(n, 0))
        stale = []
        for M in enumerate_all(n):
            moved, fresh = dataclasses.replace(p, matrix=M), total_sw_class(M)
            if (moved.orientable, moved.spin, moved.classes) != (
                    fresh.orientable, fresh.spin, fresh.classes):
                stale.append(M)
        assert stale == []
