import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hsverify.store import (
    BOOL,
    Coord,
    CoordOutOfRange,
    Dataspace,
    Frame,
    KindMismatch,
    NotIndependent,
    REAL,
    SumLens,
    UndeclaredVariable,
    Var,
    lens_get,
    lens_indep,
    lens_le,
    lens_put,
    vec,
)

from helpers import rand_lens, rand_store, rand_value_for_lens, small_dataspace


def test_store_total_and_copy_on_update():
    ds = small_dataspace()
    s = ds.make_store({"a": 1, "b": Fraction(1, 2), "v": (0, 0), "w": (1, 2, 3), "flag": True})
    s2 = s.put("a", Fraction(7))
    assert s.get("a") == 1
    assert s2.get("a") == 7
    assert s2.get("b") == Fraction(1, 2)


def test_store_errors():
    ds = small_dataspace()
    with pytest.raises(UndeclaredVariable):
        ds.make_store({"a": 1})
    s = ds.make_store({}, default_missing=True)
    with pytest.raises(UndeclaredVariable):
        s.get("zz")
    with pytest.raises(KindMismatch):
        s.put("a", True)
    with pytest.raises(KindMismatch):
        s.put("v", (1, 2, 3))
    with pytest.raises(CoordOutOfRange):
        lens_get(Coord("v", 3), s)
    with pytest.raises(KindMismatch):
        lens_get(Coord("a", 1), s)


def test_coord_put_is_one_based():
    ds = small_dataspace()
    s = ds.make_store({}, default_missing=True)
    s = lens_put(Coord("w", 2), Fraction(9), s)
    assert s.get("w") == (0, 9, 0)
    assert lens_get(Coord("w", 2), s) == 9


def test_sum_lens_reads_and_writes_tuples():
    ds = small_dataspace()
    s = ds.make_store({}, default_missing=True)
    l = SumLens((Var("a"), Coord("v", 2)))
    s = lens_put(l, (Fraction(3), Fraction(4)), s)
    assert lens_get(l, s) == (3, 4)
    assert s.get("v") == (0, 4)


def test_sum_lens_requires_independence():
    with pytest.raises(NotIndependent):
        SumLens((Var("v"), Coord("v", 1)))


def test_independence_table():
    assert lens_indep(Var("a"), Var("b"))
    assert lens_indep(Coord("v", 1), Coord("v", 2))
    assert not lens_indep(Coord("v", 1), Coord("v", 1))
    assert not lens_indep(Var("v"), Coord("v", 1))
    assert not lens_indep(Var("a"), Var("a"))


def test_var_coord_dependence_witnessed_by_brute_force():
    # Exhaustive check over a tiny domain: writing the whole vector and then
    # one coordinate cannot be reordered, so Var(v) and Coord(v,1) overlap.
    ds = Dataspace()
    ds.declare("v", vec(2))
    found = False
    dom = [Fraction(0), Fraction(1)]
    for init in [(a, b) for a in dom for b in dom]:
        s = ds.make_store({"v": init})
        for whole in [(a, b) for a in dom for b in dom]:
            for c in dom:
                ab = lens_put(Coord("v", 1), c, lens_put(Var("v"), whole, s))
                ba = lens_put(Var("v"), whole, lens_put(Coord("v", 1), c, s))
                if ab != ba:
                    found = True
    assert found
    assert not lens_indep(Var("v"), Coord("v", 1))


def test_lens_le_part_of():
    assert lens_le(Coord("v", 1), Var("v"))
    assert not lens_le(Var("v"), Coord("v", 1))
    p, q = Var("a"), Var("b")
    assert lens_le(p, SumLens((p, q)))
    assert lens_le(SumLens((p, q)), SumLens((q, p)))
    assert not lens_le(SumLens((p, q)), p)
    # A whole vector is not recognized below an enumeration of coordinates.
    assert not lens_le(Var("v"), SumLens((Coord("v", 1), Coord("v", 2))))


def test_lens_le_preorder_properties():
    rng = random.Random(11)
    ds = small_dataspace()
    lenses = [rand_lens(rng, ds) for _ in range(40)]
    for l in lenses:
        assert lens_le(l, l)
    for a in lenses:
        for b in lenses:
            for c in lenses:
                if lens_le(a, b) and lens_le(b, c):
                    assert lens_le(a, c)


def test_frame_canonicalization_var_absorbs_coord():
    f = Frame([Coord("v", 1), Var("v"), Var("a"), Coord("w", 2)])
    assert f.members == (Var("a"), Var("v"), Coord("w", 2))
    assert f.covers(Coord("v", 2))
    assert f.covers(Coord("w", 2))
    assert not f.covers(Coord("w", 1))
    assert f.overlaps(Var("w"))
    assert not f.covers(Var("w"))


def test_frame_complement():
    ds = small_dataspace()
    f = Frame([Var("a"), Coord("v", 1)])
    comp = f.complement(ds)
    assert comp.members == (Var("b"), Var("flag"), Coord("v", 2), Var("w"))
    assert not any(f.overlaps(m) for m in comp)


def test_coords_are_the_vector_lenses_in_index_order():
    ds = small_dataspace()
    assert ds.coords("w") == (Coord("w", 1), Coord("w", 2), Coord("w", 3))
    with pytest.raises(UndeclaredVariable):
        ds.coords("nope")


def test_frame_get_put_roundtrip():
    ds = small_dataspace()
    s = ds.make_store({}, default_missing=True)
    f = Frame([Var("a"), Var("v")])
    s2 = f.put((Fraction(5), (Fraction(1), Fraction(2))), s)
    assert f.get(s2) == (5, (1, 2))
    assert s2.get("b") == 0


LAW_CASES = 300  # the acceptance suite runs the full 1000 per law


def _law_env(seed):
    rng = random.Random(seed)
    ds = small_dataspace()
    for _ in range(LAW_CASES):
        l = rand_lens(rng, ds)
        s = rand_store(rng, ds)
        v = rand_value_for_lens(rng, ds, l)
        u = rand_value_for_lens(rng, ds, l)
        yield l, s, v, u, rng


def test_law_get_put():
    for l, s, v, _, _ in _law_env(101):
        assert lens_get(l, lens_put(l, v, s)) == v


def test_law_put_put():
    for l, s, v, u, _ in _law_env(102):
        assert lens_put(l, u, lens_put(l, v, s)) == lens_put(l, u, s)


def test_law_put_get():
    for l, s, _, _, _ in _law_env(103):
        assert lens_put(l, lens_get(l, s), s) == s


def test_law_independence_commute():
    rng = random.Random(104)
    ds = small_dataspace()
    done = 0
    while done < LAW_CASES:
        l1, l2 = rand_lens(rng, ds), rand_lens(rng, ds)
        if not lens_indep(l1, l2):
            continue
        s = rand_store(rng, ds)
        v1 = rand_value_for_lens(rng, ds, l1)
        v2 = rand_value_for_lens(rng, ds, l2)
        ab = lens_put(l2, v2, lens_put(l1, v1, s))
        ba = lens_put(l1, v1, lens_put(l2, v2, s))
        assert ab == ba
        assert lens_get(l1, lens_put(l2, v2, s)) == lens_get(l1, s)
        done += 1


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 3))
def test_law_get_put_hypothesis(x, y, i):
    ds = Dataspace()
    ds.declare("w", vec(3))
    s = ds.make_store({"w": (Fraction(x), Fraction(y), Fraction(0))})
    l = Coord("w", i)
    assert lens_get(l, lens_put(l, Fraction(y), s)) == Fraction(y)
    assert lens_put(l, lens_get(l, s), s) == s
