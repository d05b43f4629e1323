import inspect
import random
import sys

import pytest

from heckecell import paths
from heckecell.cellular import CellularStructure
from heckecell.hecke import Hecke
from heckecell.lowestcell import LowestCell
from heckecell.rootdata import WeightSystem
from heckecell.weyl import Weyl

A2 = WeightSystem("A", 2, (1, 1, 1))
A1 = WeightSystem("A", 1, (1, 1))


def make_cs(ws):
    return CellularStructure(LowestCell(Hecke(Weyl(ws))))


def test_count_base_cases():
    assert paths.full_profile(A2, paths.PathType(())) == {(0, 0): 1}
    assert paths.full_profile(A2, paths.PathType((2,))) == {(0, -1): 1}
    assert paths.full_profile(A2, paths.PathType((1,))) == {(-1, 0): 1}


def test_count_figure_example():
    # four paths of type (1,1,2,2) from 0 to -(w1+w2)
    m = paths.PathType((1, 1, 2, 2))
    assert paths.full_profile(A2, m)[(-1, -1)] == 4
    witnesses = [p for p in paths.enumerate_paths(A2, m) if tuple(-sum(c) for c in zip(*p)) == (-1, -1)]
    assert len(witnesses) == 4
    assert len(set(witnesses)) == 4


def test_count_rejects_non_antidominant():
    # the profile holds antidominant endpoints only
    assert all(A2.is_antidominant(g) for g in paths.full_profile(A2, paths.PathType((1, 2, 1))))
    with pytest.raises(ValueError):
        paths.PathType((3,)).validate(A2)


@pytest.mark.parametrize("steps", [(1.5,), (1.0,), ("1",), (True,)],
                         ids=["fraction", "float", "string", "bool"])
def test_non_integer_steps_rejected(steps):
    # a step index is an int: never truncated, parsed or read off a bool
    with pytest.raises(ValueError, match="integers"):
        paths.PathType(steps)


def test_full_profile_flagship():
    m = paths.PathType((1, 1, 2, 2))
    assert paths.full_profile(A2, m) == {
        (-2, -2): 1, (-3, 0): 1, (0, -3): 1, (-1, -1): 4, (0, 0): 2,
    }


def test_profile_order_independent():
    for steps_a, steps_b in [((1, 1, 2, 2), (2, 1, 2, 1)), ((1, 2), (2, 1))]:
        assert paths.full_profile(A2, paths.PathType(steps_a)) == \
            paths.full_profile(A2, paths.PathType(steps_b))


def test_dp_equals_brute_force():
    rng = random.Random(0)
    for ws in (A1, A2):
        for _ in range(6):
            n = rng.randint(0, 5)
            steps = tuple(rng.randint(1, ws.rank) for _ in range(n))
            m = paths.PathType(steps)
            profile = paths.full_profile(ws, m)
            brute = {}
            for p in paths.enumerate_paths(ws, m):
                end = tuple(-sum(step[i] for step in p) for i in range(ws.rank))
                brute[end] = brute.get(end, 0) + 1
            assert profile == brute


def test_enumeration_needs_no_recursion():
    # the walk keeps its pending points on a stack of its own: 16 steps
    # (12,870 paths) run within a few frames of the caller
    m = paths.PathType((1,) * 16)
    depth = len(inspect.stack(0))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 15)
    try:
        found = paths.enumerate_paths(A1, m)
    finally:
        sys.setrecursionlimit(old)
    assert len(found) == sum(paths.full_profile(A1, m).values()) == 12870


def test_partial_sums_antidominant():
    m = paths.PathType((1, 2, 1, 2))
    for p in paths.enumerate_paths(A2, m):
        x = (0, 0)
        for step in p:
            x = tuple(a - b for a, b in zip(x, step))
            assert A2.is_antidominant(x)


def test_total_mass_bound():
    m = paths.PathType((1, 2, 2, 1))
    orbit_max = max(len(A2.orbit(fw)) for fw in A2.fundamental_weights)
    assert sum(paths.full_profile(A2, m).values()) <= orbit_max ** len(m.steps)


def test_cross_check():
    cs2 = make_cs(A2)
    assert paths.cross_check(cs2, (2, 2))
    assert paths.cross_check(cs2, (1, 2))
    cs1 = make_cs(A1)
    for k in range(5):
        assert paths.cross_check(cs1, (k,))
    csc = make_cs(WeightSystem("C", 2, (2, 1, 1)))
    with pytest.raises(ValueError):
        paths.cross_check(csc, (0, 0))
