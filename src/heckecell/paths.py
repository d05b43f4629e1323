"""Type-A lattice path combinatorics in the antidominant cone.

A path of type m = (m_1, ..., m_N) walks from 0 by steps x -> x - rho with
rho in the W_0-orbit of the fundamental weight indexed by m_l, staying
antidominant at every point.  The profile of path counts by endpoint equals
the integer profile of the cellular basis element P(tau) C_{w_0} in the
Kazhdan-Lusztig basis, which is the cross-check this module exists for.
"""

from __future__ import annotations

from .rootdata import WeightSystem


class PathType:
    """A sequence of fundamental-weight indices in 1..rank."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        self.steps = tuple(steps)
        if any(type(s) is not int for s in self.steps):
            raise ValueError(f"step indices must be integers, got {self.steps}")

    def validate(self, ws: WeightSystem):
        for s in self.steps:
            if not 1 <= s <= ws.rank:
                raise ValueError(f"step index {s} out of range 1..{ws.rank}")

    @staticmethod
    def for_tau(ws: WeightSystem, tau) -> "PathType":
        """The canonical type with tau_i / b_i steps of index i, ascending."""
        return PathType([i + 1 for i in range(ws.rank) for _ in range(tau[i] // ws.b[i])])

    def __repr__(self):
        return f"PathType{self.steps}"


def _orbits(ws: WeightSystem):
    return [sorted(ws.orbit(fw)) for fw in ws.fundamental_weights]


def full_profile(ws: WeightSystem, m: PathType) -> dict:
    """All endpoints gamma with their path counts, by dynamic programming
    over prefix lengths (every intermediate point antidominant)."""
    m.validate(ws)
    orbits = _orbits(ws)
    profile = {(0,) * ws.rank: 1}
    for idx in m.steps:
        nxt = {}
        for x, cnt in profile.items():
            for rho in orbits[idx - 1]:
                y = tuple(a - b for a, b in zip(x, rho))
                if ws.is_antidominant(y):
                    nxt[y] = nxt.get(y, 0) + cnt
        profile = nxt
    return profile


def enumerate_paths(ws: WeightSystem, m: PathType):
    """Every path of type m as its step sequence (brute force); the
    independent oracle for the dynamic program, and the witness generator
    for listings.  A depth-first walk on an explicit stack, in orbit order
    at every step, so a path type of any length stays off the call stack."""
    m.validate(ws)
    orbits = _orbits(ws)
    out = []
    todo = [((0,) * ws.rank, ())]
    while todo:
        x, acc = todo.pop()
        if len(acc) == len(m.steps):
            out.append(acc)
            continue
        for rho in reversed(orbits[m.steps[len(acc)] - 1]):
            y = tuple(a - b for a, b in zip(x, rho))
            if ws.is_antidominant(y):
                todo.append((y, acc + (rho,)))
    return out


def cross_check(cellular, tau) -> bool:
    """Whether the path profile of type m(tau) equals the Hecke-side
    decomposition of P(tau) C_{w_0}.  Type A only."""
    ws = cellular.ws
    if ws.cartan_type != "A":
        raise ValueError("the path model is a type-A statement")
    m = PathType.for_tau(ws, tau)
    return full_profile(ws, m) == cellular.decompose_P_tau(tau)
