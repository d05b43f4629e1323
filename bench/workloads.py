"""The three benchmark workloads: operations, their seeded order and checks.

Every workload is a closed loop: one caller runs each operation only after
the previous one has returned.  `build` does all set-up (the
WeightSystem -> Weyl -> Hecke -> LowestCell -> CellularStructure stacks and
the input generation) and returns the operations; `execute` runs them.

An operation is checked twice:
  * a seed-independent invariant (KL filtration, integer decomposition
    with leading coefficient 1, homomorphism and round trip);
  * the digest of its exact output in canonical form, compared with the
    digest recorded in digests.json for the same input.
Every seed runs the same inputs in its own order, and the digests cover
them at both sizes, so every seed is checked.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

from heckecell.cellular import CellularElt, CellularStructure
from heckecell.hecke import Hecke
from heckecell.laurent import LaurentPoly
from heckecell.lowestcell import LowestCell
from heckecell.rootdata import WeightSystem
from heckecell.serialize import element_text, hecke_json
from heckecell.verification import FLAGSHIP_EXPECTED
from heckecell.weyl import Weyl

from reference import calibrate

DIGESTS_PATH = Path(__file__).with_name("digests.json")
# Seconds between two reference loop runs inside one operation.
TICK_S = 0.1

A2 = ("A", 2, (1, 1, 1))
A3 = ("A", 3, (1, 1, 1, 1))
C2_211 = ("C", 2, (2, 1, 1))
C2_321 = ("C", 2, (3, 2, 1))

# Per workload and size: (config, length bound) pairs.  "min" is the
# smallest run that still reaches every code path; the tests use it.
SIZES = {
    "kl-sweep": {
        "full": ((C2_321, 12), (A3, 6)),
        "min": ((C2_321, 5), (A3, 3)),
    },
    "decompose": {
        "full": ((A2, 10), (C2_211, 12)),
        "min": ((A2, 2), (C2_211, 4)),
    },
    "cellular": {
        "full": ((A2, 7), (C2_321, 12)),
        "min": ((A2, 6), (C2_321, 9)),
    },
}

FLAGSHIP_TAU = (2, 2)
_ONE = LaurentPoly.one()


def tag(cfg) -> str:
    kind, rank, params = cfg
    return f"{kind}{rank}{params}".replace(" ", "")


@dataclass
class Stack:
    tag: str
    ws: WeightSystem
    weyl: Weyl
    hecke: Hecke
    lowest: LowestCell
    cs: CellularStructure


def make_stack(cfg) -> Stack:
    ws = WeightSystem(*cfg)
    weyl = Weyl(ws)
    hecke = Hecke(weyl)
    lowest = LowestCell(hecke)
    return Stack(tag(cfg), ws, weyl, hecke, lowest, CellularStructure(lowest))


@dataclass
class Op:
    """run() is the library work, the part a traced run records.  key()
    names the input in the digest table and check(out) returns (canonical
    output text, problem or None); both run untraced after run()."""

    key: Callable[[], str]
    run: Callable[[], object]
    check: Callable[[object], tuple]


def _order(rng: random.Random, units: list) -> list:
    """The operations of every unit, the units in one seeded order.  A unit
    is the tuple of operations that share one input.  Every seed runs the
    whole population, so the caches end in the same state and every seed
    does the same work; the seed decides which operations find their
    intervals already cached."""
    units = list(units)
    rng.shuffle(units)
    return [op for unit in units for op in unit]


def _canonical_hecke(weyl: Weyl, h) -> str:
    return json.dumps(hecke_json(weyl, h), sort_keys=True, separators=(",", ":"))


def _canonical_cellular(weyl: Weyl, a: CellularElt) -> str:
    terms = sorted(
        (element_text(weyl, z), list(tau), element_text(weyl, zp), c.to_json())
        for (z, tau, zp), c in a.items()
    )
    return json.dumps(terms, sort_keys=True, separators=(",", ":"))


# -- kl-sweep ---------------------------------------------------------------


def _kl_op(st: Stack, w) -> Op:
    def run():
        return st.hecke.kl_basis(w)

    def check(cw):
        problem = None
        for y, c in cw.items():
            ok = c == _ONE if y == w else c.in_strictly_negative()
            if not ok:
                problem = "C_w - T_w has a term outside q^-1 Z[q^-1]"
                break
        if cw.coeff(w) != _ONE:
            problem = "C_w has no T_w term with coefficient 1"
        return _canonical_hecke(st.weyl, cw), problem

    return Op(lambda: f"{st.tag} {element_text(st.weyl, w)}", run, check)


def _kl_population(stacks: dict, spec) -> list:
    """Every element up to the length bound."""
    return [(_kl_op(stacks[cfg], w),)
            for cfg, bound in spec for w in stacks[cfg].weyl.enumerate_elements(bound)]


# -- decompose --------------------------------------------------------------


def shell(st: Stack, length: int) -> list:
    """Antidominant lam = -(sum c_i omega_i) with l(p_lam) = length.

    Shells are by length because the Bruhat interval below w_0 p_lam, and
    so the cost of an operation, grows with l(p_lam)."""
    fws = st.ws.fundamental_weights
    out = []
    for coeffs in product(range(length + 1), repeat=st.ws.rank):
        lam = tuple(-sum(c * fw[j] for c, fw in zip(coeffs, fws)) for j in range(st.ws.rank))
        if st.weyl.translation(lam).length() == length:
            out.append(lam)
    return out


def _omega_op(st: Stack, omega, lam) -> Op:
    def run():
        return st.cs.decompose_P_omega(omega, lam)

    def check(fam):
        problem = None
        if not all(type(v) is int for v in fam.values()):
            problem = "non-integer coefficient"
        elif fam.get(tuple(omega)) != 1:
            problem = "leading coefficient is not 1"
        return repr(sorted(fam.items())), problem

    return Op(lambda: f"{st.tag} omega={omega} lam={lam}", run, check)


def _flagship_op(st: Stack) -> Op:
    def run():
        return st.cs.decompose_P_tau(FLAGSHIP_TAU)

    def check(prof):
        problem = None if prof == FLAGSHIP_EXPECTED else "flagship profile differs"
        return repr(sorted(prof.items())), problem

    return Op(lambda: f"{st.tag} tau={FLAGSHIP_TAU}", run, check)


def _decompose_population(stacks: dict, spec) -> list:
    """One shell of antidominant weights per config, each weight a unit of
    one operation per fundamental weight, and the A2 flagship."""
    units = [(_flagship_op(stacks[A2]),)]
    for cfg, length in spec:
        st = stacks[cfg]
        units += [tuple(_omega_op(st, omega, lam) for omega in st.ws.fundamental_weights)
                  for lam in shell(st, length)]
    return units


# -- cellular ---------------------------------------------------------------


def _pair_op(st: Stack, a, b) -> Op:
    cs, hecke, weyl = st.cs, st.hecke, st.weyl

    def run():
        ea, eb = CellularElt.basis(*a), CellularElt.basis(*b)
        prod = hecke.mul(cs.phi_iso(ea), cs.phi_iso(eb))
        cell = cs.cellular_mul(ea, eb)
        return prod, cell, cs.phi_iso(cell), cs.phi_inverse(prod)

    def check(out):
        prod, cell, image, back = out
        problem = None
        if prod != image:
            problem = "Phi(a) Phi(b) != Phi(a * b)"
        elif back != cell:
            problem = "phi_inverse(Phi(a) Phi(b)) != a * b"
        return _canonical_hecke(weyl, prod) + _canonical_cellular(weyl, cell), problem

    return Op(lambda: f"{st.tag} {_triple_text(weyl, a)} x {_triple_text(weyl, b)}", run, check)


def _triple_text(weyl: Weyl, triple) -> str:
    z, tau, zp = triple
    return f"{element_text(weyl, z)};{','.join(map(str, tau))};{element_text(weyl, zp)}"


def _cellular_population(stacks: dict, spec) -> list:
    """Pairs of basis triples with total length <= bound."""
    units = []
    for cfg, bound in spec:
        st = stacks[cfg]
        triples = st.cs.basis_triples(bound)
        lens = {x: st.lowest.assemble(*x).length() for x in triples}
        units += [(_pair_op(st, a, b),) for a in triples for b in triples
                  if lens[a] + lens[b] <= bound]
    return units


POPULATIONS = {
    "kl-sweep": _kl_population,
    "decompose": _decompose_population,
    "cellular": _cellular_population,
}


def population(name: str, size: str = "full") -> list:
    """Set up the stacks and return the units of operations of a workload,
    in a fixed order."""
    spec = SIZES[name][size]
    stacks = {cfg: make_stack(cfg) for cfg, _ in spec}
    return POPULATIONS[name](stacks, spec)


def build(name: str, seed: int, size: str = "full") -> list:
    """The operations of one workload, in their seeded order."""
    return _order(random.Random(seed), population(name, size))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_digests(name: str) -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)[name]


@dataclass
class Record:
    key: str | None
    digest: str | None
    problem: str | None
    seconds: float  # latency of the operation, its checks included
    cpu_seconds: float  # CPU time of the process over the same span
    ref_seconds: float  # reference loop time: mean of the runs before, during and after


def execute(ops: list, digests: dict, tracer=None) -> list:
    """Run every operation in order.  A wrong output or an exception
    (BoundExceeded, AssertionError, RecursionError, ...) is recorded as a
    problem of that operation and never stops the run.

    The reference loop is timed between every two operations and, from a
    SIGALRM handler, every TICK_S seconds inside an operation; the handler's
    time is taken out of the operation's."""
    records = []
    ticks = []  # (reference loop seconds, handler wall seconds, handler CPU seconds)

    def on_tick(signum, frame):
        t, c = time.perf_counter(), time.process_time()
        ref = calibrate()
        ticks.append((ref, time.perf_counter() - t, time.process_time() - c))

    previous = signal.signal(signal.SIGALRM, on_tick)
    try:
        ref_before = calibrate()
        for i, op in enumerate(ops):
            ticks.clear()
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
            record = _execute_one(i, op, digests, tracer)
            signal.setitimer(signal.ITIMER_REAL, 0)
            ref_after = calibrate()
            refs = [ref_before, *(ref for ref, _, _ in ticks), ref_after]
            record.seconds -= sum(wall for _, wall, _ in ticks)
            record.cpu_seconds -= sum(cpu for _, _, cpu in ticks)
            record.ref_seconds = sum(refs) / len(refs)
            records.append(record)
            ref_before = ref_after
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return records


def _execute_one(i: int, op: Op, digests: dict, tracer) -> Record:
    key = dig = None
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        out = tracer.run_op(i, op.run) if tracer else op.run()
        if tracer:
            tracer.paused = True
        try:
            key = op.key()
            canon, problem = op.check(out)
        finally:
            if tracer:
                tracer.paused = False
        dig = digest(canon)
        if problem is None and digests.get(key) != dig:
            problem = ("output digest differs from the recorded one" if key in digests
                       else "no recorded digest for this input")
    except Exception as exc:  # the run records every failure and goes on
        problem = f"{type(exc).__name__}: {exc}"
    return Record(key, dig, problem, time.perf_counter() - start,
                  time.process_time() - cpu_start, 0.0)
