"""In-memory span tracing around the public functions of the library layers.

The tracer replaces selected class attributes of `heckecell` with wrappers
that record one span per call: name, start, end, parent span and operation
id.  Nothing in the library is edited; `uninstall` puts back the exact
objects it took out.  Per-layer metrics are computed afterwards from the
stored spans, never from timers inside the wrappers.

Spans live in typed arrays (26 bytes each) because the Laurent layer alone
produces millions of them on the larger workloads.
"""

from __future__ import annotations

import json
import time
from array import array

from heckecell.cellular import CellularStructure
from heckecell.hecke import Hecke
from heckecell.laurent import LaurentPoly
from heckecell.lowestcell import LowestCell
from heckecell.weyl import Weyl


def _pair_product(args):
    return len(args[0].items()) * len(args[1].items())


def _hecke_pair_product(args):
    return len(args[1]) * len(args[2])


def _result_size(args, result):
    return len(result)


# (span name, class, attribute, work count taken from the arguments,
#  work count taken from the result, cached on (instance, arguments)).
# A call whose (instance, arguments) was seen before is a cache hit: the
# library caches never evict, so a repeat can only be served from cache.
LAYERS = (
    ("laurent.mul", LaurentPoly, "__mul__", ("term_products", _pair_product), None, False),
    ("laurent.add", LaurentPoly, "__add__", None, None, False),
    ("laurent.bar", LaurentPoly, "bar", None, None, False),
    ("weyl.multiply", Weyl, "multiply", None, None, False),
    ("weyl.reduced_word", Weyl, "reduced_word", None, None, False),
    ("weyl.bruhat_leq", Weyl, "bruhat_leq", None, None, False),
    ("weyl.bruhat_interval", Weyl, "bruhat_interval", None, ("elems", _result_size), False),
    ("weyl.enumerate_elements", Weyl, "enumerate_elements", None, None, False),
    ("hecke.kl_basis", Hecke, "kl_basis", None, ("terms", _result_size), True),
    ("hecke.bar_t", Hecke, "bar_t", None, None, True),
    ("hecke.mul", Hecke, "mul", ("term_pairs", _hecke_pair_product), None, False),
    ("hecke.mul_gen", Hecke, "mul_gen", None, None, False),
    ("hecke.kl_expand", Hecke, "kl_expand", None, None, False),
    ("lowestcell.relative_kl", LowestCell, "relative_kl", None, None, False),
    ("lowestcell.factorize", LowestCell, "factorize", None, None, False),
    ("lowestcell.p_element_tau", LowestCell, "p_element_tau", None, None, False),
    ("lowestcell.assemble", LowestCell, "assemble", None, None, False),
    ("cellular.phi_form", CellularStructure, "phi_form", None, None, True),
    ("cellular.phi_iso", CellularStructure, "phi_iso", None, None, False),
    ("cellular.cellular_mul", CellularStructure, "cellular_mul", None, None, False),
    ("cellular.phi_inverse", CellularStructure, "phi_inverse", None, None, False),
    ("cellular.decompose_P_omega", CellularStructure, "decompose_P_omega", None, None, False),
    ("cellular.decompose_P_tau", CellularStructure, "decompose_P_tau", None, None, False),
    ("cellular.basis_triples", CellularStructure, "basis_triples", None, None, False),
)

# Generator functions: the wrapper drains them inside the span, otherwise
# the span would close before any work is done.
_GENERATORS = {"weyl.enumerate_elements"}

OP_SPAN = "bench.op"


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = [OP_SPAN] + [layer[0] for layer in LAYERS]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.op = -1
        self.paused = False
        self.counts = {}   # "<layer>.<fn>.<count>" -> int
        self.maxima = {}   # "<layer>.<fn>.max_<count>" -> int
        self.hits = {}     # span name -> cache hits
        self.misses = {}   # span name -> span ids of cache misses
        self._seen = {}    # span name -> set of (id(instance), args)
        self._saved = []   # (class, attribute, original object)

    # -- spans -----------------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.current)
        self.span_op.append(self.op)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.current = sid
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self.current = self.span_parent[sid]

    def run_op(self, op_id: int, fn):
        """Call fn() as operation op_id under a top-level span."""
        self.op = op_id
        sid = self._open(0)
        try:
            return fn()
        finally:
            self._close(sid)
            self.op = -1

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name, fn, arg_count, result_count, cached):
        tracer = self
        nid = self.name_id[name]
        generator = name in _GENERATORS
        if arg_count:
            arg_key = f"{name}.{arg_count[0]}"
            arg_fn = arg_count[1]
            self.counts[arg_key] = 0
        if result_count:
            res_key = f"{name}.{result_count[0]}"
            max_key = f"{name}.max_{result_count[0]}"
            res_fn = result_count[1]
            self.counts[res_key] = 0
            self.maxima[max_key] = 0
        if cached:
            seen = self._seen[name] = set()
            miss_list = self.misses[name] = []
            self.hits[name] = 0

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if arg_count:
                tracer.counts[arg_key] += arg_fn(args)
            if cached:
                key = (id(args[0]), args[1:])
                hit = key in seen
                if hit:
                    tracer.hits[name] += 1
                else:
                    seen.add(key)
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
                if generator:
                    result = iter(list(result))
            finally:
                tracer._close(sid)
            if cached and not hit:
                miss_list.append(sid)
            if result_count and not (cached and hit):
                n = res_fn(args, result)
                tracer.counts[res_key] += n
                if n > tracer.maxima[max_key]:
                    tracer.maxima[max_key] = n
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, cls, attr, arg_count, result_count, cached in LAYERS:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, arg_count, result_count, cached))

    def uninstall(self) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer calls, self and inclusive seconds, counts and ratios.

        Self time is a span's duration minus the durations of its direct
        children.  Inclusive time sums only the outermost span of each
        name, so recursion (bar_t, the Pi strip in kl_basis) is not counted
        twice.
        """
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        k = len(self.names)
        calls = [0] * k
        incl = [0.0] * k
        self_t = [0.0] * k
        child = [0.0] * n
        mask = [0] * n
        for sid in range(n):
            p = parents[sid]
            dur = ends[sid] - starts[sid]
            if p >= 0:
                child[p] += dur
        for sid in range(n):
            nid = names[sid]
            p = parents[sid]
            dur = ends[sid] - starts[sid]
            calls[nid] += 1
            self_t[nid] += dur - child[sid]
            above = mask[p] if p >= 0 else 0
            if not (above >> nid) & 1:
                incl[nid] += dur
            mask[sid] = above | (1 << nid)
        out = {}
        for nid, name in enumerate(self.names):
            if name == OP_SPAN:
                continue
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_t[nid]
            out[f"{name}.incl_s"] = incl[nid]
        out.update(self.counts)
        out.update(self.maxima)
        for name, hits in self.hits.items():
            total = calls[self.name_id[name]]
            out[f"{name}.hit_ratio"] = hits / total if total else 0.0
        kl_ms = sorted(
            1000.0 * (ends[sid] - starts[sid]) for sid in self.misses["hecke.kl_basis"]
        )
        out["hecke.kl_basis.p50_ms"] = _percentile(kl_ms, 0.50)
        out["hecke.kl_basis.p99_ms"] = _percentile(kl_ms, 0.99)
        return out

    def write(self, path) -> None:
        """One JSON header line, then the five span arrays as raw bytes."""
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": [
                ["name", self.span_name.typecode],
                ["parent", self.span_parent.typecode],
                ["op", self.span_op.typecode],
                ["start", self.span_start.typecode],
                ["end", self.span_end.typecode],
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_op,
                        self.span_start, self.span_end):
                arr.tofile(fh)


def read_spans(path) -> tuple:
    """(header, {array name: array}) from a file written by Tracer.write."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for name, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            arrays[name] = arr
    return header, arrays


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[idx]
