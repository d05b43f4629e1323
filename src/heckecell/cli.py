"""Batch front door: subcommands over one configured weight system.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
or parse error, 3 BoundExceeded (a length bound: `kl` on an element longer
than MAX_KL_LENGTH, `cellular-basis` with a --length-bound above
MAX_CELLULAR_LENGTH, or `paths --witnesses` with more than MAX_WITNESSES
paths), 141 stdout closed early (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .lowestcell import BoundExceeded, NotInLowestCell
from .rootdata import _TYPES
from . import paths, serialize, verification

USAGE_ERROR = 2
BOUND_EXCEEDED = 3
CLOSED_STDOUT = 141
MAX_WITNESSES = 10 ** 5
# C_w in A3, the largest shipped group, at length 26: 2.4-3.5 s and at most
# 142 MB for the whole `kl --output json` call (four seeded random reduced
# words, Xeon, Python 3.11); length 28 takes 4.9-6.5 s and 250 MB.  One
# bound for every type: it also refuses A1, A2 and C2 elements that are
# cheap (length 27 takes under 0.25 s there), since the cost in the smaller
# types turns on the weights as much as on the length
MAX_KL_LENGTH = 26
# `cellular-basis` in A3 with --length-bound 34: 2.1-2.6 s and 62 MB for the
# whole call (Xeon, Python 3.11); 36 takes 4.4 s and 81 MB.  The phi matrix
# is fixed by B_0, the decompositions grow with the bound; at 34 the smaller
# shipped types take 1.2 s (A2) or less, A1 (2,1) reaches 21 s only at 200
MAX_CELLULAR_LENGTH = 34


def _add_weights(p):
    """The weight-system and output flags of every subcommand but verify."""
    p.add_argument("--type", choices=sorted({key[0] for key in _TYPES}), default="A")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--params", type=_int_list, default=None,
                   help="generator weights L(s_0),...,L(s_n), comma separated")
    p.add_argument("--output", choices=["json", "text"], default="text")


def _stack(args):
    params = args.params if args.params is not None else [1] * (args.rank + 1)
    return verification.stack((args.type, args.rank, tuple(params)))


def _int_list(text):
    """Comma-separated integers; an empty field is refused, never dropped."""
    fields = text.split(",")
    if not all(t.strip() for t in fields):
        raise argparse.ArgumentTypeError(f"empty field in {text!r}")
    return [int(t) for t in fields]


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def build_parser():
    ap = argparse.ArgumentParser(
        prog="heckecell",
        description="Lowest two-sided ideal of an extended affine Hecke algebra: "
                    "Kazhdan-Lusztig data, cellular basis and path counts.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kl", help="Kazhdan-Lusztig basis element C_w")
    _add_weights(p)
    p.add_argument("--w", required=True, help="element: [i,...], pi^k*[i,...] or JSON")

    p = sub.add_parser("cell-factor", help="factor w as z p_tau w_0 z'^-1")
    _add_weights(p)
    p.add_argument("--w", required=True)

    p = sub.add_parser("cellular-basis", help="phi matrix and KL decompositions")
    _add_weights(p)
    p.add_argument("--length-bound", type=_non_negative_int, default=12,
                   help="decompose P(tau) for l(p_tau w_0) up to this length")

    p = sub.add_parser("paths", help="type-A path profile")
    _add_weights(p)
    p.add_argument("--m", type=_int_list, required=True,
                   help="path type: fundamental weight indices, e.g. 1,1,2,2")
    p.add_argument("--witnesses", action="store_true")

    p = sub.add_parser("verify", help="run an acceptance suite")
    p.add_argument("--suite", required=True,
                   help=f"one of: {', '.join(sorted(verification.SUITES))}")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the sampled checks (default 0); only "
                        f"{', '.join(sorted(verification.SEEDED_SUITES))} samples")
    return ap


def cmd_kl(args) -> int:
    _, weyl, hecke, _, _ = _stack(args)
    w = serialize.parse_element(weyl, args.w)
    if w.length() > MAX_KL_LENGTH:
        raise BoundExceeded(f"element of length {w.length()} exceeds the kl bound {MAX_KL_LENGTH}")
    cw = hecke.kl_basis(w)
    if args.output == "json":
        print(json.dumps({
            "w": serialize.element_json(weyl, w),
            "C_w": serialize.hecke_json(weyl, cw),
        }, indent=2, sort_keys=True))
    else:
        print(f"C_w for w = {serialize.element_text(weyl, w)}")
        print(serialize.hecke_text(weyl, cw))
    return 0


def cmd_cell_factor(args) -> int:
    _, weyl, _, lowest, _ = _stack(args)
    w = serialize.parse_element(weyl, args.w)
    try:
        f = lowest.factorize(w)
    except NotInLowestCell:
        if args.output == "json":
            print(json.dumps({"member": False}))
        else:
            print("not in c_0")
        return 0
    payload = {
        "member": True,
        "z": serialize.element_json(weyl, f.z),
        "tau": list(f.tau),
        "zprime": serialize.element_json(weyl, f.zprime),
    }
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"z      = {serialize.element_text(weyl, f.z)}")
        print(f"tau    = {serialize.weight_text(f.tau)}")
        print(f"zprime = {serialize.element_text(weyl, f.zprime)}")
    return 0


def cmd_cellular_basis(args) -> int:
    if args.length_bound > MAX_CELLULAR_LENGTH:
        raise BoundExceeded(f"length bound {args.length_bound} exceeds the cellular-basis "
                            f"bound {MAX_CELLULAR_LENGTH}")
    _, weyl, _, lowest, cs = _stack(args)
    b0 = lowest.box_elements()
    phi = {}
    for z in b0:
        for zp in b0:
            key = f"({serialize.element_text(weyl, z)},{serialize.element_text(weyl, zp)})"
            phi[key] = {
                serialize.weight_text(t): str(c)
                for t, c in sorted(cs.phi_form(z, zp).items())
            }
    budget = max(args.length_bound - weyl.longest_finite.length(), 0)
    decomps = {}
    for tau in cs.dominant_weights_up_to(budget):
        prof = cs.decompose_P_tau(tau)
        decomps[serialize.weight_text(tau)] = {
            serialize.weight_text(lam): m for lam, m in sorted(prof.items())
        }
    payload = {"phi": phi, "decompositions": decomps}
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("phi matrix:")
        for key, val in phi.items():
            print(f"  {key}: {val}")
        print("decompositions of P(tau)C_w0 (keys lam = -tau'):")
        for key, val in decomps.items():
            print(f"  {key}: {val}")
    return 0


def cmd_paths(args) -> int:
    ws = _stack(args)[0]
    if ws.cartan_type != "A":
        raise ValueError("path profiles are a type-A feature")
    m = paths.PathType(args.m)
    profile = paths.full_profile(ws, m)
    if args.witnesses and sum(profile.values()) > MAX_WITNESSES:
        raise BoundExceeded(f"more than {MAX_WITNESSES} paths to list")
    payload = {
        "m": list(m.steps),
        "profile": {
            serialize.weight_text(g): c for g, c in sorted(profile.items())
        },
    }
    if args.witnesses:
        # one walk of every path, each put under its endpoint: minus the sum
        # of its steps; a bucket keeps the walk's depth-first order
        by_end = {g: [] for g in sorted(profile)}
        zero = (0,) * ws.rank
        for p in paths.enumerate_paths(ws, m):
            by_end[tuple(-sum(c) for c in zip(zero, *p))].append([list(step) for step in p])
        payload["witnesses"] = {serialize.weight_text(g): ps for g, ps in by_end.items()}
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"profile for type {payload['m']}:")
        for g, c in payload["profile"].items():
            print(f"  {g}: {c}")
        if args.witnesses:
            for g, ps in payload["witnesses"].items():
                print(f"  paths to {g}:")
                for p in ps:
                    print(f"    {p}")
    return 0


def cmd_verify(args) -> int:
    if args.suite not in verification.SUITES:
        print(f"unknown suite {args.suite!r}; choose from "
              f"{', '.join(sorted(verification.SUITES))}", file=sys.stderr)
        return USAGE_ERROR
    if args.seed is not None and args.suite not in verification.SEEDED_SUITES:
        print(f"--seed applies only to {', '.join(sorted(verification.SEEDED_SUITES))}; "
              f"suite {args.suite!r} samples nothing", file=sys.stderr)
        return USAGE_ERROR
    checks = verification.run_suite(args.suite, seed=args.seed)
    print(verification.report(checks))
    return 0 if all(c.passed for c in checks) else 1


COMMANDS = {
    "kl": cmd_kl,
    "cell-factor": cmd_cell_factor,
    "cellular-basis": cmd_cellular_basis,
    "paths": cmd_paths,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        code = COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left (`| head`): end quietly, stdout on devnull for the last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    except (BoundExceeded, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return BOUND_EXCEEDED if isinstance(e, BoundExceeded) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
