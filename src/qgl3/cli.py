"""Command-line interface: facet queries, characters, decompositions,
structure graphs, Ext lookups, Hom witnesses and verification sweeps.

Weights are comma-separated pairs in SL3 convention ("3,3"); with --gl3 a
three-part weight "a,b,c" is accepted and converted via (a-b, b-c).  Exit
codes: 0 success, 1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from qgl3.charring import chi_l_dimension, weyl_char
from qgl3.decomp import chi_decomposition, zhat_char, zhat_factors
from qgl3.ext import ext1_g, ext1_g1, ext1_g1b
from qgl3.homs import hom_exists_mirror
from qgl3.lattice import (
    POSITIVE_ROOTS,
    Weight,
    check_level,
    decompose,
    facet_classify,
    pairing,
)
from qgl3.structure import nabla_l_filtration, validate_graph, zhat_structure
from qgl3.verify import SUITES, check_sweep, run_suite


def parse_weight(text: str, gl3: bool = False) -> Weight:
    parts = text.split(",")
    want = 3 if gl3 else 2
    if len(parts) != want:
        raise ValueError(f"expected {want} comma-separated integers, got {text!r}")
    nums = [int(p) for p in parts]
    if gl3:
        return Weight(nums[0] - nums[1], nums[1] - nums[2])
    return Weight(nums[0], nums[1])


def _print_char(x, fmt: str) -> None:
    if fmt == "json":
        print(x.to_json())
    else:
        print(f"dim {x.dimension}: {x!r}")


def _print_graph(g, fmt: str, title: str) -> None:
    if fmt == "dot":
        print(g.to_dot())
    elif fmt == "json":
        print(g.to_json())
    else:
        print(f"{title} of the induced module of weight {g.lam} (l={g.l}):")
        for n in g.nodes:
            print(f"  layer {n.layer}: {n.id} = {n.weight}")
        for u, v in g.edges:
            print(f"  {u} -> {v}")


def cmd_classify(args) -> int:
    lam = parse_weight(args.weight, args.gl3)
    facet = facet_classify(lam, args.l)
    cls, res = decompose(lam, args.l)
    pairings = {root.name.lower(): pairing(lam, root) for root in POSITIVE_ROOTS}
    if args.format == "json":
        print(
            json.dumps(
                {
                    "lambda": list(lam),
                    "l": args.l,
                    "facet": facet.value,
                    "classical": list(cls),
                    "restricted": list(res),
                    "pairings": pairings,
                }
            )
        )
    else:
        print(f"{lam}: {facet.value}")
        print(f"  classical part {cls}, restricted part {res}")
        print("  pairings: " + ", ".join(f"{k}={v}" for k, v in pairings.items()))
    return 0


def cmd_char(args) -> int:
    lam = parse_weight(args.weight, args.gl3)
    _print_char(weyl_char(lam), args.format)
    return 0


def cmd_decomp(args) -> int:
    lam = parse_weight(args.weight, args.gl3)
    dec = chi_decomposition(lam, args.l)
    if args.format == "json":
        print(dec.to_json())
    else:
        print(f"{lam} (l={args.l}): case {dec.case_id} [{dec.facet.value}]")
        for f in dec.factors:
            dim = chi_l_dimension(f, args.l)
            print(f"  {f}  chi_l dim {dim}{'' if dim else '  (vanishes)'}")
    return 0


def cmd_zhat(args) -> int:
    lam = parse_weight(args.weight, args.gl3)
    if args.structure:
        _print_graph(zhat_structure(lam, args.l), args.format, "structure")
        return 0
    if args.char:
        _print_char(zhat_char(lam, args.l), args.format)
        return 0
    factors = zhat_factors(lam, args.l)
    if args.format == "json":
        print(json.dumps([list(f) for f in factors]))
    else:
        for f in factors:
            print(f"  {f}")
    return 0


def cmd_lfilt(args) -> int:
    lam = parse_weight(args.weight, args.gl3)
    g = nabla_l_filtration(lam, args.l)
    _print_graph(g, args.format, "good filtration")
    if args.format == "text":
        report = validate_graph(g)
        print(f"  checks: {'ok' if report.ok else report.failures()}")
    return 0


def cmd_ext(args) -> int:
    alpha = parse_weight(args.alpha, args.gl3)
    beta = parse_weight(args.beta, args.gl3)
    if args.level == "g1":
        val = ext1_g1(alpha, beta, args.l)
        if args.format == "json":
            print(json.dumps(val.labels()))
        else:
            print(" + ".join(f"{s}^F" if s != "k" else s for s in val.labels()) or "0")
    elif args.level == "g1b":
        if args.mu is None:
            raise ValueError("--level g1b needs --mu (the induced-module weight)")
        mu = parse_weight(args.mu, args.gl3)
        print(ext1_g1b(mu, alpha, beta, args.l))
    else:
        print(ext1_g(alpha, beta, args.l))
    return 0


def cmd_hom(args) -> int:
    lam = parse_weight(args.lam, args.gl3)
    mu = parse_weight(args.mu, args.gl3)
    w = hom_exists_mirror(lam, mu, args.l)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "lambda": list(lam),
                    "mu": list(mu),
                    "witness": None if w is None else w.to_jsonable(),
                }
            )
        )
    elif w is None:
        print("no witness")
    else:
        print(f"witness: beta={w.beta.name.lower()} m={w.m}")
    return 0


def cmd_verify(args) -> int:
    names = args.suites.split(",")
    l_values = [int(t) for t in args.l.split(",")]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"suite {name!r} is given twice")
        check_sweep(name, l_values, args.box, args.jobs)
    failed = False
    for name in names:
        report = run_suite(name, l_values, args.box, stream=sys.stderr, jobs=args.jobs)
        if report.failures:
            status = f"{len(report.failures)} failures"
        else:
            status = "ok" if report.passed else "failed: no cases checked"
        print(f"{name}: {report.cases_run} cases, {status}")
        failed = failed or not report.passed
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a weight with a negative first entry,
    such as -1,2 or -1,-2,-3, as an argument, the way it reads -1; argparse
    itself takes only a plain negative number for one and reads the rest as
    an unknown option.  Subcommand parsers are of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qgl3", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--l", type=int, required=True, help="order of the root of unity (>= 2)")
        p.add_argument("--gl3", action="store_true", help="parse weights as GL3 triples a,b,c")
        p.add_argument("--format", default="text", choices=("text", "json", "dot"))

    p = sub.add_parser("classify", help="facet type and decomposition of a dominant weight")
    common(p)
    p.add_argument("weight")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("char", help="induced-module character")
    common(p)
    p.add_argument("weight")
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("decomp", help="twisted-tensor factor weights of an induced module")
    common(p)
    p.add_argument("weight")
    p.set_defaults(func=cmd_decomp)

    p = sub.add_parser("zhat", help="Borel-induced module: factors, character or structure")
    common(p)
    p.add_argument("weight")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--structure", action="store_true")
    g.add_argument("--char", action="store_true")
    p.set_defaults(func=cmd_zhat)

    p = sub.add_parser("lfilt", help="good-filtration graph of an induced module")
    common(p)
    p.add_argument("weight")
    p.set_defaults(func=cmd_lfilt)

    p = sub.add_parser("ext", help="Ext^1 lookup")
    common(p)
    p.add_argument("--level", choices=("g1", "g1b", "g"), required=True)
    p.add_argument("--mu", help="induced-module weight (g1b level)")
    p.add_argument("alpha")
    p.add_argument("beta")
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("hom", help="mirror-wall witness for a nonzero hom")
    common(p)
    p.add_argument("lam")
    p.add_argument("mu")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("verify", help="run verification sweeps")
    p.add_argument("--suites", required=True, help=f"comma list from {sorted(SUITES)}")
    p.add_argument("--l", required=True, help="comma list of orders, e.g. 2,3,5")
    p.add_argument("--box", type=int, default=4)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command != "verify":  # verify reads a list of l values
            check_level(args.l)
            graph = args.command == "lfilt" or args.command == "zhat" and args.structure
            if args.format == "dot" and not graph:
                raise ValueError("--format dot is only valid for graph outputs")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
