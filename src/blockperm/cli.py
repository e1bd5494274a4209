"""Command-line interface.

Every command writes deterministic bytes for identical invocations.  Exit
codes: 0 on success, 1 when a verification (or cross-method comparison)
fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter

from blockperm import hopf, ncsym, schurweyl, verify
from blockperm.hopf import Element, element_to_json, parse_element, tensor_to_json
from blockperm.monoid import (
    EnumerationCeilingError,
    _check_ceiling,
    count_ubp,
    count_ubp_recursive,
    enumerate_ubp,
    enumeration_ceiling,
    hasse_component,
)
from blockperm.partitions import parse_set_partition


# Largest N for which `count` runs the closed form.  It sums over every integer
# partition of N, so it takes 4 s at N = 45, where the recursion takes 3 ms.
FORMULA_CAP = 30
# Largest N `count` accepts.  Its O(N^2) recursion works on big integers, so
# it takes about 0.7 s at N = 400 and 9 s at N = 800 (one core, Python 3.11).
RECURSION_CAP = 400
# Most terms `op product` may generate, counted before multiplying as the sum
# of C(p+q, p) over pairs of operand terms of degrees p and q.  A term costs
# about 0.1 ms, printing included: the sum of the 131 degree-4 diagrams times
# four degree-3 diagrams (18,340 terms) takes 1.8 s and prints 1.1 MB, and
# times all 16 (73,360 terms) 6.6 s and 4.3 MB (one core, Python 3.11).
PRODUCT_TERM_CAP = 20_000


def _count(args) -> int:
    n = args.n
    if n > RECURSION_CAP:
        raise ValueError(f"count is capped at N = {RECURSION_CAP}; lower N")
    ceiling = enumeration_ceiling()
    recursion = count_ubp_recursive(n)
    formula = count_ubp(n) if n <= FORMULA_CAP else None
    enumerated = len(enumerate_ubp(n)) if n <= ceiling else None
    agree = len({formula, recursion, enumerated} - {None}) == 1
    if args.format == "json":
        data = {"n": n, "formula": formula, "recursion": recursion, "enumeration": enumerated}
        print(json.dumps(data | {"agree": agree}, sort_keys=True))
    else:
        print(f"degree {n}")
        if n > FORMULA_CAP:
            print(f"formula skipped (cap {FORMULA_CAP})")
        else:
            print(f"formula     {formula}")
        print(f"recursion   {recursion}")
        if n > ceiling:
            print(f"enumeration skipped (ceiling {ceiling})")
        else:
            print(f"enumeration {enumerated}")
        if not agree:
            print("error: counting methods disagree", file=sys.stderr)
    return 0 if agree else 1


def _op(args) -> int:
    verb = args.verb
    x = parse_element(args.x)
    if verb in ("product", "pair"):
        if args.y is None:
            raise ValueError(f"{verb} needs two operands")
        y = parse_element(args.y)
    elif args.y is not None:
        raise ValueError(f"{verb} takes a single operand")
    if verb != "pair":
        # A product has C(p+q, p) terms per pair of terms, a coproduct up to
        # n + 1 per term of degree n, and the antipode recursion grows
        # exponentially with the number of breaking points.
        for operand in (x, y) if verb == "product" else (x,):
            for f in operand.terms:
                _check_ceiling(f.n)
    if verb == "product":
        x_degrees, y_degrees = (Counter(f.n for f in z.terms) for z in (x, y))
        terms = sum(
            a * b * math.comb(p + q, p)
            for p, a in x_degrees.items()
            for q, b in y_degrees.items()
        )
        if terms > PRODUCT_TERM_CAP:
            raise ValueError(
                f"product would generate {terms} terms (cap {PRODUCT_TERM_CAP}); "
                "split the operands"
            )
        result = hopf.product(x, y)
        payload = element_to_json(result)
    elif verb == "coproduct":
        result = hopf.coproduct(x)
        payload = tensor_to_json(result)
    elif verb == "antipode":
        result = hopf.antipode(x)
        payload = element_to_json(result)
    else:
        result = hopf.pairing(x, y)
        payload = result
    if args.format == "json":
        print(json.dumps({"op": verb, "result": payload}, sort_keys=True))
    else:
        print(result)
    return 0


def _hasse(args) -> int:
    a = parse_set_partition(args.partition)
    nodes, covers = hasse_component(a)
    if args.format == "json":
        data = {
            "partition": str(a),
            "nodes": [str(f) for f in nodes],
            "covers": [list(edge) for edge in covers],
        }
        print(json.dumps(data, sort_keys=True))
        return 0
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for f in nodes:
        lines.append(f'  "{f}";')
    for i, j in covers:
        lines.append(f'  "{nodes[i]}" -> "{nodes[j]}";')
    lines.append("}")
    print("\n".join(lines))
    return 0


def _verify(args) -> int:
    suite = args.suite
    if (args.n, args.m, args.r) != (None, None, None):
        if suite != "schurweyl":
            raise ValueError(
                "--n, --m and --r select a single case of the schurweyl suite"
            )
        # The case ignores --max-n and --jobs, but refuses what the suite refuses.
        verify._refuse_negative(args.max_n)
        verify._refuse_no_workers(args.jobs)
        return _verify_schurweyl_case(args)
    checks = verify.run_suite(suite, max_n=args.max_n, jobs=args.jobs)
    ok = all(c.passed for c in checks)
    if args.format == "json":
        data = {
            "suite": suite,
            "passed": ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in checks
            ],
        }
        print(json.dumps(data, sort_keys=True))
    else:
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            print(f"{status} {c.name}{suffix}")
        print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return 0 if ok else 1


def _verify_schurweyl_case(args) -> int:
    n = args.n if args.n is not None else 2
    m = args.m if args.m is not None else max(2 * n, 1)
    r = args.r if args.r is not None else n + 1
    # Refuse before building anything; the rank enumerates degree n.
    _check_ceiling(n)
    schurweyl._check_dim(m, n)

    monoid_names = [f"s_{i}" for i in range(1, n)] + [f"b_{i}" for i in range(1, n)]
    group_names = [f"t_{l}" for l in range(1, m + 1)] + [
        f"swap_{j},{j + 1}" for j in range(1, m)
    ]
    pairs = [
        {"monoid": monoid_names[i], "group": group_names[j], "commutes": commutes}
        for i, j, commutes in schurweyl.commutation_pairs(n, m, r)
    ]
    all_commute = all(entry["commutes"] for entry in pairs)

    rank = schurweyl.action_span_rank(n, m)
    size = count_ubp(n)

    spot_checks = []
    conv_ok = True
    if 2 ** (2 * n) <= schurweyl.DEFAULT_DIM_CEILING:
        samples = enumerate_ubp(min(n, 2))[:3]
        for f in samples:
            for g in samples:
                conv = schurweyl.convolution_action(f, g, 2)
                prod = hopf.product(Element.basis(f), Element.basis(g))
                agrees = conv == schurweyl.element_action_matrix(prod, 2)
                conv_ok = conv_ok and agrees
                spot_checks.append({"f": str(f), "g": str(g), "agrees": agrees})

    ok = all_commute and conv_ok and (rank == size if m >= 2 * n else True)
    data = {
        "n": n,
        "m": m,
        "r": r,
        "commutation_pairs": pairs,
        "commutation": all_commute,
        "rank": rank,
        "monoid_size": size,
        "rank_is_full": rank == size,
        "convolution_spot_checks": spot_checks,
        "passed": ok,
    }
    if args.format == "json":
        print(json.dumps(data, sort_keys=True))
    else:
        for entry in pairs:
            status = "commutes" if entry["commutes"] else "FAILS to commute"
            print(f"[{entry['monoid']}, {entry['group']}] {status}")
        print(f"commutation(n={n}, m={m}, r={r}): {'PASS' if all_commute else 'FAIL'}")
        print(f"action span rank: {rank} (monoid size {size})")
        if m < 2 * n:
            print("note: below the doubled-dimension threshold the rank may drop")
        for entry in spot_checks:
            status = "agrees" if entry["agrees"] else "DISAGREES"
            print(f"convolution {entry['f']} with {entry['g']}: {status}")
    return 0 if ok else 1


def _series(args) -> int:
    terms = args.terms
    if terms > 12:
        raise ValueError("series is capped at 12 terms; lower --terms")
    u = hopf.ubp_counts(terms)
    v = hopf.primitive_series(terms)
    if args.format == "json":
        print(json.dumps({"counts": u, "primitive_dims": v}, sort_keys=True))
    else:
        print("counts      " + ", ".join(str(x) for x in u))
        print("primitives  " + ", ".join(str(x) for x in v))
    return 0


def _pbasis(args) -> int:
    if args.direction == "to-element":
        u = ncsym.parse_p_element(args.text)
        result = ncsym.to_element(u)
        payload = element_to_json(result)
    else:
        x = parse_element(args.text)
        result = ncsym.from_element(x)
        payload = [
            {"coeff": c, "term": str(a)} for a, c in result.sorted_terms()
        ]
    if args.format == "json":
        print(json.dumps({"result": payload}, sort_keys=True))
    else:
        print(result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockperm",
        description="Exact computations with uniform block permutations.",
    )
    parser.add_argument(
        "--ceiling",
        type=int,
        default=None,
        help="override the enumeration ceiling (also: BLOCKPERM_CEILING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count elements of a given degree")
    p_count.add_argument("n", type=int)
    _add_format(p_count)
    p_count.set_defaults(func=_count)

    p_op = sub.add_parser("op", help="algebra operations on element text")
    p_op.add_argument("verb", choices=["product", "coproduct", "antipode", "pair"])
    p_op.add_argument("x")
    p_op.add_argument("y", nargs="?", default=None)
    _add_format(p_op)
    p_op.set_defaults(func=_op)

    p_hasse = sub.add_parser("hasse", help="weak-order component of a partition")
    p_hasse.add_argument("partition")
    _add_format(p_hasse)
    p_hasse.set_defaults(func=_hasse)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=sorted(verify.SUITES))
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--m", type=int, default=None)
    p_verify.add_argument("--r", type=int, default=None)
    _add_format(p_verify)
    p_verify.set_defaults(func=_verify)

    p_series = sub.add_parser("series", help="degree counts and primitive dimensions")
    p_series.add_argument("--terms", type=int, default=6)
    _add_format(p_series)
    p_series.set_defaults(func=_series)

    p_pb = sub.add_parser(
        "pbasis", help="convert between p-basis text and element text"
    )
    p_pb.add_argument("direction", choices=["to-element", "from-element"])
    p_pb.add_argument("text")
    _add_format(p_pb)
    p_pb.set_defaults(func=_pbasis)

    return parser


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "json"], default="text")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    saved = os.environ.get("BLOCKPERM_CEILING")
    if args.ceiling is not None:
        os.environ["BLOCKPERM_CEILING"] = str(args.ceiling)
    try:
        return args.func(args)
    except (EnumerationCeilingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # keep main() re-entrant: the flag must not outlive the invocation
        if args.ceiling is not None:
            if saved is None:
                os.environ.pop("BLOCKPERM_CEILING", None)
            else:
                os.environ["BLOCKPERM_CEILING"] = saved


if __name__ == "__main__":
    sys.exit(main())
