"""Command-line surface: frobenius, classify, char, schur, verify, fock.

Exit codes: 0 success / all checks pass, 1 verification failure (including
a character that does not decompose), 2 usage error.  --json switches every
subcommand to machine-readable output.  The environment variable
SUPERCHAR_MAX_DEG caps truncation degrees, and the doubled fock --cutoff and
--energy, as a safety rail against accidentally huge expansions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import fock, hwclassify, laurentchars, superschur, symring
from .infmat import fmt_half
from .partitions import (
    Partition,
    from_frobenius,
    parse_frobenius,
    parse_partition,
    rank,
    to_frobenius,
    transpose,
)

IDENTITY_GRID = [
    ("combin-Sp", dict(d=1, m=1)), ("combin-Sp", dict(d=1, m=2)), ("combin-Sp", dict(d=1, m=3)),
    ("combin-Sp", dict(d=2, m=1)), ("combin-Sp", dict(d=2, m=2)), ("combin-Sp", dict(d=2, m=3)),
    ("combin1-i", dict(d=1, D=5)), ("combin1-i", dict(d=2, D=5)),
    ("combin1-ii", dict(d=1, D=5)), ("combin1-ii", dict(d=2, D=5)),
    ("HS", dict(d=1, D=4)), ("HS", dict(d=2, D=4)),
    ("odd-char", dict(n=1, m=1)), ("odd-char", dict(n=1, m=2)),
    ("even-char", dict(n=2, m=2)), ("even-char", dict(n=2, m=3)),
    ("odd-char", dict(n=3, m=3)), ("odd-char", dict(n=3, m=4)),
    ("even-char", dict(n=4, m=4)), ("even-char", dict(n=4, m=5)),
    ("combin1-evenodd-S", dict(n=1, D=4)), ("combin1-evenodd-D", dict(n=1, D=4)),
    ("combin1-evenodd-S", dict(n=2, D=4)), ("combin1-evenodd-D", dict(n=2, D=4)),
    ("combin1-evenodd-S", dict(n=3, D=4)), ("combin1-evenodd-D", dict(n=3, D=4)),
    ("HS-O", dict(n=1, D=4)), ("HS-O", dict(n=2, D=4)), ("HS-O", dict(n=3, D=4)),
    ("tensor-sp", dict(d=1, D=3)), ("tensor-o", dict(n=2, D=3)), ("tensor-o", dict(n=3, D=3)),
]

SMALL_GRID = [case for case in IDENTITY_GRID if case[1].get("m", 0) <= 3 and case[1].get("n", 0) <= 3]

# The largest --d, --n and --m that verify and schur accept.  The work grows
# exponentially in each (e_k of m variables has C(m, k) terms).  The worst
# admitted cases, combin-Sp at d = 3, m = 5 and odd-char at n = 5, m = 5,
# take about 1.5-1.9 s and 0.5-0.7 s in process on a 2-core Xeon with Python
# 3.11.  These caps admit every case of IDENTITY_GRID, of the benchmark's
# hook identities and of CI.
SIZE_CAPS = {"d": 3, "n": 5, "m": 5}


class UsageError(Exception):
    pass


def _max_deg() -> int:
    return int(os.environ.get("SUPERCHAR_MAX_DEG", "12"))


def half_size(text: str) -> int:
    """Argparse type: a non-negative multiple of 1/2 such as "3/2", returned doubled."""
    try:
        val = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if val < 0 or (2 * val).denominator != 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative multiple of 1/2")
    return int(2 * val)


def int_between(low: int, high: int | None = None):
    """Argparse type: an integer from low up to high, or with no upper bound when high is None."""
    def parse(text: str) -> int:
        try:
            val = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if val < low or high is not None and val > high:
            raise argparse.ArgumentTypeError(f"{val} is below {low}" if val < low else f"{val} is above {high}")
        return val
    return parse


def _check_deg(deg: int, flag: str = "--deg"):
    """Usage error when an option asks for a truncation degree above SUPERCHAR_MAX_DEG."""
    if deg > _max_deg():
        raise UsageError(f"{flag} needs degree {deg}, above SUPERCHAR_MAX_DEG={_max_deg()}; raise the cap explicitly")


def _check_size(name: str, value: int):
    """Usage error when --d, --n or --m is above its SIZE_CAPS entry."""
    if value > SIZE_CAPS[name]:
        raise UsageError(f"--{name} {value} is above its cap {SIZE_CAPS[name]}")


def cmd_frobenius(args) -> int:
    if args.inverse:
        data = parse_frobenius(args.value, args.length)
        lam = from_frobenius(data)
        if args.json:
            print(json.dumps(lam.to_json()))
        else:
            print(lam)
        return 0
    lam = parse_partition(args.value, generalized=True)
    data = to_frobenius(lam)
    if args.json:
        out = data.to_json()
        if all(p >= 0 for p in lam.parts):
            out["transpose"] = list(transpose(Partition(lam.parts)).parts)
            out["rank"] = rank(lam)
        print(json.dumps(out))
    else:
        print(data)
    return 0


def cmd_classify(args) -> int:
    w = hwclassify.parse_weight(args.algebra, args.weight)
    qf, cert = hwclassify.is_quasifinite(w)
    rep = hwclassify.is_unitarizable(w)
    result = {
        "weight": w.to_json(),
        "quasifinite": qf,
        "support_radius": cert,
        "unitarizable": rep.ok,
    }
    if not rep.ok:
        result["violated"] = rep.violated
        result["detail"] = rep.detail
    else:
        try:
            result["partition"] = hwclassify.partition_from_weight(w).to_json()
        except ValueError:
            pass
    if args.json:
        print(json.dumps(result))
    else:
        print(f"weight    : {w}")
        print(f"quasifinite: yes (support radius N={cert})")
        if rep.ok:
            lam = result.get("partition")
            extra = f"  label={lam['parts']}" if lam else ""
            print(f"unitarizable: yes{extra}")
        else:
            print(f"unitarizable: no  [{rep.violated}] {rep.detail}")
    return 0


def cmd_char(args) -> int:
    size = args.size
    group = laurentchars.GroupTag(args.group, size)
    lam = parse_partition(args.weight, generalized=(args.group == "GL"))
    try:
        chi = laurentchars.char_group(group, lam)
    except OverflowError as exc:  # the packed exponent width of LaurentPoly
        raise UsageError(f"weight {list(lam.parts)} is too large: {exc}") from None
    if args.json:
        print(json.dumps({"group": str(group), "weight": lam.to_json(), "character": chi.to_json()}))
    else:
        print(chi)
        print(f"dimension at z=1: {chi.eval_ones()}")
    return 0


def cmd_schur(args) -> int:
    _check_deg(args.deg)
    lam = Partition(parse_partition(args.weight).parts)
    if args.family == "sp":
        fn = {"plain": superschur.sp_schur, "skew": superschur.sp_skew, "hook": superschur.sp_hook}
        f = fn[args.variant](lam, args.deg)
    else:
        if args.n is None:
            raise UsageError("--family so requires --n")
        _check_size("n", args.n)
        fn = {"plain": superschur.so_schur, "skew": superschur.so_skew, "hook": superschur.so_hook}
        f = fn[args.variant](lam, args.n, args.deg)
    if args.json:
        print(json.dumps({"terms": f.to_json(), "degree_cap": f.cap}))
    else:
        print(f)
    return 0


def _verify_cases(args):
    if args.all:
        return SMALL_GRID if args.small else IDENTITY_GRID
    if not args.identity:
        raise UsageError("verify needs --identity TAG or --all")
    params = {}
    for name in ("d", "n", "m"):
        val = getattr(args, name)
        if val is not None:
            params[name] = val
    if args.deg is not None:
        _check_deg(args.deg)
        params["D"] = args.deg
    faults = superschur.param_faults(args.identity, params)
    if faults:
        raise UsageError(f"--identity {args.identity}: " + "; ".join(
            ("--deg" if p == "D" else f"--{p}") + f" {why}" for p, why in faults))
    for name in SIZE_CAPS:
        if name in params:
            _check_size(name, params[name])
    return [(args.identity, params)]


def cmd_verify(args) -> int:
    cases = _verify_cases(args)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(cases))) as pool:
            reports = list(pool.map(_run_case, cases))
    else:
        reports = [_run_case(case) for case in cases]
    failed = [r for r in reports if r["status"] != "pass"]
    if args.json:
        print(json.dumps(reports))
    else:
        for r in reports:
            mark = "PASS" if r["status"] == "pass" else "FAIL"
            print(f"{mark}  {r['identity']} {r['params']}")
            if r["status"] != "pass":
                print(f"      first mismatch: {r.get('first_mismatch')}")
    return 1 if failed else 0


def _run_case(case):
    tag, params = case
    return superschur.verify_identity(tag, **params)


def cmd_fock(args) -> int:
    # a doubled energy is the hook Schur degree the same cutoff needs
    if args.action == "gram":
        _check_deg(args.energy2, f"--energy {Fraction(args.energy2, 2)}")
    elif args.action != "hwv":
        _check_deg(args.cutoff2, f"--cutoff {Fraction(args.cutoff2, 2)}")
    if args.space.endswith("+1/2"):
        if args.algebra not in (None, "D"):
            raise UsageError(f"a d+1/2 space carries only the D algebra, not {args.algebra}")
        d = int(args.space[: -len("+1/2")])
        space = fock.Space("Dodd", d)
        default_algebra = "Dodd"
    else:
        if args.algebra == "gl" and args.action != "gram":
            raise UsageError(f"--algebra gl reads only --action gram, not {args.action}: "
                             "there is no duality decomposition for algebra 'gl'")
        d = int(args.space)
        space = fock.Space("gl" if args.algebra == "gl" else "A", d)
        default_algebra = {"A": "A", "C": "C", "D": "Deven"}.get(args.algebra, "C")
    if args.action == "character":
        ch = fock.fock_character(space, args.cutoff2)
        out = []
        for (z, eps), wmonos in sorted(ch.items()):
            for wm, c in sorted(wmonos.items()):
                out.append({"z": list(z), "eps": eps, "x": wm[0], "y": wm[1], "count": c})
        if args.json:
            print(json.dumps(out))
        else:
            for row in out:
                print(row)
        return 0
    if args.action == "decompose":
        dec = fock.duality_decompose(space, default_algebra, args.cutoff2)
        report = []
        for lam in sorted(dec, key=lambda l: l.parts):
            series = symring.energy_series(dec[lam])
            report.append(
                {
                    "lambda": list(lam.parts),
                    "graded_dim": {str(Fraction(e2, 2)): v for e2, v in sorted(series.items())},
                }
            )
        if args.json:
            print(json.dumps(report))
        else:
            for row in report:
                print(f"lambda={row['lambda']}  graded dims {row['graded_dim']}")
        return 0
    if args.action == "gram":
        basis, mat = fock.gram_matrix(space, args.energy2, args.conjugation)
        # the monomial basis is orthogonal: the form is positive definite iff every norm is positive
        norms = [row[i] for i, row in enumerate(mat)]
        posdef = all(norm > 0 for norm in norms)
        cells = [["0"] * len(norms) for _ in norms]
        for i, norm in enumerate(norms):
            cells[i][i] = str(norm)
        if args.json:
            print(
                json.dumps(
                    {
                        "basis": [fock.fmt_state(b) for b in basis],
                        "matrix": cells,
                        "positive_definite": posdef,
                    }
                )
            )
        else:
            for b, row in zip(basis, cells):
                print(fock.fmt_state(b), row)
            print("positive definite:", posdef)
        return 0
    if args.action == "hwv":
        if args.hw is None:
            raise UsageError("--action hwv needs --hw")
        lam_parts = parse_partition(args.hw, generalized=True)
        algebra = default_algebra
        vec = fock.hwv_candidate(space, algebra, lam_parts, variant=args.variant)
        ok, wit = fock.singularity_check(space, algebra, vec)
        shown = wit
        if isinstance(wit, tuple):  # the (p, q) of the first generator that does not kill vec, in halves
            wit = [fmt_half(i2) for i2 in wit]
            shown = f"({', '.join(wit)})"
        if args.json:
            print(json.dumps({"vector": str(vec), "singular": ok, "witness": wit}))
        else:
            print(vec)
            print("singular:", ok if ok else f"no (witness {shown})")
        return 0 if ok else 1
    raise UsageError(f"unknown action {args.action!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="superchar", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frobenius", help="shifted Frobenius coordinates of a (generalized) partition")
    p.add_argument("value", help='partition literal "[4,3,1,0,0]" or quartet with --inverse')
    p.add_argument("--inverse", action="store_true", help="value is a quartet literal")
    p.add_argument("--length", type=int, default=0, help="declared length for --inverse")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("classify", help="quasi-finiteness and unitarizability of a weight")
    p.add_argument("--algebra", required=True, choices=list(hwclassify.ALGEBRAS))
    p.add_argument("--weight", required=True, help='e.g. "1/2:2,1:1; level=2"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("char", help="classical group character as a Laurent polynomial")
    p.add_argument("--group", required=True, choices=["Sp", "O", "GL"])
    p.add_argument("--size", type=int, required=True, help="d for GL/Sp(2d), n for O(n)")
    p.add_argument("--weight", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("schur", help="symplectic/orthogonal Schur functions")
    p.add_argument("--family", required=True, choices=["sp", "so"])
    p.add_argument("--variant", default="plain", choices=["plain", "skew", "hook"])
    p.add_argument("--weight", required=True, help="partition literal, declared length = weight")
    p.add_argument("--n", type=int_between(1), help="n for the so family (weight n/2)")
    p.add_argument("--deg", type=int_between(0), required=True, help="truncation degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("verify", help="check Cauchy/tensor identities coefficient by coefficient")
    p.add_argument("--identity", choices=list(superschur.IDENTITIES), help="identity tag")
    p.add_argument("--all", action="store_true", help="run the whole battery")
    p.add_argument("--small", action="store_true", help="with --all: desk-scale grid only")
    for name in ("d", "n", "m"):
        p.add_argument(f"--{name}", type=int_between(1), help=f"at most {SIZE_CAPS[name]}")
    p.add_argument("--deg", type=int_between(0))
    p.add_argument("--jobs", type=int_between(1, os.cpu_count() or 1), default=1,
                   help="worker processes, 1 to the CPU count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fock", help="Fock space computations")
    p.add_argument("--space", required=True, help='"1", "2", or "1+1/2" style d or d+1/2')
    p.add_argument("--action", required=True, choices=["decompose", "gram", "character", "hwv"])
    p.add_argument("--algebra", choices=["gl", "A", "C", "D"],
                   help="dual algebra: C by default on a d space, D (the only one) on d+1/2; "
                   "gl only with --action gram")
    p.add_argument("--cutoff", dest="cutoff2", type=half_size, default="2", metavar="CUTOFF",
                   help="energy cutoff, a non-negative multiple of 1/2")
    p.add_argument("--energy", dest="energy2", type=half_size, default="1", metavar="ENERGY",
                   help="gram matrix level, a non-negative multiple of 1/2")
    p.add_argument("--conjugation", default="signed", choices=["signed", "naive", "paper"])
    p.add_argument("--hw", help="partition label of declared length d (A, C) or 2d (D, d+1/2: 2d+1), for hwv")
    p.add_argument("--variant", default="X", choices=["X", "Xt"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fock)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except laurentchars.DecompositionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
