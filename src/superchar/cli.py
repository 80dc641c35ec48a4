"""Command-line surface: frobenius, classify, char, schur, verify, fock.

Exit codes: 0 success / all checks pass, 1 verification failure (including
a character that does not decompose), 2 usage error.  --json switches every
subcommand to machine-readable output.  Every user-controlled size has a cap
in SIZE_CAPS, checked by the argparse type that reads the flag, or by
`_check_costs` when the cost reads two flags; a size above its cap is a usage
error that runs nothing.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from math import factorial, prod

from . import fock, hwclassify, laurentchars, partitions, superschur, symring
from .infmat import fmt_half

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

# The largest size the CLI accepts, by name; no option raises one.  A comment
# names the worst admitted case, timed in process (2-core Xeon, Python 3.11).
# Every case of IDENTITY_GRID, of the benchmark and of CI is admitted.
SIZE_CAPS = {
    # verify --d, --n, --m and schur --n (e_k of m variables has C(m, k) terms):
    # combin-Sp at d = 3, m = 5 0.09 s, odd-char at n = m = 5 0.03 s (2-core Xeon, Python 3.11)
    "d": 3, "n": 5, "m": 5,
    "deg": 12,  # verify and schur --deg, the doubled fock --cutoff and --energy; worst: tensor-sp at d = 3, 12.7 s
    "size": 6,  # char --size, entries of a char or schur --weight: sp hook of six zeros at --deg 12, 0.2 s
    "length": 8,  # entries of a frobenius literal or a fock --hw label, and frobenius --length
    "entry": 2**21 - 1,  # |integers| of a literal or a classify --weight: frobenius of eight at the cap, 0.3 s
    # the doubled level of fock --space (2d + 1 for d+1/2): at 4, --cutoff 6, the character 0.7 s and 29 MB
    # with --json (its 16,641 keys take 0.05 s to build), decompose 0.09 s (C), 0.21 s (A, the worst), 3+1/2 0.11 s
    "space": 8,
    # the doubled --energy of fock --action gram at d = 0..4, for its dense n x n matrix: gl at
    # d = 3, --energy 2 has 2,472 states, 0.5 s (the matrix 0.07 s, the rest rendering) and 173 MB with --json
    "gram": (12, 10, 6, 4, 2),
    # the first part of a char weight's core (lam - lam_d for GL) or of a fock --hw label;
    # Sp and O expand a determinant with a row per column over its 2^columns minors: Sp(2) [16], 0.2 s
    "columns": 16,
    # the points of the box that holds a char weight's character, (lam_1 - lam_d + 1)^d
    # for GL(d) and (2 lam_1 + 1)^rank for Sp and O: Sp(6) [10,10,10], 1.3 s
    "box": 10**4,
    # a fock --hw label's columns (both signs) times their lengths' factorials: a column of length c gives
    # a Grassmann minor of at most c! monomials.  D [1^8] at --space 4: 0.02 s, peak RSS 18 MB
    "hw": 40320,
}


class UsageError(Exception):
    pass


def _cap(value, cap, name: str = "", error=argparse.ArgumentTypeError):
    """value, or error when it is above the cap (the message starts with name)."""
    if value > cap:
        raise error(f"{name}{value} is above its cap {cap}")
    return value


def int_between(low: int, cap: str):
    """Argparse type: an integer from low up to SIZE_CAPS[cap]."""
    def parse(text: str) -> int:
        try:
            val = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if val < low:
            raise argparse.ArgumentTypeError(f"{val} is below {low}")
        return _cap(val, SIZE_CAPS[cap])
    return parse


def half_size(cap: str):
    """Argparse type: a non-negative multiple of 1/2 such as "3/2" or "1+1/2", doubled, at most SIZE_CAPS[cap]."""
    def parse(text: str) -> int:
        try:
            val = sum(map(Fraction, text.split("+")))
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if val < 0 or (2 * val).denominator != 1:
            raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative multiple of 1/2")
        return _cap(int(2 * val), SIZE_CAPS[cap], "doubled ")
    return parse


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in re.findall(r"-?\d+", text)]


def literal(count: str | None = None):
    """Argparse type: a literal whose integers are at most SIZE_CAPS["entry"] in
    absolute value and, when count is given, at most SIZE_CAPS[count] in number."""
    def parse(text: str) -> str:
        ints = _ints(text)
        if count:
            _cap(len(ints), SIZE_CAPS[count], "entries ")
        _cap(max(map(abs, ints), default=0), SIZE_CAPS["entry"], "entry ")
        return text
    return parse


def hw_label(text: str) -> str:
    """Argparse type: a fock --hw label, a literal with capped columns and terms (see SIZE_CAPS["hw"])."""
    parts = _ints(literal("length")(text))
    _cap(max(map(abs, parts), default=0), SIZE_CAPS["columns"], "columns ")
    cols = [c for sign in (1, -1) for c in partitions._column_lengths([sign * p for p in parts if sign * p > 0])]
    _cap(len(cols) * prod(map(factorial, cols)), SIZE_CAPS["hw"], "terms ")
    return text


def _check_costs(args):
    """Usage error when a cap that reads two flags is exceeded: the columns and
    box of a char weight, and the --energy of fock --action gram at its --space;
    also fock --action decompose at --space 0, which has no dual group."""
    if args.command == "char":
        parts = _ints(args.weight)
        gl = args.group == "GL"
        columns = max(parts, default=0) - min(parts, default=0) if gl else max(map(abs, parts), default=0)
        _cap(columns, SIZE_CAPS["columns"], f"--weight {args.weight}: columns ", UsageError)
        box = (columns + 1 if gl else 2 * columns + 1) ** (args.size // 2 if args.group == "O" else args.size)
        _cap(box, SIZE_CAPS["box"], f"--weight {args.weight} at --size {args.size}: box ", UsageError)
    if args.command == "fock" and args.action == "gram":
        d = args.space2 // 2
        _cap(args.energy2, SIZE_CAPS["gram"][d], f"--energy at --space {d}: doubled ", UsageError)
    if args.command == "fock" and args.action == "decompose" and args.space2 == 0:
        raise UsageError("--action decompose needs --space of at least 1/2, not 0")


def cmd_frobenius(args) -> int:
    if args.inverse:
        lam = partitions.from_frobenius(partitions.parse_frobenius(args.value, args.length))
        if args.json:
            print(json.dumps(lam.to_json()))
        else:
            print(lam)
        return 0
    lam = partitions.parse_partition(args.value, generalized=True)
    data = partitions.to_frobenius(lam)
    if args.json:
        out = data.to_json()
        if all(p >= 0 for p in lam.parts):
            out["transpose"] = list(partitions.transpose(partitions.Partition(lam.parts)).parts)
            out["rank"] = partitions.rank(lam)
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
        result.update(violated=rep.violated, detail=rep.detail)
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
    group = laurentchars.GroupTag(args.group, args.size)
    lam = partitions.parse_partition(args.weight, generalized=(args.group == "GL"))
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
    lam = partitions.Partition(partitions.parse_partition(args.weight).parts)
    if args.family == "so" and args.n is None:
        raise UsageError("--family so requires --n")
    fn = getattr(superschur, f"{args.family}_{args.variant.replace('plain', 'schur')}")
    f = fn(lam, args.deg) if args.family == "sp" else fn(lam, args.n, args.deg)
    if args.json:
        print(json.dumps({"terms": f.to_json(), "degree_cap": f.cap}))
    else:
        print(f)
    return 0


def _verify_cases(args):
    if args.all:
        return IDENTITY_GRID
    if not args.identity:
        raise UsageError("verify needs --identity TAG or --all")
    params = {name: getattr(args, name) for name in ("d", "n", "m") if getattr(args, name) is not None}
    if args.deg is not None:
        params["D"] = args.deg
    faults = superschur.param_faults(args.identity, params)
    if faults:
        raise UsageError(f"--identity {args.identity}: " + "; ".join(
            ("--deg" if p == "D" else f"--{p}") + f" {why}" for p, why in faults))
    return [(args.identity, params)]


def cmd_verify(args) -> int:
    reports = [superschur.verify_identity(tag, **params) for tag, params in _verify_cases(args)]
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


def cmd_fock(args) -> int:
    d, odd = divmod(args.space2, 2)
    space = fock.Space("Dodd" if odd else "gl" if args.algebra == "gl" else "A", d)
    # the library algebra that fits the space, named by --algebra or by its family (D: Deven or Dodd)
    name = args.algebra or ("D" if odd else "C")
    algebra = next((alg for alg, (family, _) in fock.DUAL_PAIRS.items()
                    if name in (alg, family) and fock._fits(space, alg)), None)
    if algebra is None:
        raise UsageError(f"a d+1/2 space carries only the D algebra, not {args.algebra}")
    if args.algebra == "gl" and args.action != "gram":
        raise UsageError(f"--algebra gl reads only --action gram, not {args.action}: "
                         "there is no duality decomposition for algebra 'gl'")
    if args.action == "character":
        ch = fock.character_product_formula(space, args.cutoff2)
        # a key's rows at a time: at --space 4 --cutoff 6 --json a list of every row peaked at 106 MB, this at 29 MB
        first = True
        for (z, eps), wmonos in sorted(ch.items()):
            rows = [{"z": list(z), "eps": eps, "x": wm[0], "y": wm[1], "count": c} for wm, c in sorted(wmonos.items())]
            if args.json:  # the text of json.dumps of the list of every row
                sys.stdout.write(("[" if first else ", ") + json.dumps(rows)[1:-1])
                first = False
            else:
                print("\n".join(map(str, rows)))
        if args.json:
            print("[]" if first else "]")
        return 0
    if args.action == "decompose":
        dec = fock.duality_decompose(space, algebra, args.cutoff2)
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
    if args.hw is None:
        raise UsageError("--action hwv needs --hw")
    lam = partitions.parse_partition(args.hw, generalized=True)
    vec = fock.hwv_candidate(space, algebra, lam, variant=args.variant)
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="superchar", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frobenius", help="shifted Frobenius coordinates of a (generalized) partition")
    p.add_argument("value", type=literal("length"), help='partition literal "[4,3,1,0,0]" or quartet with --inverse')
    p.add_argument("--inverse", action="store_true", help="value is a quartet literal")
    p.add_argument("--length", type=int_between(0, "length"), default=0, help="declared length for --inverse")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("classify", help="quasi-finiteness and unitarizability of a weight")
    p.add_argument("--algebra", required=True, choices=list(hwclassify.ALGEBRAS))
    p.add_argument("--weight", required=True, type=literal(), help='e.g. "1/2:2,1:1; level=2"')
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("char", help="classical group character as a Laurent polynomial")
    p.add_argument("--group", required=True, choices=["Sp", "O", "GL"])
    p.add_argument("--size", type=int_between(1, "size"), required=True, help="d for GL/Sp(2d), n for O(n)")
    p.add_argument("--weight", type=literal("size"), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("schur", help="symplectic/orthogonal Schur functions")
    p.add_argument("--family", required=True, choices=["sp", "so"])
    p.add_argument("--variant", default="plain", choices=["plain", "skew", "hook"])
    p.add_argument("--weight", type=literal("size"), required=True, help="partition literal, declared length = weight")
    p.add_argument("--n", type=int_between(1, "n"), help="n for the so family (weight n/2)")
    p.add_argument("--deg", type=int_between(0, "deg"), required=True, help="truncation degree")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("verify", help="check Cauchy/tensor identities coefficient by coefficient")
    p.add_argument("--identity", choices=list(superschur.IDENTITIES), help="identity tag")
    p.add_argument("--all", action="store_true", help="run the whole battery")
    for name in ("d", "n", "m"):
        p.add_argument(f"--{name}", type=int_between(1, name), help=f"at most {SIZE_CAPS[name]}")
    p.add_argument("--deg", type=int_between(0, "deg"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fock", help="Fock space computations")
    p.add_argument("--space", dest="space2", type=half_size("space"), required=True, metavar="SPACE",
                   help='"1", "2", or "1+1/2" style d or d+1/2')
    p.add_argument("--action", required=True, choices=["decompose", "gram", "character", "hwv"])
    p.add_argument("--algebra", choices=["gl", "A", "C", "D"],
                   help="dual algebra: C by default on a d space, D (the only one) on d+1/2; "
                   "gl only with --action gram")
    p.add_argument("--cutoff", dest="cutoff2", type=half_size("deg"), default="2", metavar="CUTOFF",
                   help="energy cutoff, a non-negative multiple of 1/2")
    p.add_argument("--energy", dest="energy2", type=half_size("deg"), default="1", metavar="ENERGY",
                   help="gram matrix level, a non-negative multiple of 1/2")
    p.add_argument("--conjugation", default="signed", choices=list(fock.CONJUGATIONS))
    p.add_argument("--hw", type=hw_label,
                   help="partition label of declared length d (A, C) or 2d (D, d+1/2: 2d+1), for hwv")
    p.add_argument("--variant", default="X", choices=["X", "Xt"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fock)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        _check_costs(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except laurentchars.DecompositionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
