"""The four benchmark workloads: what one pass runs and how its results are checked.

A workload is a fixed list of cases.  The seed only permutes their order (and
the order of labels inside a case), so every seed costs the same work.  Each
case has a `run` step, which is the timed call into superchar, and a `check`
step, run after timing, which turns the output into named checks.  A check
is `(verdict, payload)`: the verdict is the program's own pass/fail claim, the
payload the mathematical result whose digest is compared with the one
recorded at the seed commit (perfbench/digests.json).  Timing and formatting
fields never enter a payload.

Library functions are always reached through their module attribute
(`fock.hwv_candidate`, not an imported name), so the tracer's wrappers see
every call the harness makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# (tag, params) exactly as `superchar.cli.IDENTITY_GRID` held them at the seed
# commit.  The benchmark owns its copy so a later change to the grid cannot
# change the work a pass measures.
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

HOOK_IDENTITIES = [
    ("HS", dict(d=2, D=7)),
    ("HS", dict(d=3, D=6)),
    ("HS-O", dict(n=4, D=6)),
    ("HS-O", dict(n=5, D=6)),
    ("combin1-i", dict(d=3, D=6)),
    ("combin1-ii", dict(d=3, D=6)),
    ("tensor-sp", dict(d=2, D=4)),
    ("tensor-o", dict(n=4, D=4)),
]

# (space kind, d, dual algebra); cutoff 5, i.e. doubled cutoff 10.
FOCK_SPACES = [("A", 3, "C"), ("Dodd", 2, "Dodd"), ("A", 2, "A"), ("A", 2, "Deven")]
FOCK_CUTOFF2 = 10
CROSS_CUTOFF2 = 6  # hook Schur cross-check on A/C d=2; larger cutoffs hide the Fock layer

# (d, doubled energy, conjugation); the signed form must be positive definite,
# the naive one indefinite.
GRAM_CASES = [(1, e2, "signed") for e2 in range(1, 7)] + [(2, e2, "signed") for e2 in range(1, 5)]
GRAM_CASES.append((1, 1, "naive"))


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]  # output -> {check id: (verdict, payload)}


def case_key(tag: str, params: dict) -> str:
    return tag + " " + " ".join(f"{k}={v}" for k, v in sorted(params.items()))


def _cli(argv: list[str]) -> tuple[int, str]:
    from superchar import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _verify_argv(tag: str, params: dict) -> list[str]:
    argv = ["verify", "--identity", tag, "--json"]
    for key, val in sorted(params.items()):
        argv += ["--deg" if key == "D" else f"--{key}", str(val)]
    return argv


def _check_verify(output) -> dict:
    code, text = output
    out = {}
    for report in json.loads(text):
        payload = {k: report[k] for k in ("identity", "params", "status")}
        out[case_key(report["identity"], report["params"])] = (report["status"] == "pass" and code == 0, payload)
    return out


def _verify_grid(rng: random.Random) -> list[Case]:
    grid = list(IDENTITY_GRID)
    rng.shuffle(grid)

    def run():
        from superchar import cli

        saved = cli.IDENTITY_GRID
        cli.IDENTITY_GRID = grid
        try:
            return _cli(["verify", "--all", "--json"])
        finally:
            cli.IDENTITY_GRID = saved

    return [Case("verify --all", run, _check_verify)]


def _hook_identities(rng: random.Random) -> list[Case]:
    cases = [
        Case(case_key(tag, params), lambda argv=_verify_argv(tag, params): _cli(argv), _check_verify)
        for tag, params in HOOK_IDENTITIES
    ]
    rng.shuffle(cases)
    return cases


def _wm_json(wm) -> list:
    return [list(map(list, wm[0])), list(map(list, wm[1]))]


def _graded(mults: dict) -> list:
    return sorted([_wm_json(wm), int(c)] for wm, c in mults.items() if c)


def _fock_duality(rng: random.Random) -> list[Case]:
    from superchar import fock

    cases = []
    for kind, d, algebra in FOCK_SPACES:
        space_id = f"{kind}/{algebra} d={d}"

        # one case per space, so that the memory-heavy steps of a space always
        # follow one another in the same order and peak memory does not
        # depend on the seed
        def run_space(kind=kind, d=d, algebra=algebra):
            space = fock.Space(kind, d)
            enumerated = fock.fock_character(space, FOCK_CUTOFF2)
            same = enumerated == fock.character_product_formula(space, FOCK_CUTOFF2)
            character = sorted([list(z), eps, _graded(slot)] for (z, eps), slot in enumerated.items())
            del enumerated
            dec = fock.duality_decompose(space, algebra, FOCK_CUTOFF2)
            labels = list(dec)
            rng.shuffle(labels)
            singular = {}
            for lam in labels:
                vec = fock.hwv_candidate(space, algebra, lam)
                singular[lam.parts] = bool(vec) and fock.singularity_check(space, algebra, vec)[0]
            return same, character, dec, singular

        def check_space(output, space_id=space_id):
            same, character, dec, singular = output
            payload = sorted([list(lam.parts), _graded(mults), singular[lam.parts]] for lam, mults in dec.items())
            return {
                f"character {space_id}": (same, character),
                f"decompose+hwv {space_id}": (all(singular.values()), payload),
            }

        cases.append(Case(space_id, run_space, check_space))

    def run_cross():
        from superchar import hwclassify, superschur, symring

        dec = fock.duality_decompose(fock.Space("A", 2), "C", CROSS_CUTOFF2)
        labels = list(dec)
        rng.shuffle(labels)
        rows = {}
        for lam in labels:
            hook = symring.weight_expansion(superschur.sp_hook(lam, CROSS_CUTOFF2), CROSS_CUTOFF2)
            unitary = hwclassify.is_unitarizable(hwclassify.weight_from_partition("C", lam)).ok
            rows[lam.parts] = (_graded(dec[lam]), _graded(hook), unitary)
        return rows

    def check_cross(rows):
        payload = sorted([list(parts), fock_side, unitary] for parts, (fock_side, _, unitary) in rows.items())
        verdict = all(fock_side == hook_side and unitary for fock_side, hook_side, unitary in rows.values())
        return {"hook cross-check A/C d=2": (verdict, payload)}

    cases.append(Case("hook cross-check A/C d=2", run_cross, check_cross))
    rng.shuffle(cases)
    return cases


ZERO = Fraction(0)


def leading_minors(matrix: list[list[Fraction]]) -> list[Fraction]:
    """Leading principal minors by exact elimination without pivoting.

    Written independently of superchar.fock so the Gram check does not trust
    the code it checks.  From the first zero pivot on, each minor is the full
    determinant of its leading block.
    """
    n = len(matrix)
    work = [row[:] for row in matrix]
    minors = []
    det = Fraction(1)
    for k in range(n):
        pivot = work[k][k]
        if pivot == 0:
            minors += [_det([row[: j + 1] for row in matrix[: j + 1]]) for j in range(k, n)]
            break
        det *= pivot
        minors.append(det)
        for i in range(k + 1, n):
            if work[i][k]:
                factor = work[i][k] / pivot
                for j in range(k, n):
                    if work[k][j]:
                        work[i][j] -= factor * work[k][j]
    return minors


def _det(matrix: list[list[Fraction]]) -> Fraction:
    work = [row[:] for row in matrix]
    n = len(work)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            det = -det
        det *= work[k][k]
        for i in range(k + 1, n):
            factor = work[i][k] / work[k][k]
            for j in range(k, n):
                work[i][j] -= factor * work[k][j]
    return det


def _fock_gram(rng: random.Random) -> list[Case]:
    cases = []
    for d, e2, conjugation in GRAM_CASES:
        energy = str(Fraction(e2, 2))
        name = f"gram d={d} energy={energy} {conjugation}"
        argv = ["fock", "--space", str(d), "--algebra", "gl", "--action", "gram",
                "--energy", energy, "--conjugation", conjugation, "--json"]

        def check(output, name=name, conjugation=conjugation):
            code, text = output
            report = json.loads(text)
            minors = leading_minors([[Fraction(v) if v != "0" else ZERO for v in row] for row in report["matrix"]])
            posdef = all(m > 0 for m in minors)
            expected = conjugation == "signed"
            verdict = code == 0 and report["positive_definite"] == posdef == expected
            return {name: (verdict, {"minors": [str(m) for m in minors], "positive_definite": posdef})}

        cases.append(Case(name, lambda argv=argv: _cli(argv), check))
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "verify-grid": _verify_grid,
    "hook-identities": _hook_identities,
    "fock-duality": _fock_duality,
    "fock-gram": _fock_gram,
}


def build(workload: str, seed: int) -> list[Case]:
    """The cases of one pass, in the order the seed gives."""
    return WORKLOADS[workload](random.Random(seed))
