import json
from fractions import Fraction

import pytest

from superchar import cli, fock, laurentchars, superschur
from superchar.laurentchars import LaurentPoly
from superchar.symring import SymFunc
from superchar.cli import main

from oracles import dense_gram, leibniz_minors


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_frobenius(capsys):
    code, out, _ = run(capsys, "frobenius", "[4,3,1,0,0]")
    assert code == 0 and out.strip() == "(4,2|2,0)"
    code, out, _ = run(capsys, "frobenius", "(4,2|2,0)", "--inverse", "--length", "5")
    assert code == 0 and out.strip() == "[4,3,1,0,0]"
    code, out, _ = run(capsys, "frobenius", "[4,3,1,0,0]", "--json")
    blob = json.loads(out)
    assert blob["pos_half"] == [4, 2] and blob["rank"] == 2


def test_classify(capsys):
    code, out, _ = run(
        capsys, "classify", "--algebra", "D", "--weight", "1/2:2,1:1,2:0; level=3/2"
    )
    assert code == 0 and "unitarizable: yes" in out
    code, out, _ = run(capsys, "classify", "--algebra", "C", "--weight", "1/2:2,1:1; level=1", "--json")
    blob = json.loads(out)
    assert code == 0 and blob["unitarizable"] is False and blob["violated"] == "level-bound"


def test_char(capsys):
    code, out, _ = run(capsys, "char", "--group", "Sp", "--size", "1", "--weight", "[1]")
    assert code == 0 and "z1 + z1^-1" in out
    code, out, _ = run(capsys, "char", "--group", "GL", "--size", "1", "--weight", "[-2]", "--json")
    assert code == 0 and json.loads(out)["character"]["terms"][0]["exps"] == [-4]


def test_char_weight_beyond_the_exponent_width_is_a_usage_error(capsys):
    code, out, _ = run(capsys, "char", "--group", "GL", "--size", "2", "--weight", "[1048575,1048574]")
    assert code == 0 and "z1^1048575*z2^1048574" in out
    code, _, err = run(capsys, "char", "--group", "GL", "--size", "1", "--weight", "[1048576]")
    assert code == 2 and "usage error" in err and "too large" in err


def test_schur(capsys):
    code, out, _ = run(
        capsys, "schur", "--family", "sp", "--variant", "plain", "--weight", "[1]", "--deg", "3"
    )
    assert code == 0 and "e1(x)" in out
    code, out, _ = run(
        capsys, "schur", "--family", "so", "--variant", "plain", "--weight", "[0]",
        "--n", "1", "--deg", "2",
    )
    assert code == 0 and out.strip() == "1 + e2(x)"


def test_schur_deg_cap(capsys, monkeypatch):
    monkeypatch.setenv("SUPERCHAR_MAX_DEG", "3")
    code, _, err = run(
        capsys, "schur", "--family", "sp", "--variant", "plain", "--weight", "[1]", "--deg", "9"
    )
    assert code == 2 and "SUPERCHAR_MAX_DEG" in err


def test_verify_single_and_failure_paths(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "HS", "--d", "1", "--deg", "2")
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "verify", "--identity", "HS", "--d", "1", "--deg", "2", "--json")
    assert json.loads(out)[0]["status"] == "pass"
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--small")
    assert code == 0
    assert "FAIL" not in out and out.count("PASS") >= 20


def test_fock_actions(capsys):
    code, out, _ = run(capsys, "fock", "--space", "1", "--action", "decompose", "--cutoff", "1")
    assert code == 0 and "lambda=[0]" in out
    code, out, _ = run(
        capsys, "fock", "--space", "1", "--action", "gram", "--energy", "1/2",
        "--conjugation", "naive", "--json",
    )
    blob = json.loads(out)
    assert blob["positive_definite"] is False
    code, out, _ = run(
        capsys, "fock", "--space", "1", "--action", "hwv", "--hw", "[1]", "--algebra", "C"
    )
    assert code == 0 and "singular: True" in out
    code, out, _ = run(capsys, "fock", "--space", "1+1/2", "--action", "character", "--cutoff", "1/2", "--json")
    rows = json.loads(out)
    assert any(r["eps"] == 1 for r in rows)


def test_fock_hwv_witness_of_a_singular_vector_is_null(capsys):
    argv = ("fock", "--space", "2", "--action", "hwv", "--algebra", "C", "--hw", "[2,1]")
    code, out, _ = run(capsys, *argv, "--json")
    blob = json.loads(out)
    assert code == 0 and blob["singular"] is True and blob["witness"] is None
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines()[-1] == "singular: True"


def test_fock_hwv_witness_is_printed_in_halves(capsys, monkeypatch):
    # gamma+[1,-3/2]|0> under C: the first generator that fails is te(1, 3/2)
    def bad(space, algebra, lam, variant="X"):
        assert space == fock.Space("A", 1) and algebra == "C"
        return fock.creation_product(space, [(fock.GAM_P, 1, -3)])

    monkeypatch.setattr(fock, "hwv_candidate", bad)
    argv = ("fock", "--space", "1", "--action", "hwv", "--algebra", "C", "--hw", "[1]")
    code, out, _ = run(capsys, *argv, "--json")
    blob = json.loads(out)
    assert code == 1 and blob["singular"] is False and blob["witness"] == ["1", "3/2"]
    code, out, _ = run(capsys, *argv)
    assert code == 1 and out.splitlines()[-1] == "singular: no (witness (1, 3/2))"


def test_fock_algebra_must_fit_the_space(capsys):
    # a d+1/2 space carries only D: no --algebra or D, anything else is a usage error
    base = ("fock", "--space", "1+1/2", "--action", "decompose", "--cutoff", "1")
    code, out, _ = run(capsys, *base)
    assert code == 0 and "lambda=[2, 0, 0]" in out
    assert run(capsys, *base, "--algebra", "D") == (0, out, "")
    code, out, err = run(capsys, *base, "--algebra", "A")
    assert code == 2 and not out and "D" in err
    # gl has no duality decomposition, and the message says so
    code, out, err = run(capsys, "fock", "--space", "1", "--action", "decompose", "--algebra", "gl")
    assert code == 2 and not out and "no duality decomposition for algebra 'gl'" in err


def test_fock_gl_algebra_reads_only_gram(capsys):
    # the gl space has no duality decomposition: only the Gram matrix reads it
    for action in ("hwv", "decompose", "character"):
        code, out, err = run(capsys, "fock", "--space", "1", "--action", action, "--algebra", "gl")
        assert code == 2 and not out and f"--algebra gl reads only --action gram, not {action}" in err
    code, out, _ = run(capsys, "fock", "--space", "1", "--action", "gram", "--algebra", "gl", "--json")
    assert code == 0 and json.loads(out)["positive_definite"] is True


# (--space argv, --algebra argv, Space, doubled energies); every basis has at most 5 states, so the
# Leibniz minors stay small
GRAM_ROUTES = [
    (["--space", "1", "--algebra", "gl"], fock.Space("gl", 1), (0, 1)),
    (["--space", "2", "--algebra", "gl"], fock.Space("gl", 2), (0,)),
    (["--space", "1"], fock.Space("A", 1), (0, 1, 2)),
    (["--space", "2"], fock.Space("A", 2), (0, 1)),
    (["--space", "1+1/2"], fock.Space("Dodd", 1), (0, 1)),
]


@pytest.mark.parametrize("space_argv, space, energies2", GRAM_ROUTES, ids=["gl1", "gl2", "A1", "A2", "Dodd1"])
def test_fock_gram_matches_dense_oracle_and_leibniz(capsys, space_argv, space, energies2):
    # the CLI reads definiteness off the norms; the oracle pairs every basis state with every
    # other one, and its leading principal minors are permutation sums
    for e2 in energies2:
        for conjugation in fock.CONJUGATIONS:
            code, out, _ = run(capsys, "fock", *space_argv, "--action", "gram", "--energy", str(Fraction(e2, 2)),
                               "--conjugation", conjugation, "--json")
            report = json.loads(out)
            basis, mat = dense_gram(space, e2, conjugation)
            assert code == 0
            assert report["basis"] == [fock.fmt_state(b) for b in basis]
            assert report["matrix"] == [[str(v) for v in row] for row in mat], (space, e2, conjugation)
            assert report["positive_definite"] == all(m > 0 for m in leibniz_minors(mat)), (space, e2, conjugation)
            if e2 and conjugation == "naive":
                assert report["positive_definite"] is False, space


def test_usage_errors(capsys):
    code, _, err = run(capsys, "char", "--group", "Sp", "--size", "1", "--weight", "[1,1,1]")
    assert code == 2 and err
    code, _, err = run(capsys, "verify", "--identity", "HS", "--d", "1")
    assert code == 2 and "--deg" in err


def test_zero_level_denominator_is_a_usage_error(capsys):
    code, out, err = run(capsys, "classify", "--algebra", "gl", "--weight", "1:1;level=1/0")
    assert code == 2 and not out
    assert "usage error" in err and "Traceback" not in err


def test_verify_rejects_parameters_the_identity_cannot_use(capsys):
    for argv, fault in [
        (("HS", "--d", "1", "--deg", "2", "--m", "7"), "--m is not read by HS"),
        (("HS", "--d", "1", "--deg", "2", "--n", "9"), "--n is not read by HS"),
        (("combin-Sp", "--d", "1", "--m", "1", "--deg", "3"), "--deg is not read by combin-Sp"),
        (("even-char", "--n", "3", "--m", "2"), "--n must be even"),
        (("odd-char", "--n", "2", "--m", "2"), "--n must be odd"),
    ]:
        code, out, err = run(capsys, "verify", "--identity", *argv)
        assert code == 2 and fault in err and not out, argv


def test_identity_tags_come_from_the_identity_table(capsys):
    assert {tag for tag, _ in cli.SMALL_GRID} == set(superschur.IDENTITIES)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--identity", "HS-0", "--d", "1", "--deg", "2"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "invalid choice" in err
    assert all(repr(tag) in err for tag in superschur.IDENTITIES)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and all(tag in out for tag in superschur.IDENTITIES)


def test_fock_sizes_validated_where_parsed(capsys):
    for argv in (
        ["fock", "--space", "1", "--action", "decompose", "--cutoff", "-1"],
        ["fock", "--space", "1", "--action", "gram", "--energy", "1/3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and "multiple of 1/2" in capsys.readouterr().err


def test_verify_and_schur_sizes_validated_where_parsed(capsys):
    # --deg is at least 0 and --d, --n, --m at least 1; argparse names the flag
    for argv, flag in [
        (["verify", "--identity", "HS", "--d", "1", "--deg", "-3"], "--deg"),
        (["schur", "--family", "sp", "--weight", "[1]", "--deg", "-1"], "--deg"),
        (["verify", "--identity", "odd-char", "--n", "1", "--m", "0"], "--m"),
        (["verify", "--identity", "odd-char", "--n", "1", "--m", "-2"], "--m"),
        (["verify", "--identity", "HS", "--d", "0", "--deg", "2"], "--d"),
        (["schur", "--family", "so", "--weight", "[1]", "--n", "0", "--deg", "2"], "--n"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and f"argument {flag}:" in out.err and not out.out, argv


def test_sizes_above_their_caps_run_nothing(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a size above its cap reached the library")

    monkeypatch.setattr(superschur, "verify_identity", refuse)
    monkeypatch.setattr(superschur, "so_schur", refuse)
    for argv, flag in [
        (["verify", "--identity", "odd-char", "--n", "1", "--m", "6"], "--m 6"),
        (["verify", "--identity", "combin-Sp", "--d", "4", "--m", "1"], "--d 4"),
        (["verify", "--identity", "HS-O", "--n", "6", "--deg", "2"], "--n 6"),
        (["schur", "--family", "so", "--weight", "[1]", "--n", "6", "--deg", "2"], "--n 6"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and f"{flag} is above its cap" in err, argv
    for _, params in cli.IDENTITY_GRID:
        assert all(params[p] <= cap for p, cap in cli.SIZE_CAPS.items() if p in params), params


def test_fock_hwv_label_has_its_declared_length(capsys):
    for argv in (["--space", "2", "--algebra", "A", "--hw", "[2,0,-1]"], ["--space", "2", "--algebra", "C", "--hw", "[5]"]):
        code, out, err = run(capsys, "fock", "--action", "hwv", *argv)
        assert code == 2 and not out and "have length d = 2" in err, argv
    code, out, err = run(capsys, "fock", "--space", "2", "--action", "hwv", "--algebra", "C")
    assert code == 2 and not out and "--action hwv needs --hw" in err
    code, out, _ = run(capsys, "fock", "--space", "3", "--action", "hwv", "--algebra", "A", "--hw", "[2,0,-1]")
    assert code == 0 and out.splitlines()[-1] == "singular: True"


def test_failed_decomposition_exits_1(capsys, monkeypatch):
    real = fock.fock_character

    def drop_one_state(space, cutoff2):
        ch = real(space, cutoff2)
        key = max(ch)
        grade = next(iter(ch[key]))
        ch[key][grade] -= 1
        return ch

    monkeypatch.setattr(fock, "fock_character", drop_one_state)
    code, _, err = run(capsys, "fock", "--space", "1", "--action", "decompose", "--cutoff", "1")
    assert code == 1 and "verification failure" in err


# one wrong function per identity shape: series (HS, HS-O), tensor, Laurent (Sp; O at even and odd m).
# The Laurent rows break the sp(2m) and so(2m) duals, which superschur reads from `_freudenthal`; their ids
# keep the names of the determinants (classical_char_sp, classical_char_so_even) that built the duals before
@pytest.mark.parametrize(
    "name, argv",
    [
        ("sp_hook", ["--identity", "HS", "--d", "1", "--deg", "3"]),
        ("so_hook", ["--identity", "HS-O", "--n", "2", "--deg", "3"]),
        ("sp_hook", ["--identity", "tensor-sp", "--d", "1", "--deg", "3"]),
        ("so_hook", ["--identity", "tensor-o", "--n", "2", "--deg", "3"]),
        pytest.param("_freudenthal", ["--identity", "combin-Sp", "--d", "1", "--m", "2"], id="classical_char_sp-argv4"),
        pytest.param("_freudenthal", ["--identity", "even-char", "--n", "2", "--m", "2"],
                     id="classical_char_so_even-argv5"),
        pytest.param("_freudenthal", ["--identity", "even-char", "--n", "2", "--m", "3"],
                     id="classical_char_so_even-argv6"),
    ],
)
def test_wrong_hook_schur_function_fails_verification(capsys, monkeypatch, name, argv):
    real = getattr(superschur, name)

    def off_by_one(*args, **kwargs):
        f = real(*args, **kwargs)
        if isinstance(f, dict):  # a dual's {dominant weight: multiplicity}
            return {**f, min(f): f[min(f)] + 1}
        if isinstance(f, SymFunc):
            return f + SymFunc(f.cap, {min(f.terms): 1})
        return f + LaurentPoly(f.nvars, {min(f.terms): 1})

    monkeypatch.setattr(superschur, name, off_by_one)
    code, out, _ = run(capsys, "verify", *argv, "--json")
    report = json.loads(out)[0]
    assert code == 1 and report["status"] == "fail" and report["first_mismatch"]


@pytest.fixture
def fresh_dominant_terms():
    """An empty cache of dominant character terms before and after the test, so no entry outlives a patch."""
    laurentchars._dominant_terms.cache_clear()
    yield
    laurentchars._dominant_terms.cache_clear()


# the tensor identity decomposes products of full characters, whose Weyl
# orbits are checked: a character with a term dropped breaks one.  The series
# and Laurent identities (rank-1 Sp, even and odd O) read `_dominant_terms`,
# which builds no full character and so has no orbit to break: there the
# lex-smallest dominant term of each label is dropped from its output
@pytest.mark.parametrize("argv, group", [
    (["--identity", "HS", "--d", "1", "--deg", "3"], "Sp(2)"),
    (["--identity", "HS-O", "--n", "3", "--deg", "3"], "O(3)"),
    (["--identity", "tensor-sp", "--d", "1", "--deg", "3"], "Sp(2)"),
    (["--identity", "even-char", "--n", "2", "--m", "2"], "O(2)"),
    (["--identity", "odd-char", "--n", "3", "--m", "3"], "O(3)"),
])
def test_character_with_a_broken_orbit_fails_verification(capsys, monkeypatch, fresh_dominant_terms, argv, group):
    tensor = argv[1] == "tensor-sp"
    if tensor:
        real = laurentchars.char_group

        def drop_one_non_dominant_term(group, lam):
            chi = real(group, lam)
            terms = dict(chi.terms.items())
            z, _eps = key = min(terms)
            if z != tuple(sorted(map(abs, z), reverse=True)):
                del terms[key]
            return LaurentPoly(chi.nvars, terms)

        monkeypatch.setattr(laurentchars, "char_group", drop_one_non_dominant_term)
    else:
        real = superschur._dominant_terms

        def drop_the_lowest_dominant_term(group, lam):
            terms = real(group, lam)
            lowest = min(terms)
            return tuple(term for term in terms if term != lowest)

        monkeypatch.setattr(superschur, "_dominant_terms", drop_the_lowest_dominant_term)
    code, out, _ = run(capsys, "verify", *argv, "--json")
    [report] = json.loads(out)
    mismatch = report["first_mismatch"]
    assert code == 1 and report["status"] == "fail"
    if tensor:
        assert mismatch["group"] == group and mismatch["label"] and "not Weyl-symmetric" in mismatch["detail"]
    z = mismatch["z_exponent"]
    assert z and z == sorted(z, reverse=True) and min(z) >= 0


def test_jobs_bounded_by_cpu_count_and_cases(capsys, monkeypatch):
    import concurrent.futures
    import os

    built = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records the pool size and maps in this process."""

        def __init__(self, max_workers=None):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    case = ["verify", "--identity", "HS", "--d", "1", "--deg", "2"]
    for jobs in ("0", "-1", str((os.cpu_count() or 1) + 1), "100000", "two"):
        with pytest.raises(SystemExit) as exc:
            main(case + ["--jobs", jobs])
        assert exc.value.code == 2 and "--jobs" in capsys.readouterr().err
    assert built == []
    if (os.cpu_count() or 1) < 2:
        pytest.skip("--jobs 2 needs two CPUs")
    code, out, _ = run(capsys, *case, "--jobs", "2")
    assert code == 0 and out.startswith("PASS")
    assert built == [1]


def test_fock_sizes_capped_by_max_deg(capsys, monkeypatch):
    monkeypatch.setenv("SUPERCHAR_MAX_DEG", "4")
    code, _, err = run(capsys, "fock", "--space", "1", "--action", "decompose", "--cutoff", "3")
    assert code == 2 and "SUPERCHAR_MAX_DEG" in err
    code, _, err = run(capsys, "fock", "--space", "1", "--action", "gram", "--energy", "5/2")
    assert code == 2 and "SUPERCHAR_MAX_DEG" in err
    code, out, _ = run(capsys, "fock", "--space", "1", "--action", "decompose", "--cutoff", "2")
    assert code == 0 and "lambda=[0]" in out
