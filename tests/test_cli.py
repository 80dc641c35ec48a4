import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from superchar import cli, fock, hwclassify, laurentchars, partitions, superschur
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


def test_frobenius_inverse_json(capsys):
    assert run(capsys, "frobenius", "(4,2|2,0)", "--inverse", "--length", "5", "--json") == (
        0, '{"parts": [4, 3, 1, 0, 0], "length": 5}\n', "")


def test_classify_outputs_without_a_label(capsys):
    # a unitarizable glone weight has no partition dictionary: no "partition" key, no label
    weight = "--weight=1:2,0:-1; level=3"
    code, out, _ = run(capsys, "classify", "--algebra", "glone", weight, "--json")
    assert code == 0 and json.loads(out) == {
        "weight": {"algebra": "glone", "coeffs": [{"index": "0", "value": -1}, {"index": "1", "value": 2}],
                   "level": "3"},
        "quasifinite": True, "support_radius": 1, "unitarizable": True,
    }
    assert run(capsys, "classify", "--algebra", "glone", weight) == (0, (
        "weight    : glone: 0:-1,1:2; level=3\n"
        "quasifinite: yes (support radius N=1)\n"
        "unitarizable: yes\n"), "")
    # a rejected weight's text line names the clause and its detail
    code, out, _ = run(capsys, "classify", "--algebra", "C", "--weight", "1/2:2,1:1; level=1")
    assert code == 0 and out.splitlines()[-1] == (
        "unitarizable: no  [level-bound] length: min(xi_1/2,1)+xi_1-xi_0 = 2 > d = 1")


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
    code, out, _ = run(capsys, "schur", "--family", "sp", "--weight", "[1]", "--deg", "3", "--json")
    assert code == 0 and json.loads(out) == {
        "terms": [{"x": [[1, 1]], "y": [], "coeff": "1"}, {"x": [[1, 1], [2, 1]], "y": [], "coeff": "1"},
                  {"x": [[3, 1]], "y": [], "coeff": "-1"}],
        "degree_cap": 3,
    }


def test_schur_deg_cap(capsys):
    # SIZE_CAPS["deg"] = 12 is a constant: argparse admits 12 and refuses 13, naming the flag
    code, out, _ = run(capsys, "schur", "--family", "sp", "--variant", "plain", "--weight", "[1]", "--deg", "12")
    assert code == 0 and "e1(x)" in out
    with pytest.raises(SystemExit) as exc:
        main(["schur", "--family", "sp", "--variant", "plain", "--weight", "[1]", "--deg", "13"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and "argument --deg: 13 is above its cap 12" in out.err and not out.out


def test_verify_single_and_failure_paths(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "HS", "--d", "1", "--deg", "2")
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "verify", "--identity", "HS", "--d", "1", "--deg", "2", "--json")
    assert json.loads(out)[0]["status"] == "pass"
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_failed_verify_prints_its_first_mismatch(capsys, monkeypatch):
    real = superschur.sp_hook

    def off_by_one(*args, **kwargs):
        f = real(*args, **kwargs)
        return f + SymFunc(f.cap, {min(f.terms): 1})

    monkeypatch.setattr(superschur, "sp_hook", off_by_one)
    assert run(capsys, "verify", "--identity", "tensor-sp", "--d", "1", "--deg", "3") == (1, (
        "FAIL  tensor-sp {'d': 1, 'D': 3}\n"
        "      first mismatch: {'z_exponent': [0], 'eps': 0, 'sym_monomial': '1', 'lhs': '1', 'rhs': '2'}\n"), "")


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 0
    assert "FAIL" not in out and out.count("PASS") == len(cli.IDENTITY_GRID)


def test_fock_actions(capsys):
    code, out, _ = run(capsys, "fock", "--space", "1", "--action", "decompose", "--cutoff", "1")
    assert code == 0 and "lambda=[0]" in out
    assert run(capsys, "fock", "--space", "1", "--action", "decompose", "--cutoff", "1", "--json") == (0, (
        '[{"lambda": [0], "graded_dim": {"0": 1}}, {"lambda": [1], "graded_dim": {"1/2": 1, "1": 1}}, '
        '{"lambda": [2], "graded_dim": {"1": 1}}]\n'), "")
    # the text Gram matrix: one row per basis state, then the verdict
    assert run(capsys, "fock", "--space", "1", "--action", "gram", "--energy", "1") == (0, (
        "p+[1,-1] |0> ['1', '0', '0', '0', '0']\n"
        "p-[1,-1] |0> ['0', '1', '0', '0', '0']\n"
        "g+[1,-1/2] g+[1,-1/2] |0> ['0', '0', '2', '0', '0']\n"
        "g+[1,-1/2] g-[1,-1/2] |0> ['0', '0', '0', '1', '0']\n"
        "g-[1,-1/2] g-[1,-1/2] |0> ['0', '0', '0', '0', '2']\n"
        "positive definite: True\n"), "")
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


@pytest.mark.parametrize("space, cutoff", [("2", "3/2"), ("1+1/2", "2"), ("0", "1")])
def test_fock_character_rows_are_written_as_one_list(capsys, space, cutoff):
    # the rows go out a key at a time; the bytes are json.dumps of the list of every
    # row with --json, and one printed row a line without
    kind = "Dodd" if "+" in space else "A"
    ch = fock.character_product_formula(fock.Space(kind, int(space[0])), int(2 * Fraction(cutoff)))
    rows = [{"z": list(z), "eps": eps, "x": wm[0], "y": wm[1], "count": c}
            for (z, eps), wmonos in sorted(ch.items()) for wm, c in sorted(wmonos.items())]
    assert run(capsys, "fock", "--space", space, "--action", "character", "--cutoff", cutoff, "--json") == (
        0, json.dumps(rows) + "\n", "")
    assert run(capsys, "fock", "--space", space, "--action", "character", "--cutoff", cutoff) == (
        0, "".join(f"{row}\n" for row in rows), "")


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
        return fock.apply_mode(space, (fock.GAM_P, 1, -3), fock.FockVector.vacuum(space))

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


def test_fock_decompose_needs_a_nonzero_space(capsys):
    # the 0 space has no dual group to decompose over; its character and hwv still run
    for algebra in ([], ["--algebra", "A"], ["--algebra", "C"], ["--algebra", "D"]):
        code, out, err = run(capsys, "fock", "--space", "0", "--action", "decompose", *algebra)
        assert code == 2 and not out and "--space" in err and "--action decompose" in err, (algebra, err)
    assert run(capsys, "fock", "--space", "0", "--action", "character")[0] == 0
    code, out, _ = run(capsys, "fock", "--space", "0", "--action", "hwv", "--hw", "[]")
    assert code == 0 and out.splitlines()[0] == "|0>"


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


def test_sp_label_too_deep_names_its_group(capsys):
    code, out, err = run(capsys, "char", "--group", "Sp", "--size", "1", "--weight", "[1,1]")
    assert code == 2 and not out and "Sp(2) labels have at most 1 rows" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["--space", "1", "--algebra", "D", "--hw", "[1,1]"], id="D-d1-lambda1-2"),
    pytest.param(["--space", "2", "--algebra", "D", "--hw", "[1,1,1,0]"], id="D-d2-lambda1-3"),
    pytest.param(["--space", "1", "--algebra", "C", "--hw", "[1]"], id="C"),
    pytest.param(["--space", "1+1/2", "--hw", "[1,0,0]"], id="Dodd"),
])
def test_xt_needs_an_even_orthogonal_label_with_lambda1_d(capsys, argv):
    code, out, err = run(capsys, "fock", "--action", "hwv", *argv, "--variant", "Xt")
    assert code == 2 and not out and "lambda'_1 = d" in err


@pytest.mark.parametrize("argv, message", [
    (["frobenius", "[1,2]"], "parts not non-increasing: (1, 2)"),
    (["frobenius", "1|0", "--inverse", "--length", "1"], "frobenius literal must be parenthesised: '1|0'"),
    (["frobenius", "(1|0|0)", "--inverse", "--length", "1"], "expected 2 or 4 blocks in '(1|0|0)'"),
    (["frobenius", "(1,0|0)", "--inverse", "--length", "2"], "xipos: arm/leg length mismatch: (1, 0) | (0,)"),
    (["char", "--group", "Sp", "--size", "2", "--weight", "[1,-1]"], "negative part in partition: (1, -1)"),
    (["char", "--group", "O", "--size", "4", "--weight", "[1,1]"], "O(4) labels have declared length 4: got [1,1]"),
    (["char", "--group", "GL", "--size", "2", "--weight", "[1]"], "GL(2) weights have length 2"),
    (["classify", "--algebra", "gl", "--weight=1:1"], "missing level in weight literal '1:1'"),
    (["classify", "--algebra", "gl", "--weight=1:1; lvl=1"], "expected level=... after ';' in '1:1; lvl=1'"),
    (["classify", "--algebra", "C", "--weight=-1/2:1; level=1"], "index -1/2 not in the C index set"),
], ids=["frobenius-order", "frobenius-parens", "frobenius-blocks", "frobenius-arms", "char-negative",
        "char-o-length", "char-gl-length", "classify-no-level", "classify-level-key", "classify-index"])
def test_refused_literals_are_usage_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


def test_zero_level_denominator_is_a_usage_error(capsys):
    code, out, err = run(capsys, "classify", "--algebra", "gl", "--weight", "1:1;level=1/0")
    assert code == 2 and not out
    assert "usage error" in err and "Traceback" not in err


def test_repeated_weight_index_is_a_usage_error(capsys):
    code, out, err = run(capsys, "classify", "--algebra", "gl", "--weight", "1:1,2/2:2; level=3")
    assert code == 2 and not out and "index 1 repeats" in err


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    # no user input raises KeyError, so one from inside a command is a fault and keeps its traceback
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "cmd_frobenius", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["frobenius", "[1]"])


def test_verify_rejects_parameters_the_identity_cannot_use(capsys):
    for argv, fault in [
        (("HS", "--d", "1", "--deg", "2", "--m", "2"), "--m is not read by HS"),
        (("HS", "--d", "1", "--deg", "2", "--n", "2"), "--n is not read by HS"),
        (("combin-Sp", "--d", "1", "--m", "1", "--deg", "3"), "--deg is not read by combin-Sp"),
        (("even-char", "--n", "3", "--m", "2"), "--n must be even"),
        (("odd-char", "--n", "2", "--m", "2"), "--n must be odd"),
    ]:
        code, out, err = run(capsys, "verify", "--identity", *argv)
        assert code == 2 and fault in err and not out, argv


def test_identity_tags_come_from_the_identity_table(capsys):
    assert {tag for tag, _ in cli.IDENTITY_GRID} == set(superschur.IDENTITIES)
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


class Reached(Exception):
    """Raised by a stubbed library call: the argv passed every cap."""


@pytest.fixture
def stub_library(monkeypatch):
    """Every library call the subcommands make past their parsing raises Reached."""
    def reach(*args, **kwargs):
        raise Reached

    for module, name in [(superschur, "verify_identity"), (laurentchars, "char_group"), (partitions, "to_frobenius"),
                         (partitions, "from_frobenius"), (hwclassify, "is_quasifinite"),
                         (fock, "character_product_formula"), (fock, "duality_decompose"), (fock, "gram_matrix"),
                         (fock, "hwv_candidate")]:
        monkeypatch.setattr(module, name, reach)
    for family in ("sp", "so"):
        for variant in ("schur", "skew", "hook"):
            monkeypatch.setattr(superschur, f"{family}_{variant}", reach)


def outcome(capsys, argv):
    """(exit code, or "reached" when a stubbed library call was made; stdout; stderr) of main(argv)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Reached:
        code = "reached"
    out = capsys.readouterr()
    return code, out.out, out.err


# (SIZE_CAPS entry, an argv that ends in its size, the size at the cap, one above it, the flag named);
# where no size is one above a cost's cap, None stands for the size at the cap under a cap one lower
CAP_CASES = [
    ("d", ["verify", "--identity", "combin-Sp", "--m", "1", "--d"], "3", "4", "--d"),
    ("n", ["verify", "--identity", "HS-O", "--deg", "2", "--n"], "5", "6", "--n"),
    ("n", ["schur", "--family", "so", "--weight", "[1]", "--deg", "2", "--n"], "5", "6", "--n"),
    ("m", ["verify", "--identity", "odd-char", "--n", "1", "--m"], "5", "6", "--m"),
    ("deg", ["verify", "--identity", "HS", "--d", "1", "--deg"], "12", "13", "--deg"),
    ("deg", ["fock", "--space", "1", "--action", "character", "--cutoff"], "6", "13/2", "--cutoff"),
    ("deg", ["fock", "--space", "0", "--action", "gram", "--energy"], "6", "13/2", "--energy"),
    ("size", ["char", "--group", "Sp", "--weight", "[1]", "--size"], "6", "7", "--size"),
    ("size", ["schur", "--family", "sp", "--deg", "2", "--weight"], "[0,0,0,0,0,0]", "[0,0,0,0,0,0,0]", "--weight"),
    ("length", ["frobenius"], "[1,1,1,1,1,1,1,1]", "[1,1,1,1,1,1,1,1,1]", "value"),
    ("length", ["frobenius", "(1|0)", "--inverse", "--length"], "8", "9", "--length"),
    ("entry", ["frobenius"], "[2097151]", "[2097152]", "value"),
    ("entry", ["classify", "--algebra", "C", "--weight"], "2097151:1; level=1", "2097152:1; level=1", "--weight"),
    ("space", ["fock", "--action", "decompose", "--space"], "4", "4+1/2", "--space"),
    ("gram", ["fock", "--space", "3", "--algebra", "gl", "--action", "gram", "--energy"], "2", "5/2",
     "--energy at --space 3"),
    ("columns", ["char", "--group", "Sp", "--size", "1", "--weight"], "[16]", "[17]", "--weight"),
    ("columns", ["fock", "--space", "1", "--action", "hwv", "--hw"], "[16]", "[17]", "--hw"),
    ("box", ["char", "--group", "GL", "--size", "4", "--weight"], "[9,5,2,0]", None, "--weight"),
    ("box", ["char", "--group", "O", "--size", "6", "--weight"], "[10,10,10,0,0,0]", "[11,11,11,0,0,0]", "--weight"),
    ("hw", ["fock", "--space", "4", "--algebra", "D", "--action", "hwv", "--hw"], "[1,1,1,1,1,1,1,1]", None, "--hw"),
]


def test_sizes_above_their_caps_run_nothing(capsys, monkeypatch, stub_library):
    assert {entry for entry, *_ in CAP_CASES} == set(cli.SIZE_CAPS)
    for entry, argv, at_cap, above, flag in CAP_CASES:
        assert outcome(capsys, argv + [at_cap])[0] == "reached", (argv, at_cap)
        with monkeypatch.context() as patch:
            if above is None:
                patch.setitem(cli.SIZE_CAPS, entry, cli.SIZE_CAPS[entry] - 1)
            code, out, err = outcome(capsys, argv + [above or at_cap])
        assert code == 2 and not out and flag in err and "above its cap" in err, (argv, above, err)
    for _, params in cli.IDENTITY_GRID:
        assert all(params[p] <= cap for p, cap in cli.SIZE_CAPS.items() if p in params), params


def test_gram_energy_caps_bound_the_level():
    # the dense gram output is n x n: every level a cap admits has at most the 2,472 states of gl at d = 3,
    # energy 2, on each kind of space, and one energy step more is above that on some kind
    most = 2472
    assert len(cli.SIZE_CAPS["gram"]) == cli.SIZE_CAPS["space"] // 2 + 1  # one cap for every admitted d
    for d, cap in enumerate(cli.SIZE_CAPS["gram"]):
        levels = {kind: Counter(fock.mono_energy2(m) for m in fock.enumerate_basis(fock.Space(kind, d), cap + 1))
                  for kind in ("gl", "A", "Dodd")}
        assert max(level[cap] for level in levels.values()) <= most, d
        assert d == 0 or max(level[cap + 1] for level in levels.values()) > most, d
    gl3 = Counter(fock.mono_energy2(m) for m in fock.enumerate_basis(fock.Space("gl", 3), 4))
    assert gl3[4] == most


# per subcommand: a base argv, and its size flags with their SIZE_CAPS entry, least admitted value and
# scale (2 for a flag read as a doubled multiple of 1/2)
SIZE_FLAGS = {
    "verify": (["verify", "--identity", "HS"],
               {"--d": ("d", 1, 1), "--n": ("n", 1, 1), "--m": ("m", 1, 1), "--deg": ("deg", 0, 1)}),
    "schur": (["schur", "--family", "so", "--weight", "[0]"], {"--n": ("n", 1, 1), "--deg": ("deg", 0, 1)}),
    "char": (["char", "--group", "Sp", "--weight", "[1]"], {"--size": ("size", 1, 1)}),
    "frobenius": (["frobenius", "(1|0)", "--inverse"], {"--length": ("length", 0, 1)}),
    "fock": (["fock", "--action", "character"], {"--space": ("space", 0, 2), "--cutoff": ("deg", 0, 2)}),
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_random_size_argv_exits_with_a_documented_code(capsys, stub_library, data):
    # the parse layer only: past the caps every library call is stubbed
    base, flags = SIZE_FLAGS[data.draw(st.sampled_from(sorted(SIZE_FLAGS)))]
    argv, over, bad = list(base), [], []
    for flag in data.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, unique=True)):
        entry, low, scale = flags[flag]
        at_cap, above = (str(Fraction(cli.SIZE_CAPS[entry] + k, scale)) for k in (0, 1))
        value = data.draw(st.sampled_from([at_cap, above, "0", "-1", "x", "1.25"]))
        argv += [flag, value]
        if value == above:
            over.append(flag)
        elif value != at_cap and (value != "0" or low > 0):
            bad.append(flag)
    code, out, err = outcome(capsys, argv)
    assert code in (0, 1, 2, "reached"), (argv, code)
    if over or bad:
        assert code == 2 and not out, (argv, code)
    if over and not bad:
        assert any(f"argument {flag}: " in err for flag in over) and "above its cap" in err, (argv, err)
    if bad and not over:
        assert any(f"argument {flag}: " in err for flag in bad), (argv, err)


def test_fock_hwv_label_has_its_declared_length(capsys):
    for argv, message in [
        (["--space", "2", "--algebra", "A", "--hw", "[2,0,-1]"], "GL(2) labels have length 2, not 3"),
        (["--space", "2", "--algebra", "C", "--hw", "[5]"], "Sp(4) labels have length 2, not 1"),
        (["--space", "2", "--algebra", "D", "--hw", "[5,0]"], "O(4) labels have length 4, not 2"),
        (["--space", "1+1/2", "--hw", "[1,0]"], "O(3) labels have length 3, not 2"),
    ]:
        code, out, err = run(capsys, "fock", "--action", "hwv", *argv)
        assert code == 2 and not out and message in err, argv
    code, out, err = run(capsys, "fock", "--space", "2", "--action", "hwv", "--algebra", "C")
    assert code == 2 and not out and "--action hwv needs --hw" in err
    code, out, _ = run(capsys, "fock", "--space", "3", "--action", "hwv", "--algebra", "A", "--hw", "[2,0,-1]")
    assert code == 0 and out.splitlines()[-1] == "singular: True"


def test_fock_hwv_refuses_an_odd_orthogonal_non_label(capsys):
    # an O(3) label has lambda'_1 + lambda'_2 <= 3, as the D algebra's O(2d) labels have <= 2d
    for hw in ("[2,1,1]", "[2,2,0]"):
        assert run(capsys, "fock", "--space", "1+1/2", "--action", "hwv", "--hw", hw) == (
            2, "", "usage error: lambda'_1 + lambda'_2 = 4 > n = 3\n")


def test_failed_decomposition_exits_1(capsys, monkeypatch):
    # `fock.duality_decompose` builds ch F through `superschur._series_lhs`, from the one-colour series
    # Phi(z).  The state g+[1/2]^2 dropped from the + sign of its y series breaks Phi[a] = Phi[-a] at
    # z^2, which the engine checks; the g+ g- state dropped at z^0 of the engine's output keeps it, and
    # leaves the Sp(2) label [0] a multiplicity of -1 at y^2, which the peel finds and names by its
    # weight monomials, not by the engine's packed keys
    real_factor, real_lhs = superschur._geom_factor, fock._series_lhs

    def one_sign_short(sign, units, with_eps):
        terms = real_factor(sign, units, with_eps)
        return terms[:-1] if sign == 1 and len(units) == 3 else terms  # at doubled cutoff 2: 1, y, y^2

    def drop_g_pair(rank, odd, one, series):
        lhs = real_lhs(rank, odd, one, series)
        lhs[((0,), 0)] = lhs[((0,), 0)] - SymFunc(one.cap, {((), ((1, 2),)): 1})
        return lhs

    for module, name, fault, message in [(superschur, "_geom_factor", one_sign_short, "series differs at z^"),
                                         (fock, "_series_lhs", drop_g_pair,
                                          "negative or fractional multiplicity {((), ()): 1, ((), ((1, 2),)): -1} at [0]")]:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fault)
            code, _, err = run(capsys, "fock", "--space", "1", "--action", "decompose", "--cutoff", "1")
        assert code == 1 and "verification failure" in err and message in err, err


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


# every identity reads its characters from `_dominant_terms`, which builds no
# full character and so has no orbit to break: the lex-smallest dominant term
# of each label is dropped from its output (rank-1 Sp for the series and
# tensor identities, even and odd O for the series and Laurent ones; the
# group only names the case)
@pytest.mark.parametrize("argv, group", [
    (["--identity", "HS", "--d", "1", "--deg", "3"], "Sp(2)"),
    (["--identity", "HS-O", "--n", "3", "--deg", "3"], "O(3)"),
    (["--identity", "tensor-sp", "--d", "1", "--deg", "3"], "Sp(2)"),
    (["--identity", "even-char", "--n", "2", "--m", "2"], "O(2)"),
    (["--identity", "odd-char", "--n", "3", "--m", "3"], "O(3)"),
])
def test_character_with_a_broken_orbit_fails_verification(capsys, monkeypatch, fresh_dominant_terms, argv, group):
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
    z = mismatch["z_exponent"]
    assert z and z == sorted(z, reverse=True) and min(z) >= 0


def test_fock_sizes_capped_by_max_deg(capsys):
    # the doubled --cutoff and --energy share SIZE_CAPS["deg"] = 12, a constant
    for argv, flag in [(["--action", "decompose", "--cutoff", "13/2"], "--cutoff"),
                       (["--action", "gram", "--energy", "7"], "--energy")]:
        with pytest.raises(SystemExit) as exc:
            main(["fock", "--space", "1", *argv])
        out = capsys.readouterr()
        assert exc.value.code == 2 and f"argument {flag}: doubled" in out.err and "above its cap 12" in out.err
    code, out, _ = run(capsys, "fock", "--space", "1", "--action", "decompose", "--cutoff", "2")
    assert code == 0 and "lambda=[0]" in out
