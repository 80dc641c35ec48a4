import json

import pytest

from superchar import fock
from superchar.cli import main


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


def test_usage_errors(capsys):
    code, _, err = run(capsys, "char", "--group", "Sp", "--size", "1", "--weight", "[1,1,1]")
    assert code == 2 and err
    code, _, err = run(capsys, "verify", "--identity", "HS", "--d", "1")
    assert code == 2 and "--deg" in err


def test_fock_sizes_validated_where_parsed(capsys):
    for argv in (
        ["fock", "--space", "1", "--action", "decompose", "--cutoff", "-1"],
        ["fock", "--space", "1", "--action", "gram", "--energy", "1/3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and "multiple of 1/2" in capsys.readouterr().err


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
