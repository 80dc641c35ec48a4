"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import passrun  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# -- self-time arithmetic ---------------------------------------------------------

# (name, start, end, parent): harness root, a laurentchars span holding a
# ringdet span that calls back into laurentchars, and a sibling fock span.
NESTED = [
    ("harness.case", 0.0, 10.0, -1),
    ("laurentchars.char_group", 1.0, 6.0, 0),
    ("ringdet.ring_det", 2.0, 4.0, 1),
    ("laurentchars.char_group", 2.5, 3.0, 2),
    ("fock.gram_matrix", 7.0, 9.0, 0),
]


def test_self_times_of_nested_spans():
    assert tracer.self_times(NESTED) == [3.0, 3.0, 1.5, 0.5, 2.0]
    by_module = tracer.module_self_times(NESTED)
    assert by_module == {"harness": 3.0, "laurentchars": 3.5, "ringdet": 1.5, "fock": 2.0}
    assert sum(by_module.values()) == 10.0  # self times partition the root span
    # the inner char_group span lies inside the outer one and is not counted twice
    assert tracer.inclusive_times(NESTED, ["laurentchars.char_group"]) == 5.0
    assert tracer.inclusive_times(NESTED, ["ringdet.ring_det", "fock.gram_matrix"]) == 4.0
    assert tracer.named_self_times(NESTED, ["laurentchars.char_group"]) == 3.5


def test_tracer_spans_follow_the_call_nesting():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = lambda: tr.span("ringdet.ring_det", "ringdet", lambda: None)  # noqa: E731
    outer = lambda: tr.span("laurentchars.char_group", "laurentchars", inner)  # noqa: E731
    tr.span("harness.case", "harness", outer)
    assert tr.spans() == [
        ("harness.case", 0.0, 5.0, -1),
        ("laurentchars.char_group", 1.0, 4.0, 0),
        ("ringdet.ring_det", 2.0, 3.0, 1),
    ]
    assert tracer.self_times(tr.spans()) == [2.0, 2.0, 1.0]


# -- quantiles ----------------------------------------------------------------------

@pytest.mark.parametrize("values", [[3.0, 1.0], [5.0, 1.0, 4.0], [2.0, 9.0, 4.0, 7.0, 1.0, 3.0, 8.0]])
def test_quartiles_match_statistics_quantiles(values):
    q1, med, q3 = run.quartiles(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
    assert med == statistics.median(values)


def test_quartiles_of_one_value():
    assert run.quartiles([0.25]) == (0.25, 0.25, 0.25)


def test_score_checks():
    expected = {"a": "d1", "b": "d2", "c": "d3"}
    observed = {"a": [True, "d1"], "b": [False, "d2"], "c": [True, "zz"], "x": [True, "d4"]}
    assert run.score_checks(observed, expected) == (4, ["b", "c", "x"])
    assert run.score_checks({}, expected) == (3, ["a", "b", "c"])


# -- seeds ------------------------------------------------------------------------------

def _grid_order(seed):
    """The identity grid in the order a verify-grid pass hands it to the CLI."""
    from superchar import cli

    seen = []

    def fake_cli(argv):
        seen.append(list(cli.IDENTITY_GRID))
        return 0, "[]"

    real, workloads._cli = workloads._cli, fake_cli
    try:
        (case,) = workloads.build("verify-grid", seed)
        case.run()
    finally:
        workloads._cli = real
    return [workloads.case_key(tag, params) for tag, params in seen[0]]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_permutes_order_but_keeps_the_case_set(workload):
    if workload == "verify-grid":
        orders = [_grid_order(seed) for seed in range(4)]
    else:
        orders = [[case.name for case in workloads.build(workload, seed)] for seed in range(4)]
    assert all(sorted(order) == sorted(orders[0]) for order in orders)
    assert len({tuple(order) for order in orders}) > 1
    assert orders[1] == ([c.name for c in workloads.build(workload, 1)] if workload != "verify-grid"
                         else _grid_order(1))


def test_gram_check_minors_equal_leading_block_determinants():
    from fractions import Fraction
    import random

    rng = random.Random(7)
    # a zero first pivot with a nonzero later minor, then random small matrices
    mats = [[[0, 1, 0], [1, 0, 0], [0, 0, 2]]]
    mats += [[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)] for n in rng.choices(range(1, 6), k=200)]
    for mat in mats:
        mat = [[Fraction(v) for v in row] for row in mat]
        blocks = [workloads._det([row[: k + 1] for row in mat[: k + 1]]) for k in range(len(mat))]
        assert workloads.leading_minors(mat) == blocks
    assert workloads.leading_minors(mats[0]) == [0, -1, -2]


def test_every_case_has_a_recorded_digest():
    digests = json.loads((BENCH / "digests.json").read_text())
    assert set(digests) == set(workloads.WORKLOADS)
    grid = {workloads.case_key(tag, params) for tag, params in workloads.IDENTITY_GRID}
    assert set(digests["verify-grid"]) == grid
    assert len(digests["fock-gram"]) == len(workloads.GRAM_CASES)


# -- wrapping ---------------------------------------------------------------------------

def _bindings():
    """Identity snapshot of every module and class namespace of superchar."""
    snap = {}
    for mod in tracer.package_modules():
        snap[mod.__name__] = dict(vars(mod))
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__.startswith("superchar"):
                snap[f"{obj.__module__}.{obj.__qualname__}"] = dict(vars(obj))
    return snap


def test_wrappers_cover_every_binding_and_uninstall_restores_them():
    import superchar
    from superchar import laurentchars, ringdet, superschur, symring
    from superchar.laurentchars import GroupTag, LaurentPoly
    from superchar.partitions import Partition

    args = (GroupTag("Sp", 2), Partition((1, 1)))
    before = _bindings()
    original_det = ringdet.ring_det
    originals = {obj for mod in tracer.package_modules() for name, obj in vars(mod).items()
                 if isinstance(obj, types.FunctionType) and not name.startswith("_")
                 and obj.__module__.startswith("superchar")}
    tr = tracer.Tracer().install()
    try:
        for mod in (ringdet, laurentchars, superschur, symring):
            assert mod.ring_det is not original_det and mod.ring_det.__wrapped__ is original_det
        # no namespace, the package's own included, still binds an unwrapped public function
        for mod in tracer.package_modules():
            stale = [name for name, obj in vars(mod).items() if isinstance(obj, types.FunctionType) and obj in originals]
            assert not stale, (mod.__name__, stale)
        assert superchar.char_group is laurentchars.char_group
        assert LaurentPoly.__dict__["__mul__"].__wrapped__ is before["superchar.laurentchars.LaurentPoly"]["__mul__"]
        assert isinstance(LaurentPoly.__dict__["const"], staticmethod)

        chi = tr.span("harness.case", "harness", laurentchars.char_group, args)
        assert chi.eval_ones() == 5  # the wrapped code still computes the same character
        assert tr.calls("laurentchars.char_group") == 1
        assert tr.calls("ringdet.ring_det") >= 1
        assert tr.calls("laurentchars.LaurentPoly") > 0
        names = [name for name, *_ in tr.spans()]
        assert names[:2] == ["harness.case", "laurentchars.char_group"] and "ringdet.ring_det" in names
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        for name, obj in attrs.items():
            assert after[owner][name] is obj, (owner, name)


def test_cache_ratios_report_missing_functions_as_absent():
    caches = {"symring.cache_hit_ratio": [("symring", "_h_in_e")],
              "gone.ratio": [("symring", "_no_such_cache")]}
    ratios, absent = passrun.cache_ratios(caches)
    assert set(ratios) == {"symring.cache_hit_ratio"} and 0.0 <= ratios["symring.cache_hit_ratio"] <= 1.0
    assert absent == ["symring._no_such_cache"]


# -- end to end ---------------------------------------------------------------------------

def _checkout(tmp_path: Path, with_src: bool) -> Path:
    dest = tmp_path / "checkout"
    dest.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def _bench(cwd: Path, workload: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_sabotaged_result_fails_the_run(tmp_path):
    checkout = _checkout(tmp_path, with_src=True)
    fock_py = checkout / "src" / "superchar" / "fock.py"
    source = fock_py.read_text()
    # one wrong Gram entry that keeps the matrix positive definite, so only
    # the digest can catch it
    sabotaged = source.replace(
        "    return basis, mat\n",
        "    if space.d == 1 and energy2 == 4:\n        mat[-1][-1] *= 2\n    return basis, mat\n",
    )
    assert sabotaged != source
    fock_py.write_text(sabotaged)
    proc = _bench(checkout, "fock-gram")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert 0 < result["failed"] / result["attempted"] < 1
    assert "gram d=1 energy=2 signed" in proc.stdout


def test_run_without_sources_fails_without_a_result(tmp_path):
    checkout = _checkout(tmp_path, with_src=False)
    proc = _bench(checkout, "fock-gram")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
