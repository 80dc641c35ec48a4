"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/passrun.py LAUNCH_NS WORKLOAD SEED TRACE [SPANS_PATH]
    python3 perfbench/passrun.py LAUNCH_NS --setup-only

LAUNCH_NS is the parent's CLOCK_MONOTONIC reading taken just before it
started this process, so `setup_s` covers interpreter start, the imports of
`superchar` and `superchar.cli` and building the CLI parser: what every
`superchar` invocation pays.  `src/` must be on PYTHONPATH; run.py sets it.
"""

import sys
import time


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _setup(launch_ns: int) -> float:
    import superchar  # noqa: F401
    import superchar.cli

    superchar.cli.build_parser()
    return (_now_ns() - launch_ns) / 1e9


CACHES = {
    "laurentchars.cache_hit_ratio": [("laurentchars", "_e_table_inv")],
    "symring.cache_hit_ratio": [("symring", "_h_in_e"), ("symring", "_subsets_with_energy")],
    "superschur.etilde_hit_ratio": [
        ("superschur", "etilde_series"), ("superschur", "etilde_primed"), ("superschur", "_unit"),
    ],
}


def cache_ratios(caches=CACHES):
    """(ratios, absent): hits / lookups per metric, read from `cache_info()`.

    A metric whose functions are all gone is left out and its functions are
    listed in `absent`; with no lookups at all the ratio is 0.
    """
    import importlib

    ratios, absent = {}, []
    for metric, funcs in caches.items():
        hits = lookups = found = 0
        for module, name in funcs:
            info = getattr(getattr(importlib.import_module("superchar." + module), name, None), "cache_info", None)
            if info is None:
                absent.append(f"{module}.{name}")
                continue
            found += 1
            stats = info()
            hits += stats.hits
            lookups += stats.hits + stats.misses
        if found:
            ratios[metric] = hits / lookups if lookups else 0.0
    return ratios, absent


LAYER_MODULES = ("laurentchars", "symring", "ringdet", "superschur", "fock", "hwclassify", "partitions", "infmat", "cli")


def layer_metrics(tr, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (see README.md for definitions)."""
    import tracer as T

    spans = tr.spans()
    self_by_module = T.module_self_times(spans)
    incl = lambda *names: T.inclusive_times(spans, names)  # noqa: E731
    schur = ("sp_schur", "sp_skew", "sp_hook", "sp_hook_det", "so_schur", "so_skew", "so_hook")
    stats = tr.stats
    m = {
        "laurentchars.mul_calls": tr.calls("laurentchars.LaurentPoly.__mul__") + tr.calls("laurentchars.LaurentPoly.__rmul__"),
        "laurentchars.mul_pairs": stats["laurentchars.mul_pairs"],
        "laurentchars.mul_terms_out": stats["laurentchars.mul_terms_out"],
        "laurentchars.char_group_calls": tr.calls("laurentchars.char_group"),
        "laurentchars.char_group_s": incl("laurentchars.char_group"),
        "laurentchars.decompose_s": incl("laurentchars.decompose_character", "laurentchars.tensor_multiplicity"),
        "symring.mul_calls": tr.calls("symring.SymFunc.__mul__") + tr.calls("symring.SymFunc.__rmul__"),
        "symring.mul_pairs": stats["symring.mul_pairs"],
        "symring.mul_terms_out": stats["symring.mul_terms_out"],
        "symring.specialize_s": incl("symring.specialize"),
        "symring.weight_expansion_s": incl("symring.weight_expansion"),
        "ringdet.det_calls": tr.calls("ringdet.ring_det"),
        "ringdet.max_n": stats["ringdet.max_n"],
        "ringdet.det_s": incl("ringdet.ring_det"),
        "superschur.schur_calls": sum(tr.calls("superschur." + n) for n in schur),
        "superschur.schur_s": incl(*("superschur." + n for n in schur)),
        "superschur.verify_self_s": T.named_self_times(spans, ["superschur.verify_identity"]),
        "fock.basis_states": stats["fock.basis_states"],
        "fock.enumerate_s": incl("fock.enumerate_basis"),
        "fock.character_s": incl("fock.fock_character", "fock.character_product_formula"),
        "fock.decompose_self_s": T.named_self_times(spans, ["fock.duality_decompose"]),
        "fock.peeled_labels": stats["fock.peeled_labels"],
        "fock.hwv_s": incl("fock.hwv_candidate"),
        "fock.singularity_s": incl("fock.singularity_check"),
        "fock.apply_mode_calls": tr.calls("fock.apply_mode"),
        "fock.apply_mode_terms_in": stats["fock.apply_mode_terms_in"],
        "fock.inner_products": tr.calls("fock.inner_product"),
        "fock.gram_entries": stats["fock.gram_entries"],
        "fock.gram_nonzero_ratio": stats["fock.gram_nonzero"] / max(1, stats["fock.gram_entries"]),
        "fock.gram_s": incl("fock.gram_matrix"),
        "fock.minors_s": incl("fock.leading_principal_minors"),
        "hwclassify.calls": tr.calls("hwclassify"),
        "partitions.calls": tr.calls("partitions"),
        "infmat.te_generator_calls": tr.calls("infmat.te_generator"),
        "cli.calls": tr.calls("cli"),
        "harness.self_s": self_by_module.get("harness", 0.0),
        "trace.wall_s": wall_s,
        "trace.spans": len(spans),
    }
    for module in LAYER_MODULES:
        m[f"{module}.self_s"] = self_by_module.get(module, 0.0)
    return m


def run_pass(workload: str, seed: int, trace: bool, spans_path: str | None = None) -> dict:
    import hashlib
    import json
    import resource
    import traceback

    import workloads

    cases = workloads.build(workload, seed)
    tr = None
    if trace:
        import tracer

        tr = tracer.Tracer().install()
    result = {"checks": {}, "errors": {}}
    wall = 0.0
    for case in cases:
        t0 = time.perf_counter()
        try:
            out = tr.span("harness.case", "harness", case.run) if tr else case.run()
        except Exception:
            result["errors"][case.name] = traceback.format_exc(limit=4)
            continue
        finally:
            wall += time.perf_counter() - t0
        # checked at once, untimed, so that no case's output is still alive
        # while a later case runs and peak memory does not depend on the order
        try:
            for check_id, (verdict, payload) in case.check(out).items():
                blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
                result["checks"][check_id] = [bool(verdict), hashlib.sha256(blob.encode()).hexdigest()[:16]]
        except Exception:
            result["errors"][case.name] = traceback.format_exc(limit=4)
        del out
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tr:
        tr.uninstall()
        layers = layer_metrics(tr, wall)
        # every span belongs to a wrapped module or to the harness, so the
        # self times add up to the summed root spans, i.e. the pass time
        result["trace_gap_s"] = wall - sum(
            layers[f"{m}.self_s"] for m in ("harness",) + LAYER_MODULES)
        ratios, absent = cache_ratios()
        layers.update(ratios)
        result["layers"] = layers
        result["absent"] = absent
        if spans_path:
            tr.dump(spans_path)
    return result


def main(argv: list[str]) -> int:
    import json

    setup_s = _setup(int(argv[0]))
    if argv[1:] == ["--setup-only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    workload, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
    result = run_pass(workload, seed, trace, argv[4] if len(argv) > 4 else None)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
