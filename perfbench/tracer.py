"""Per-module tracing of superchar from outside the program.

`Tracer.install()` replaces every public function of every `superchar`
module, in each namespace that binds it, and every public or dunder method of
the classes those modules define, with a wrapper; `uninstall()` puts the
original objects back.  Each wrapper counts its calls.  It records a span
(name, start, end, parent) when the call enters a module from another one,
and always for the functions in `ALWAYS_SPAN`, whose own times are metrics.
A call that stays inside the module of the span around it only counts: its
time is that span's self time either way, and a span per call would cost
more than the work on the hottest paths (`apply_mode`, `mono_degree`, ...).

Spans stay in memory; `self_times` and `inclusive_times` reduce them after the
pass, and `dump` writes them out.
"""

from __future__ import annotations

import json
import sys
import time
import types
from array import array
from functools import _lru_cache_wrapper

PACKAGE = "superchar"

# functions whose inclusive time is a metric, so they get a span on every call
ALWAYS_SPAN = frozenset(
    {
        "laurentchars.char_group",
        "laurentchars.decompose_character",
        "laurentchars.tensor_multiplicity",
        "symring.specialize",
        "symring.weight_expansion",
        "ringdet.ring_det",
        "superschur.verify_identity",
        "superschur.sp_schur",
        "superschur.sp_skew",
        "superschur.sp_hook",
        "superschur.sp_hook_det",
        "superschur.so_schur",
        "superschur.so_skew",
        "superschur.so_hook",
        "fock.enumerate_basis",
        "fock.fock_character",
        "fock.character_product_formula",
        "fock.duality_decompose",
        "fock.hwv_candidate",
        "fock.singularity_check",
        "fock.gram_matrix",
        "fock.leading_principal_minors",
    }
)

# class attributes that are never called on a hot path worth a wrapper
SKIP_METHODS = frozenset({"__setattr__", "__delattr__", "__repr__"})


def _terms(x) -> int:
    terms = getattr(x, "terms", None)
    return 1 if terms is None else len(terms)


def _mul_hook(prefix):
    def hook(stats, args, result):
        stats[prefix + "pairs"] += len(args[0].terms) * _terms(args[1])
        stats[prefix + "terms_out"] += len(result.terms)

    return hook


def _det_hook(stats, args, result):
    stats["ringdet.max_n"] = max(stats["ringdet.max_n"], len(args[0]))


def _basis_hook(stats, args, result):
    stats["fock.basis_states"] += len(result)


def _decompose_hook(stats, args, result):
    stats["fock.peeled_labels"] += len(result)


def _apply_mode_hook(stats, args, result):
    stats["fock.apply_mode_terms_in"] += len(args[2].terms)


def _gram_hook(stats, args, result):
    _basis, mat = result
    stats["fock.gram_entries"] += sum(len(row) for row in mat)
    stats["fock.gram_nonzero"] += sum(1 for row in mat for v in row if v)


# counters beyond call counts: wrapped name -> hook(stats, args, result)
HOOKS = {
    "laurentchars.LaurentPoly.__mul__": _mul_hook("laurentchars.mul_"),
    "laurentchars.LaurentPoly.__rmul__": _mul_hook("laurentchars.mul_"),
    "symring.SymFunc.__mul__": _mul_hook("symring.mul_"),
    "symring.SymFunc.__rmul__": _mul_hook("symring.mul_"),
    "ringdet.ring_det": _det_hook,
    "fock.enumerate_basis": _basis_hook,
    "fock.duality_decompose": _decompose_hook,
    "fock.apply_mode": _apply_mode_hook,
    "fock.gram_matrix": _gram_hook,
}
HOOK_STATS = (
    "laurentchars.mul_pairs", "laurentchars.mul_terms_out", "symring.mul_pairs", "symring.mul_terms_out",
    "ringdet.max_n", "fock.basis_states", "fock.peeled_labels", "fock.apply_mode_terms_in",
    "fock.gram_entries", "fock.gram_nonzero",
)


def package_modules() -> list[types.ModuleType]:
    """The imported superchar package and its submodules, in a fixed order."""
    return [sys.modules[n] for n in sorted(sys.modules) if n == PACKAGE or n.startswith(PACKAGE + ".")]


def _targets(modules):
    """(functions, classes): {original function: name}, {class: module name}.

    A function belongs to the module whose namespace binds it under a public
    name and where it was defined (`__module__`).
    """
    funcs, classes = {}, {}
    for mod in modules:
        for name, obj in vars(mod).items():
            owner = getattr(obj, "__module__", None)
            if owner != mod.__name__ or name.startswith("_"):
                continue
            short = owner.rsplit(".", 1)[-1]
            if isinstance(obj, (types.FunctionType, _lru_cache_wrapper)):
                funcs[obj] = f"{short}.{name}"
            elif isinstance(obj, type):
                classes[obj] = short
    return funcs, classes


class Tracer:
    """Counts calls and records spans across the superchar modules."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []  # span name table
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, list[int]] = {}  # wrapped name -> [calls]
        self.stats = dict.fromkeys(HOOK_STATS, 0)
        self._stack = [-1]
        self._top = ["<none>"]  # module of the innermost open span
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, module: str, fn, args=(), kwargs=None):
        """Call fn inside a span; also the harness's root span around each case."""
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        stack, top = self._stack, self._top
        outer = top[0]
        stack.append(idx)
        top[0] = module
        self.start.append(self.clock())
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.end[idx] = self.clock()
            stack.pop()
            top[0] = outer

    def _wrap(self, fn, name: str, module: str):
        cell = self.counts.setdefault(name, [0])
        top = self._top
        span = self.span
        hook = HOOKS.get(name)
        stats = self.stats
        if name in ALWAYS_SPAN:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                result = span(name, module, fn, args, kwargs)
                if hook is not None:
                    hook(stats, args, result)
                return result
        elif hook is not None:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                if top[0] == module:
                    result = fn(*args, **kwargs)
                else:
                    result = span(name, module, fn, args, kwargs)
                hook(stats, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                cell[0] += 1
                if top[0] == module:
                    return fn(*args, **kwargs)
                return span(name, module, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- install / uninstall ----------------------------------------------------
    def _replace(self, owner, attr: str, original, replacement):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap_method(self, raw, name: str, module: str):
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(raw.__func__, name, module))
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, name, module))
        if isinstance(raw, property):
            return property(self._wrap(raw.fget, name, module), raw.fset, raw.fdel, raw.__doc__)
        if isinstance(raw, types.FunctionType):
            return self._wrap(raw, name, module)
        return None

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        funcs, classes = _targets(modules)
        wrappers = {fn: self._wrap(fn, name, name.split(".", 1)[0]) for fn, name in funcs.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, (types.FunctionType, _lru_cache_wrapper)) and obj in wrappers:
                    self._replace(mod, attr, obj, wrappers[obj])
        for cls, module in classes.items():
            for attr, raw in list(vars(cls).items()):
                if attr in SKIP_METHODS or (attr.startswith("_") and not attr.startswith("__")):
                    continue
                wrapped = self._wrap_method(raw, f"{module}.{cls.__name__}.{attr}", module)
                if wrapped is not None:
                    self._replace(cls, attr, raw, wrapped)
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reductions ---------------------------------------------------------------
    def calls(self, prefix: str) -> int:
        """Calls into wrapped names equal to prefix or starting with prefix + '.'."""
        return sum(c[0] for name, c in self.counts.items() if name == prefix or name.startswith(prefix + "."))

    def spans(self):
        """(name, start, end, parent) per span, in the order they were opened."""
        names = self.names
        return [(names[n], s, e, p) for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)]

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name_id": list(self.name_id), "parent": list(self.parent),
                       "start": list(self.start), "end": list(self.end)}, fh)


def self_times(spans) -> list[float]:
    """Span duration minus the time its child spans cover.

    Spans come in the order they were opened, so a parent precedes its
    children; children of one span never overlap in a single thread.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, _p) in enumerate(spans)]


def module_self_times(spans) -> dict[str, float]:
    """Self time per module; a span's module is its name up to the first dot."""
    out: dict[str, float] = {}
    for (name, *_), t in zip(spans, self_times(spans)):
        mod = name.split(".", 1)[0]
        out[mod] = out.get(mod, 0.0) + t
    return out


def inclusive_times(spans, group) -> float:
    """Summed duration of spans named in `group` that no other such span encloses."""
    group = set(group)
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        enclosed = parent >= 0 and inside[parent]
        inside[i] = enclosed or name in group
        if name in group and not enclosed:
            total += end - start
    return total


def named_self_times(spans, group) -> float:
    """Summed self time of the spans named in `group`."""
    group = set(group)
    return sum(t for (name, *_), t in zip(spans, self_times(spans)) if name in group)
