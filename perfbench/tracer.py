"""Per-layer tracing from outside the program.

The layers are flaghorn's modules.  ``Tracer.install`` wraps every public
function of each module (and the arithmetic of ``SparsePolynomial``) and
puts the wrapper in every ``flaghorn.*`` namespace and module-level dict
that holds the original, because modules bind each other's functions with
``from .flags import codim`` and the suites are dispatched through a dict.

Each wrapped call counts, and adds its duration minus the time of the
wrapped calls inside it to its layer's self time.  Calls into
``AGGREGATED_LAYERS`` and of the functions in ``AGGREGATED`` are only
counted and timed; every other call also records a span (id, parent span
id, name, start, end).  ``uninstall`` puts the
originals back, so that checks run after the traced work are not counted.
"""

from __future__ import annotations

import itertools
import sys
import time

LAYERS = ("perm", "flags", "poly", "oracle", "grassmann", "levi", "factor", "suites", "cli")

# Short names for functions whose metric names the benchmark fixes.
ALIASES = {
    "oracle.expand_in_schubert_basis": "oracle.expand",
    "poly.__mul__": "poly.mul",
    "poly.__add__": "poly.add",
    "poly.__sub__": "poly.sub",
    "poly.__neg__": "poly.neg",
}

POLY_METHODS = ("__mul__", "__add__", "__sub__", "__neg__", "swap_variables", "leading_term")

# Leaf functions called hundreds of thousands of times per job: counted and
# timed in aggregate instead of one span per call.
AGGREGATED_LAYERS = ("perm", "flags", "poly")
AGGREGATED = {
    "oracle.schubert_polynomial",
    "grassmann.check_partition",
    "grassmann.partition_from_perm",
    "grassmann.perm_from_partition",
    "grassmann.partitions_in_rectangle",
    "grassmann.lr_coefficient",
    "grassmann.lr_expand",
    "grassmann.product_to_point",
    "grassmann.horn_inequality_holds",
}

# Functions whose arguments or results feed the work counters.
HOOKED = {"poly.mul", "oracle.expand", "levi.exact_degree_tuples", "levi.is_levi_movable",
          "factor.factor_full"}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.inclusive_s: dict[str, float] = {}
        self.counters: dict[str, int] = {
            "poly.term_products": 0,
            "oracle.expand.terms": 0,
            "levi.tuples_kept": 0,
            "levi.verdicts": 0,
            "levi.movable_verdicts": 0,
            "factor.levels": 0,
        }
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[list] = []  # per active call: [child seconds, span id]
        self._next_id = itertools.count(1).__next__
        self._replaced: list[tuple[object, str, object, bool]] = []

    # -- hooks that count the work a call did --------------------------------

    def _before(self, name: str, args: tuple) -> None:
        if name == "poly.mul" and len(args) == 2 and hasattr(args[1], "terms"):
            self.counters["poly.term_products"] += len(args[0].terms) * len(args[1].terms)

    def _after(self, name: str, result) -> None:
        if name == "oracle.expand":
            self.counters["oracle.expand.terms"] += len(result)
        elif name == "levi.exact_degree_tuples":
            self.counters["levi.tuples_kept"] += len(result)
        elif name == "levi.is_levi_movable":
            self.counters["levi.verdicts"] += 1
            self.counters["levi.movable_verdicts"] += result.movable
        elif name == "factor.factor_full":
            self.counters["factor.levels"] += len(result.levels())

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, func, name: str, layer: str):
        spanned = layer not in AGGREGATED_LAYERS and name not in AGGREGATED
        hooked = name in HOOKED
        clock = time.perf_counter
        stack, next_id = self._stack, self._next_id
        calls, self_s, inclusive, spans = self.calls, self.self_s, self.inclusive_s, self.spans
        calls.setdefault(name, 0)
        inclusive.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            sid = next_id() if spanned else parent
            frame = [0.0, sid]
            if hooked:
                self._before(name, args)
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                inclusive[name] += duration
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if spanned:
                    spans.append((sid, parent, name, start, end))
            if hooked:
                self._after(name, result)
            return result

        return wrapper

    def _targets(self, modules):
        for layer in LAYERS:
            mod = modules.get(f"flaghorn.{layer}")
            if mod is None:  # flaghorn.cli, in a session that only uses the library
                continue
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if callable(obj) and not isinstance(obj, type) and obj.__module__ == mod.__name__:
                    yield layer, attr, obj
        poly_cls = modules["flaghorn.poly"].SparsePolynomial
        for attr in POLY_METHODS:
            yield "poly", attr, poly_cls.__dict__[attr]

    def install(self) -> None:
        modules = {k: v for k, v in sys.modules.items() if k == "flaghorn" or k.startswith("flaghorn.")}
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, attr, func in self._targets(modules):
            name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
            wrappers[id(func)] = (func, self._wrap(func, name, layer))
        poly_cls = modules["flaghorn.poly"].SparsePolynomial
        containers: list[tuple[object, dict, bool]] = [(poly_cls, dict(poly_cls.__dict__), True)]
        for mod in modules.values():
            containers.append((mod, vars(mod), True))
            containers += [(v, v, False) for v in vars(mod).values() if isinstance(v, dict)]
        for owner, namespace, is_attr in containers:
            for key, value in list(namespace.items()):
                func, wrapper = wrappers.get(id(value), (None, None))
                if func is not value:
                    continue
                if is_attr:
                    setattr(owner, key, wrapper)
                else:
                    namespace[key] = wrapper
                self._replaced.append((owner, key, value, is_attr))

    def uninstall(self) -> None:
        for owner, key, value, is_attr in reversed(self._replaced):
            if is_attr:
                setattr(owner, key, value)
            else:
                owner[key] = value
        self._replaced.clear()

    def report(self) -> dict[str, float]:
        """Counts, self times and cache statistics by metric name.  Call it
        after ``uninstall``, when the cached functions are back."""
        out: dict[str, float] = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update({f"{layer}.self_s": t for layer, t in self.self_s.items()})
        out.update({f"{name}.inclusive_s": t for name, t in self.inclusive_s.items()})
        out.update(self.counters)
        grassmann = sys.modules["flaghorn.grassmann"]
        for fn in ("lr_coefficient", "lr_expand"):
            info = getattr(grassmann, fn).cache_info()
            out[f"grassmann.{fn}.hits"] = info.hits
            out[f"grassmann.{fn}.misses"] = info.misses
        out["trace.spans"] = len(self.spans)
        return out
