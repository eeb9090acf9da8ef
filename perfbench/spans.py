"""Per-layer spans recorded from outside the package.

`Tracer.install()` wraps the public functions of each layer module (and a
named set of methods) and binds every wrapper wherever the original is held:
the defining module, each module that did `from .x import y`, module-level
dicts such as `verify.SUITES`, and class attributes (aliases such as
`__rmul__ = __mul__` share one wrapper).  `Tracer.uninstall()` puts every
original back.  The package source is never edited.

A span is (name, start, end, parent).  Spans are kept per thread, because
`verify.run_all` runs a thread pool, in flat arrays that stay in memory until
`Tracer.layer_metrics()` reduces them once at the end of a run.
"""

import functools
import importlib
import sys
import threading
import time
from array import array

PACKAGE = "cluster_friezes"
LAYERS = ("laurent", "mutation", "tropical", "friezes", "finite", "verify", "cli")

# Public helpers whose whole body costs about as much as a wrapper (each is
# called 10^5..10^6 times per workload); wrapping them would swamp the spans
# of the layer they serve.
SKIPPED_FUNCTIONS = {
    "laurent": {"check_trop", "trop_add", "trop_mul"},
    "mutation": {
        "pp", "as_matrix", "transpose", "mat_neg", "mat_mul",
        "row_times_matrix", "matrix_times_col", "reduce_word",
        "canonical_address",
    },
}

# Methods that carry a layer's work.  Other methods are accessors that cost
# less than the wrapper around them.
METHODS = {
    "laurent": {
        "IntLaurentPoly": ("__mul__", "exact_div"),
        "RationalFunction": ("__mul__", "__add__"),
    },
    "mutation": {
        "MatrixPattern": ("at",),
        "SeedPattern": ("seed_at",),
        "GCFPattern": ("at",),
        "Seed": ("unordered_key",),
    },
    "tropical": {"TropPoint": ("coords_at",)},
    "friezes": {"FriezeFunction": ("value",), "Belts": ("_belt_variable",)},
}

# Span names read by the per-layer metrics.
POLY_GCD = "laurent.poly_gcd"
SEED_AT = "mutation.SeedPattern.seed_at"
MUTATE_SEED = ("mutation.mutate_A_seed", "mutation.mutate_Y_seed")
COORDS_AT = "tropical.TropPoint.coords_at"
MATRIX_AT = "mutation.MatrixPattern.at"

# (metric prefix, span names) for every per-layer call count and self time.
TIMED = (
    ("laurent.poly_gcd", (POLY_GCD,)),
    ("laurent.exact_div", ("laurent.IntLaurentPoly.exact_div",)),
    ("laurent.poly_mul", ("laurent.IntLaurentPoly.__mul__",)),
    ("laurent.rf_mul", ("laurent.RationalFunction.__mul__",)),
    ("laurent.rf_add", ("laurent.RationalFunction.__add__",)),
    ("mutation.mutate_Y_seed", ("mutation.mutate_Y_seed",)),
    ("mutation.mutate_A_seed", ("mutation.mutate_A_seed",)),
    ("mutation.seed_at", (SEED_AT,)),
    ("mutation.separation_check", ("mutation.separation_check",)),
    ("mutation.gcf_at", ("mutation.GCFPattern.at",)),
    ("mutation.unordered_key", ("mutation.Seed.unordered_key",)),
    ("mutation.exchange_graph", ("mutation.enumerate_exchange_graph",)),
    ("tropical.coords_at", (COORDS_AT,)),
    ("tropical.admissible",
     ("tropical.check_admissible_A", "tropical.check_admissible_Y")),
    ("friezes.value", ("friezes.FriezeFunction.value",)),
    ("friezes.belt_variable", ("friezes.Belts._belt_variable",)),
    ("friezes.hammock", ("friezes.hammock",)),
    ("finite.finite_context", ("finite.finite_context",)),
    ("finite.pairing", ("finite.pairing",)),
    ("finite.fim_recursion", ("finite.fim_recursion",)),
    ("cli.main", ("cli.main",)),
)

SUITE_NAMES = (
    "remark-not-in", "closure-counts", "periodicity", "realization", "pairing",
    "decomposition", "d-duality", "fpoly-separation", "shift-laws",
    "admissibility",
)


class _ThreadSpans:
    """Flat span arrays of one thread plus its open-span stack."""

    __slots__ = (
        "thread", "names", "starts", "ends", "parents", "stack",
        "gcd_useful", "gcd_max_terms",
    )

    def __init__(self, thread):
        self.thread = thread
        self.gcd_useful = 0  # poly_gcd results other than 1
        self.gcd_max_terms = 0  # largest poly_gcd operand, in terms
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack = []


class Tracer:
    """Records spans of the package's layers between `install()` and
    `uninstall()`."""

    def __init__(self):
        self.span_names = []  # span name id -> name
        self.threads = []  # one _ThreadSpans per thread that recorded a span
        self._local = threading.local()
        self._register = threading.Lock()
        self._saved = []  # (setter, holder, key, original), in install order

    # -- recording -----------------------------------------------------------

    def _spans(self):
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans(threading.current_thread().name)
            self._local.spans = spans
            with self._register:
                self.threads.append(spans)
        return spans

    def wrap(self, name, fn, observe=None):
        """A wrapper of fn that records one span per call under `name`."""
        name_id = len(self.span_names)
        self.span_names.append(name)
        clock = time.perf_counter
        spans_of = self._spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = spans_of()
            stack = spans.stack
            idx = len(spans.names)
            spans.names.append(name_id)
            spans.parents.append(stack[-1] if stack else -1)
            spans.ends.append(0.0)
            stack.append(idx)
            spans.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_gcd(self, args, result):
        spans = self._spans()
        if not result.is_one():
            spans.gcd_useful += 1
        terms = max(len(args[0].terms), len(args[1].terms))
        if terms > spans.gcd_max_terms:
            spans.gcd_max_terms = terms

    # -- binding -------------------------------------------------------------

    def install(self):
        """Wrap every layer and bind the wrappers in every namespace of the
        package that holds an original."""
        modules = _package_modules()
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = modules[layer]
            skipped = SKIPPED_FUNCTIONS.get(layer, set())
            if layer == "verify":
                for suite, fn in module.SUITES.items():
                    wrappers[id(fn)] = (fn, self.wrap(f"verify.{suite}", fn))
            for attr, value in vars(module).items():
                if (
                    attr.startswith("_")
                    or attr in skipped
                    or not callable(value)
                    or isinstance(value, type)
                    or getattr(value, "__module__", None) != module.__name__
                    or id(value) in wrappers
                ):
                    continue
                observe = self._observe_gcd if attr == "poly_gcd" else None
                wrappers[id(value)] = (
                    value, self.wrap(f"{layer}.{attr}", value, observe)
                )
            for cls_name, method_names in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in method_names:
                    fn = cls.__dict__[method]
                    wrapper = self.wrap(f"{layer}.{cls_name}.{method}", fn)
                    wrappers[id(fn)] = (fn, wrapper)
                    # aliases such as __rmul__ = __mul__ get the same wrapper
                    for attr, value in list(vars(cls).items()):
                        if value is fn:
                            self._bind(setattr, cls, attr, fn, wrapper)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bind(setattr, module, attr, value, hit[1])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._bind(dict.__setitem__, value, key, item, hit[1])

    def _bind(self, setter, holder, key, original, wrapper):
        setter(holder, key, wrapper)
        self._saved.append((setter, holder, key, original))

    def uninstall(self):
        """Put back every original the tracer replaced."""
        while self._saved:
            setter, holder, key, original = self._saved.pop()
            setter(holder, key, original)

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self):
        """Reduce the recorded spans to the per-layer metrics.

        Self time is a span's duration minus the durations of its child spans,
        so recursive `poly_gcd` calls are counted once.  `incl_s` of
        `poly_gcd` is the time inside outermost `poly_gcd` calls.  A
        `seed_at` call is a hit when no `mutate_*_seed` span descends from
        it, a `coords_at` call when no `MatrixPattern.at` span does.  Suite
        spans run on pool threads, so their sum can exceed `run_all`'s span.
        """
        names = self.span_names
        ids = {name: i for i, name in enumerate(names)}
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        duration = [0.0] * len(names)
        gcd_incl = 0.0
        misses = {SEED_AT: 0, COORDS_AT: 0}
        gcd_id = ids.get(POLY_GCD, -1)
        miss_triggers = {ids[n]: ids[SEED_AT] for n in MUTATE_SEED if n in ids}
        if MATRIX_AT in ids and COORDS_AT in ids:
            miss_triggers[ids[MATRIX_AT]] = ids[COORDS_AT]
        for spans in self.threads:
            sid, start, end, parent = spans.names, spans.starts, spans.ends, spans.parents
            n = len(sid)
            child = [0.0] * n
            missed = set()
            for i in range(n):
                p = parent[i]
                if p >= 0:
                    child[p] += end[i] - start[i]
            for i in range(n):
                name_id = sid[i]
                calls[name_id] += 1
                duration[name_id] += end[i] - start[i]
                self_s[name_id] += end[i] - start[i] - child[i]
                if name_id == gcd_id:
                    p = parent[i]
                    while p >= 0 and sid[p] != gcd_id:
                        p = parent[p]
                    if p < 0:
                        gcd_incl += end[i] - start[i]
                target = miss_triggers.get(name_id)
                if target is not None:
                    p = parent[i]
                    while p >= 0 and sid[p] != target:
                        p = parent[p]
                    if p >= 0 and p not in missed:
                        missed.add(p)
                        misses[names[target]] += 1

        def total(span_names, values):
            return sum(values[ids[n]] for n in span_names if n in ids)

        out = {}
        for prefix, span_names in TIMED:
            out[f"{prefix}.calls"] = total(span_names, calls)
            out[f"{prefix}.self_s"] = total(span_names, self_s)
        gcd_calls = out["laurent.poly_gcd.calls"]
        out["laurent.poly_gcd.incl_s"] = gcd_incl
        useful = sum(spans.gcd_useful for spans in self.threads)
        out["laurent.poly_gcd.useful_ratio"] = useful / gcd_calls if gcd_calls else 0.0
        out["laurent.poly_gcd.max_terms"] = max(
            (spans.gcd_max_terms for spans in self.threads), default=0
        )
        for metric, span in (
            ("mutation.seed_at.hit_ratio", SEED_AT),
            ("tropical.coords_at.hit_ratio", COORDS_AT),
        ):
            n = total((span,), calls)
            out[metric] = (n - misses[span]) / n if n else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                self_s[i] for i, name in enumerate(names)
                if name.split(".", 1)[0] == layer
            )
        # a suite's span is its duration: its children are its own work
        for suite in SUITE_NAMES + ("run_all",):
            out[f"verify.{suite}.span_s"] = total((f"verify.{suite}",), duration)
        return out


def _package_modules():
    """Every imported module of the package, keyed by its short name
    (the package itself under '')."""
    package = importlib.import_module(PACKAGE)
    for layer in LAYERS:
        importlib.import_module(f"{PACKAGE}.{layer}")
    out = {"": package}
    for name, module in list(sys.modules.items()):
        if name.startswith(PACKAGE + ".") and module is not None:
            out[name[len(PACKAGE) + 1:]] = module
    return out
