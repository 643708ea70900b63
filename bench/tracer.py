"""Out-of-library tracing: timed wrappers around rkhsquad functions.

The tracer replaces each traced function with a wrapper in every module
namespace, and every module-level dict, that holds it
(``experiments.mdm_build``, ``worst_case.hermite_table``, ``verify.SUITES``
and so on), so calls between modules are timed too.  No library file is
edited; ``uninstall`` restores every original binding.

A span is ``[name, start, end, parent, op, raised]``; spans stay in memory
and the worker writes them out when its pass ends.  A layer's self time is
its spans' total duration minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = (
    "hermite",
    "kernels",
    "worst_case",
    "transference",
    "algorithms",
    "experiments",
    "verify",
    "cli",
)

# Private functions traced by name; every public function is traced.
NAMED_PRIVATE = {
    "worst_case": ("_solve_spd", "_spectral_norm"),
    "algorithms": ("_component_local", "_group_by_support", "_pairwise_quadratic"),
}

# Methods traced on their class; several methods may share one span name.
METHODS = {
    ("worst_case", "MultiIndexSet"): {
        "__init__": "worst_case.MultiIndexSet",
        "box": "worst_case.MultiIndexSet",
        "complement_minimal": "worst_case.complement_minimal",
    },
    ("worst_case", "SpectralSystem"): {
        "eigenfunction_matrix": "worst_case.eigenfunction_matrix",
        "max_tail_eigenvalue": "worst_case.max_tail_eigenvalue",
        "tail_eigenvalue_sum": "worst_case.tail_eigenvalue_sum",
    },
}

# Dense kernels called from inside _solve_spd, timed apart from it.
SOLVE_LEAVES = (
    ("numpy.linalg", "eigvalsh", "worst_case._solve_spd.eig"),
    ("scipy.linalg", "cho_factor", "worst_case._solve_spd.chol"),
    ("scipy.linalg", "cho_solve", "worst_case._solve_spd.chol"),
)

HOOK_SPAN = "bench.trace_hooks"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.op = -1
        self.paused = False
        self._stack: list = []
        self._restore: list = []
        self._mods: dict = {}

    # -- recording -------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, perf_counter(), None, parent, self.op, True]
        self.spans.append(span)
        return span

    def _close(self, span, raised):
        span[2] = perf_counter()
        span[5] = raised
        self._stack.pop()

    def _current(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name, fn, before=None, after=None):
        """Timed wrapper; ``before``/``after`` hooks update counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            state = tracer._hook(before, args, kwargs) if before else None
            span = tracer._open(name)
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                tracer._close(span, raised)
            if after:
                tracer._hook(after, args, kwargs, out, state)
            return out

        return traced

    def _hook(self, hook, *hook_args):
        """Run a counting hook in a span of its own, so that its time is not
        charged to the traced caller."""
        span = self._open(HOOK_SPAN)
        try:
            return hook(self, *hook_args)
        finally:
            self._close(span, False)

    def _leaf(self, name, fn, under):
        """Wrapper that records a span only when called directly from ``under``."""
        tracer = self
        timed = self.wrap(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.paused and tracer._current() == under:
                return timed(*args, **kwargs)
            return fn(*args, **kwargs)

        return traced

    # -- installation ----------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            # a class's __dict__ keeps classmethod objects unwrapped
            old = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            self._restore.append((owner, key, old))
            setattr(owner, key, value)

    def install(self):
        pkg = importlib.import_module("rkhsquad")
        mods = {m: importlib.import_module(f"rkhsquad.{m}") for m in MODULES}
        self._mods = mods
        self._gh_rule = mods["hermite"].gauss_hermite_rule
        self._gh_misses = self._gh_rule.cache_info().misses
        hooks = _counter_hooks(mods)
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") and attr not in NAMED_PRIVATE.get(short, ()):
                    continue
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(name, obj, *hooks.get(name, (None, None))))

        def lookup(obj):
            hit = wrappers.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        for mod in (pkg, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if lookup(obj) is not None:
                    self._set(mod, attr, lookup(obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if lookup(value) is not None:
                            self._set(obj, key, lookup(value))
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(mods[short], cls_name)
            for meth, name in methods.items():
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._set(cls, meth, self.wrap(name, raw, *hooks.get(name, (None, None))))
        for mod_name, attr, name in SOLVE_LEAVES:
            owner = importlib.import_module(mod_name)
            self._set(owner, attr, self._leaf(name, getattr(owner, attr), "worst_case._solve_spd"))
        return self

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def read_caches(self):
        """Read the library's cache sizes from outside it."""
        alg = self._mods["algorithms"]
        self.counters["algorithms.component_cache_entries"] = len(alg._LOCAL_COMPONENT_CACHE)
        self.counters["algorithms.smolyak_cache_entries"] = len(alg._LOCAL_SMOLYAK_CACHE)
        self.counters["hermite.gauss_hermite_rule.misses"] = (
            self._gh_rule.cache_info().misses - self._gh_misses
        )


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(span[2] - span[1]) - child[i] for i, span in enumerate(spans)]


def layer_metrics(spans, counters, pass_s):
    """Per-layer numbers of one traced pass, keyed ``<module>.<function>.<stat>``.

    ``<module>.raised`` counts exceptions where they leave a module: a span
    that raised under a parent of another module, or at the top level.
    The counting hooks' own time is harness time: it goes to
    ``trace.hook_s``, not to any layer or to ``trace.self_s_sum``.
    """
    out = defaultdict(float)
    for (name, start, end, parent, _, raised), self_s in zip(spans, self_times(spans)):
        if name == HOOK_SPAN:
            out["trace.hook_s"] += self_s
            continue
        module = name.split(".", 1)[0]
        out[f"{name}.self_s"] += self_s
        out[f"{name}.calls"] += 1
        out[f"{module}.self_s"] += self_s
        out["trace.self_s_sum"] += self_s
        if raised and (parent < 0 or spans[parent][0].split(".", 1)[0] != module):
            out[f"{module}.raised"] += 1
        if name.startswith("worst_case._solve_spd."):
            out[f"{name}_s"] += end - start
    for key, value in counters.items():
        out[key] += value
    out["trace.spans"] = len(spans)
    out["trace.self_share"] = out["trace.self_s_sum"] / pass_s if pass_s > 0 else 0.0
    return dict(out)


def kernel_entries(groups) -> int:
    """Entries _pairwise_quadratic evaluates: sum over group pairs a <= b of
    n_a * n_b * |supp_a union supp_b| (one kernel factor per active coordinate)."""
    if not groups:
        return 0
    width = 1 + max((max(s) for s, _, _ in groups if s), default=0)
    member = np.zeros((len(groups), width), dtype=np.int64)
    for i, (supp, _, _) in enumerate(groups):
        member[i, list(supp)] = 1
    sizes = member.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - member @ member.T
    counts = np.array([nodes.shape[0] for _, nodes, _ in groups], dtype=np.int64)
    return int(np.triu(counts[:, None] * counts[None, :] * union).sum())


def _counter_hooks(mods):
    """Counting hooks keyed by span name: (before, after) pairs."""
    alg = mods["algorithms"]

    def add(key, value):
        def hook(tracer, args, kwargs, out, state):
            tracer.counters[key] += value(args, kwargs, out)

        return hook

    def size(args, kwargs, out):
        return int(np.size(out))

    def component_before(tracer, args, kwargs):
        return tuple(args[:2]) not in alg._LOCAL_COMPONENT_CACHE

    def component_after(tracer, args, kwargs, out, missed):
        tracer.counters["algorithms._component_local.misses"] += int(missed)

    def solve_after(tracer, args, kwargs, out, state):
        key = "worst_case._solve_spd.cond_max"
        tracer.counters[key] = max(tracer.counters[key], float(out[1]))

    def dense_bytes(args, kwargs, out):
        system = args[1] if len(args) > 1 else kwargs["system"]
        return 8 * system.index_set.size ** 2

    return {
        "hermite.hermite_table": (None, add("hermite.hermite_table.entries", size)),
        "kernels.gaussian_kernel": (None, add("kernels.kernel_entries", size)),
        "kernels.hermite_kernel": (None, add("kernels.kernel_entries", size)),
        "worst_case.kernel_gram": (None, add("worst_case.kernel_gram.entries", size)),
        "worst_case._solve_spd": (None, solve_after),
        "worst_case.eigenfunction_matrix": (
            None,
            add("worst_case.eigenfunction_matrix.entries", size),
        ),
        "worst_case.wce_approximation": (
            None,
            add("worst_case.wce_approximation.dense_bytes", dense_bytes),
        ),
        "algorithms._component_local": (component_before, component_after),
        "algorithms.assemble_mdm_plan": (
            None,
            add("algorithms.plan_nodes", lambda a, k, o: o.flattened.n),
        ),
        "algorithms._group_by_support": (
            None,
            add("algorithms.support_groups", lambda a, k, o: len(o)),
        ),
        "algorithms._pairwise_quadratic": (
            None,
            add("algorithms._pairwise_quadratic.kernel_entries", lambda a, k, o: kernel_entries(a[0])),
        ),
        "algorithms.tensor_rule": (None, add("algorithms.tensor_rule.nodes", lambda a, k, o: o.n)),
        "verify.run_suite": (
            None,
            add("verify.checks_failed", lambda a, k, o: sum(1 for r in o if not r.passed)),
        ),
    }
