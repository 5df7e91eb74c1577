"""Span tracer for the benchmark's traced run, installed from outside the package.

It wraps the public functions of each ``powergraphs`` module at every module
attribute that is bound to them, so calls resolved through ``from .x import f``
in ``cli``, ``harness`` and ``suites`` are caught as well as calls inside the
defining module. It also wraps the ``PowerGraph`` predicate methods,
``Group.sylow_decomposition`` and the first computation of the
``Group.closure_masks`` cached property. Nothing under ``src/`` is edited.

Spans (layer, start, end, parent, request id) and counters are kept in memory.
A layer's time is the self time of its spans: duration minus the time covered
by wrapped child spans, so the layer times of a request add up to the request
span. ``is_cut_set`` calls inside a cut-set enumeration are counted, not
spanned: they are the enumeration's inner loop and their time stays in it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import cached_property

REQUEST = "cli.request"

# (layer, module, public functions the layer owns)
FUNCTIONS = (
    (REQUEST, "cli", ("main",)),
    (
        "groups.construct",
        "groups",
        ("make_cyclic", "make_abelian", "make_dihedral", "make_generalized_quaternion", "direct_product"),
    ),
    ("cyclic.maximal", "cyclic", ("maximal_cyclic_subgroups", "min_order_maximal_cyclic", "maximal_cyclic_orders")),
    (
        "cyclic.constructions",
        "cyclic",
        (
            "cyclic_subgroup",
            "nongenerators",
            "external_overlap",
            "sylow_product",
            "sylow_complement_product",
            "elements_of_exact_order",
            "elements_of_dividing_order",
            "gamma_set",
            "external_generator_witness",
        ),
    ),
    ("powergraph.build", "powergraph", ("build_power_graph",)),
    ("powergraph.predicates", "powergraph", ("proper_power_graph_connected",)),
    ("connectivity.kappa", "connectivity", ("vertex_connectivity", "minimum_cutset")),
    ("connectivity.st", "connectivity", ("min_vertex_cut_between", "max_disjoint_paths")),
    ("connectivity.enum", "connectivity", ("all_minimum_cutsets",)),
    (
        "predictions.formulas",
        "predictions",
        (
            "kappa_cyclic",
            "kappa_cyclic_lower_bound",
            "kappa_nilpotent_one_noncyclic",
            "kappa_abelian_two_primes",
            "kappa_abelian_three_primes",
            "condition_two_phi",
            "inequality_t_plus_1",
            "gamma_cardinality",
        ),
    ),
    ("harness.predict", "harness", ("predict_for_group",)),
    ("harness.verify", "harness", ("verify_theorem", "_verify_props")),
    ("harness.survey", "harness", ("survey",)),
    ("harness.suites", "harness", ("run_property_suite",)),
)

# (layer, module, class, methods)
METHODS = (
    (
        "powergraph.predicates",
        "powergraph",
        "PowerGraph",
        ("is_cut_set", "is_minimal_cut_set", "is_separation", "components_after_removal", "is_connected"),
    ),
    ("groups.sylow", "groups", "Group", ("sylow_decomposition",)),
)

CLOSURES = "groups.closures"
ENUM = "connectivity.enum"
SUITE_CHECK = "suites.checks"


class Tracer:
    """Records spans and counters while installed; a no-op once removed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent index, request id]
        self.counts: Counter[str] = Counter()
        self.unbound: list[str] = []  # wrapped names the package no longer has
        self._stack: list[int] = []
        self._enum_depth = 0
        self._request_id = -1

    # -- recording -------------------------------------------------------

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self._request_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, fn):
        if layer == ENUM:
            limit_error = sys.modules["powergraphs.connectivity"].ResourceLimitError
            counts = self.counts

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self._open(layer)
                self._enum_depth += 1
                try:
                    found = fn(*args, **kwargs)
                except limit_error as exc:
                    counts["connectivity.resource_limits"] += 1
                    counts["connectivity.enum_cutsets_found"] += len(exc.partial)
                    raise
                finally:
                    self._enum_depth -= 1
                    self._close(idx)
                counts["connectivity.enum_cutsets_found"] += len(found)
                return found

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_cut_check(self, fn):
        spanned = self._wrap("powergraph.predicates", fn)
        counts = self.counts

        @functools.wraps(fn)
        def traced(graph, vertices):
            if self._enum_depth:
                counts["connectivity.enum_cut_checks"] += 1
                return fn(graph, vertices)
            return spanned(graph, vertices)

        return traced

    # -- installation ----------------------------------------------------

    @contextmanager
    def recording(self, request_id: int):
        """Install every wrapper for one request, then restore the originals."""
        self._request_id = request_id
        restore = self._install()
        try:
            yield
        finally:
            for undo in reversed(restore):
                undo()

    def _install(self) -> list:
        """Swap in the wrappers; returns the calls that put the originals back."""
        modules = {
            name[len("powergraphs.") :]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("powergraphs.") and mod is not None
        }
        replacements: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for layer, module, names in FUNCTIONS:
            for name in names:
                original = getattr(modules.get(module), name, None)
                if original is None:
                    self._note_unbound(f"{module}.{name}")
                    continue
                replacements[id(original)] = (original, self._wrap(layer, original))
        suites = modules.get("suites")
        for check in getattr(suites, "SUITES", {}).values():
            replacements[id(check)] = (check, self._wrap(SUITE_CHECK, check))

        restore = []
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    restore.append(functools.partial(setattr, mod, attr, value))
                    setattr(mod, attr, hit[1])
        if suites is not None:
            registry = suites.SUITES
            for sid, check in list(registry.items()):
                restore.append(functools.partial(registry.__setitem__, sid, check))
                registry[sid] = replacements[id(check)][1]

        for layer, module, cls_name, names in METHODS:
            cls = getattr(modules.get(module), cls_name, None)
            for name in names:
                original = cls.__dict__.get(name) if cls is not None else None
                if original is None:
                    self._note_unbound(f"{module}.{cls_name}.{name}")
                    continue
                wrapper = self._wrap_cut_check(original) if name == "is_cut_set" else self._wrap(layer, original)
                restore.append(functools.partial(setattr, cls, name, original))
                setattr(cls, name, wrapper)

        group_cls = getattr(modules.get("groups"), "Group", None)
        prop = group_cls.__dict__.get("closure_masks") if group_cls is not None else None
        if isinstance(prop, cached_property):
            build = self._wrap(CLOSURES, prop.func)
            counts = self.counts

            def closure_masks(group):
                counts["groups.closure_builds"] += 1
                counts["groups.closure_elements"] += group.size
                return build(group)

            traced = cached_property(closure_masks)
            traced.__set_name__(group_cls, "closure_masks")
            restore.append(functools.partial(setattr, group_cls, "closure_masks", prop))
            group_cls.closure_masks = traced
        else:
            self._note_unbound("groups.Group.closure_masks")
        return restore

    def _note_unbound(self, name: str) -> None:
        if name not in self.unbound:
            self.unbound.append(name)

    # -- results ---------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Self time and span count per layer, and the summed request time."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        request_time = 0.0
        for (layer, start, end, _, _), inner in zip(self.spans, covered):
            self_time[layer] = self_time.get(layer, 0.0) + (end - start - inner)
            calls[layer] = calls.get(layer, 0) + 1
            if layer == REQUEST:
                request_time += end - start
        return self_time, calls, request_time

