"""Outside-in layer tracing for the benchmark.

The tracer wraps functions of the ``gentle`` package from outside: every
binding of each listed function, in every ``gentle.*`` module namespace and
on every class defined there, is replaced by a wrapper that records a span
(name, start, end, parent).  Patching every binding matters because
``exceptional``, ``alp`` and ``cli`` import functions by name, so patching
only the defining module would miss their calls.  A listed name without a
binding is an error: a renamed function must fail loudly instead of
reporting an empty layer.

Spans stay in memory; :meth:`Tracer.summary` folds them into per-layer
calls, inclusive time and self time (duration minus the time covered by
child spans), and :meth:`Tracer.write_spans` writes them out.  Both take
an optional map from ``time.perf_counter`` readings to the clock the
times are reported on (the benchmark's reference clock).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# The layers reported by the benchmark, as <module>.<function> or
# <module>.<Class>.<method> relative to the gentle package.
LAYERS = (
    "exceptional.serre_image",
    "exceptional.identify_shift",
    "exceptional.verify_cycle",
    "exceptional.ag_invariants",
    "exceptional.mouth_objects",
    "complexes.unfold_string",
    "complexes.nakayama_on_projectives",
    "complexes.perfect_replacement",
    "complexes.minimize",
    "hom.HomPair.hom_dim",
    "hom.HomPair.is_null_homotopic",
    "hom.iso_indecomposable",
    "hom.graded_profile",
    "hom.chain_map_dim",
    "alp.alp_basis",
    "alp.single_maps",
    "alp.double_maps",
    "alp.graph_maps",
    "linalg.rank",
    "linalg.nullspace",
    "linalg.solve",
    "linalg.rref",
    "presentation.validate_gentle",
    "threads.enumerate_threads",
)

# Matrix functions whose input size (rows x cols of the first argument) is
# summed as computed work.
MATRIX_LAYERS = ("linalg.rank", "linalg.nullspace", "linalg.solve", "linalg.rref")

# Wrapped only to read the search funnel; not reported as layers.
FUNNEL_HOOKS = (
    "exceptional.brute_force_search",
    "exceptional.default_search_bounds",
    "exceptional._member_profile_of",
)

SEARCH = "exceptional.brute_force_search"

# Counts read at the call boundaries: the search funnel (strings screened,
# members, members linked to a successor within the suspension window,
# closed chains, certified cycles) and identify_shift calls that found an
# isomorphism.
FUNNEL = ("words", "members", "linked", "closed", "certified")
COUNTS = FUNNEL + ("shift_hits",)


class TraceError(RuntimeError):
    pass


def _resolve(name: str):
    module_name, *attrs = name.split(".")
    obj = sys.modules.get(f"gentle.{module_name}")
    if obj is None:
        raise TraceError(f"module gentle.{module_name} is not imported")
    for attr in attrs:
        owner = obj
        obj = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if obj is None:
            raise TraceError(f"{name}: gentle.{module_name} has no attribute path {'.'.join(attrs)}")
    if not callable(obj):
        raise TraceError(f"{name} is not callable")
    return obj


def _bindings(fn) -> list[tuple[object, str]]:
    """Every (namespace, attribute) in the gentle package bound to ``fn``."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "gentle" or mod_name.startswith("gentle.")):
            continue
        for key, value in vars(mod).items():
            if value is fn:
                found.append((mod, key))
            elif isinstance(value, type) and value.__module__ == mod_name:
                for ckey, cvalue in vars(value).items():
                    if cvalue is fn:
                        found.append((value, ckey))
    return found


class Tracer:
    """Span recorder over the listed layers plus the search funnel hooks."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.names = self.layers + FUNNEL_HOOKS
        self._patches: list[tuple[object, str, object, object]] = []
        # span: [name, parent, start, end, entries, outermost, root]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._root = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self._window: list[int | None] = []
        for name in self.names:
            fn = _resolve(name)
            bindings = _bindings(fn)
            if not bindings:
                raise TraceError(f"{name} has no binding in the gentle namespaces")
            wrapper = self._wrap(name, fn)
            for owner, attr in bindings:
                self._patches.append((owner, attr, fn, wrapper))

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._active = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._window = []

    # -- spans ---------------------------------------------------------------
    def _push(self, name: str, entries: int) -> list:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        if parent < 0:
            self._root = idx
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        span = [name, parent, 0.0, 0.0, entries, depth == 0, self._root]
        self.spans.append(span)
        self._stack.append(idx)
        return span

    def _pop(self, span: list) -> None:
        self._stack.pop()
        self._active[span[0]] -= 1

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-2]][0] if len(self._stack) > 1 else None

    @contextlib.contextmanager
    def task(self, label: str):
        """The root span of one benchmark task."""
        span = self._push(f"task:{label}", 0)
        span[2] = time.perf_counter()
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._pop(span)

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        matrix = name in MATRIX_LAYERS
        short = name.rsplit(".", 1)[-1].lstrip("_")
        enter = getattr(self, "_enter_" + short, None)
        observe = getattr(self, "_observe_" + short, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entries = 0
            if matrix:
                m = args[0]
                entries = len(m) * len(m[0]) if len(m) else 0
            span = self._push(name, entries)
            if enter is not None:
                enter(*args, **kwargs)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[3] = clock()
                self._pop(span)
                raise
            span[3] = clock()
            if observe is not None:
                observe(result)
            self._pop(span)
            return result
        return wrapper

    # -- search funnel, read at the call boundaries inside the search -------
    def _in_search(self) -> bool:
        return self._parent_name() == SEARCH

    def _enter_brute_force_search(self, a, max_letters=None, shift_window=None,
                                  *args, **kwargs) -> None:
        self._window.append(shift_window)

    def _observe_default_search_bounds(self, result) -> None:
        if self._in_search() and self._window and self._window[-1] is None:
            self._window[-1] = result[1]

    def _observe_brute_force_search(self, result) -> None:
        self._window.pop()

    def _observe_member_profile_of(self, result) -> None:
        if self._in_search():
            self.counts["words"] += 1
            self.counts["members"] += result is not None

    def _observe_identify_shift(self, result) -> None:
        if result is None:
            return
        self.counts["shift_hits"] += 1
        # the search stops scanning a member's candidates at the first
        # isomorphic one, so each member contributes at most one hit
        if self._in_search() and abs(result) <= self._window[-1]:
            self.counts["linked"] += 1

    def _observe_verify_cycle(self, result) -> None:
        if self._in_search():
            self.counts["closed"] += 1
            self.counts["certified"] += result.ok()

    # -- output --------------------------------------------------------------
    def summary(self, clock=None) -> dict[str, dict[str, float]]:
        """Per layer: calls, incl_s (outermost spans only), self_s and, for
        the matrix layers, entries."""
        clock = clock or (lambda t: t)
        durs = [clock(span[3]) - clock(span[2]) for span in self.spans]
        child = [0.0] * len(self.spans)
        for span, dur in zip(self.spans, durs):
            if span[1] >= 0:
                child[span[1]] += dur
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "entries": 0}
               for name in self.layers}
        for idx, (name, _, _, _, entries, outermost, _) in enumerate(self.spans):
            row = out.get(name)
            if row is None:
                continue
            dur = durs[idx]
            row["calls"] += 1
            row["self_s"] += dur - child[idx]
            row["entries"] += entries
            if outermost:
                row["incl_s"] += dur
        return out

    def write_spans(self, path: str, clock=None) -> None:
        clock = clock or (lambda t: t)
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, parent, start, end, entries, _, root) in enumerate(self.spans):
                start, end = clock(start), clock(end)
                fh.write(json.dumps({"id": idx, "parent": parent, "task": root,
                                     "name": name, "start": start, "end": end,
                                     "entries": entries}) + "\n")
