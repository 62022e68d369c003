"""The benchmark's workloads: seed-defined inputs, tasks and reference checks.

Every workload is a fixed list of tasks; one pass runs each task once.  The
seed decides the presentation of each input and the task order, never the
isomorphism class: vertices and arrows are renamed and reordered, and the
arrow order changes the canonical sign assignment.  Every seed therefore
does the same mathematics on inputs no other seed sees, and per-algebra
cost, which varies by an order of magnitude between random algebras, does
not move run-to-run figures.  Seed 0 keeps the original names and order.

A task returns a JSON-able result summary that does not depend on the
seed, and raises on a failed check.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("search-corpus", "search-large", "invariants")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# search-corpus: pent plus the algebras random_gentle(s, max_vertices=5,
# exclude_a3_graph=True) for s = 3000, 3001, ... whose default-bound string
# count is at most 100, up to s = 3022.  The acceptance corpus is s = 3000
# to 3009; its four members with 356 to 2343 strings take most of its time
# and belong with search-large.
SEARCH_CORPUS_SEEDS = (3002, 3003, 3004, 3005, 3007, 3008, 3012, 3014, 3015,
                       3017, 3019, 3020, 3021, 3022)
# search-large: random_gentle(647, max_vertices=8), 7 vertices, 8 arrows,
# 881 strings at the default bounds and three cycles, so the string layer
# and the member screen weigh more and the certificates less than on the
# small algebras.  The 6,295-string algebra random_gentle(510,
# max_vertices=8) takes about 30 s, longer than a run.
SEARCH_LARGE_SEED = 647
# invariants: random_corpus(5000, 50, max_vertices=10).
INVARIANTS_BASE, INVARIANTS_COUNT = 5000, 50


class CheckFailed(Exception):
    """A result disagreed with its reference."""


def _relabel(p, rng: random.Random | None):
    """The presentation with vertices and arrows renamed and reordered."""
    from gentle.presentation import Arrow, Presentation
    if rng is None:
        return p
    vertices = list(p.vertices)
    arrows = list(p.arrows)
    relations = list(p.relations)
    rng.shuffle(vertices)
    rng.shuffle(arrows)
    rng.shuffle(relations)
    vname = {v: f"v{i}" for i, v in enumerate(vertices)}
    aname = {x.name: f"x{i}" for i, x in enumerate(arrows)}
    return Presentation(
        p.name, tuple(vname[v] for v in vertices),
        tuple(Arrow(aname[x.name], vname[x.source], vname[x.target]) for x in arrows),
        tuple((aname[first], aname[second]) for first, second in relations))


def _rng(seed: int, salt: str) -> random.Random | None:
    return None if seed == 0 else random.Random(f"{salt}:{seed}")


def _fixture(name: str):
    from gentle.presentation import parse_presentation
    with open(os.path.join(ROOT, "fixtures", f"{name}.gentle"), encoding="utf-8") as fh:
        return parse_presentation(fh.read())


# --- in-process tasks -----------------------------------------------------------

def search_task(p):
    """Search and classifier on one algebra; they must agree."""
    from gentle import exceptional, presentation
    a = presentation.validate_gentle(p)
    found = exceptional.brute_force_search(a)
    expected = exceptional.classify_exceptional_cycles(a)
    if len(found) != len(expected):
        raise CheckFailed(f"search found {len(found)} cycles, classifier {len(expected)}")
    for c in expected:
        if not any(exceptional.cycle_equiv(c, f) for f in found):
            raise CheckFailed(f"classifier cycle {c!r} missing from the search")
    return tuple(sorted((c.n, c.calabi_yau) for c in expected))


def invariants_task(p):
    """Mouth Hom table, orbit against walk pairs, classifier, ALP bases."""
    from gentle import alp, complexes, exceptional, hom, presentation, threads, words
    a = presentation.validate_gentle(p)
    mouths = exceptional.mouth_objects(a)
    if any(m.flagged for m in mouths):
        raise CheckFailed("flagged mouth objects")
    serre = [exceptional.serre_of_mouth(a, m) for m in mouths]
    for i, M in enumerate(mouths):
        target, twist = serre[i]
        for j, N in enumerate(mouths):
            prof = hom.graded_profile(M.complex, N.complex)
            lo, hi = prof.window
            for t in range(lo, hi + 1):
                same = i == j and t == 0
                hit = N.thread == target and t == twist
                expected = 2 if (same and hit) else (1 if (same or hit) else 0)
                if prof.dim(t) != expected:
                    raise CheckFailed(f"mouth Hom table: dim {prof.dim(t)} at "
                                      f"({i}, {j}, {t}), expected {expected}")
    orbit_pairs = sorted((o.n, o.m) for o in exceptional.ag_invariants(a))
    tables = threads.enumerate_threads(a)
    walk_pairs = sorted((c.n, c.m) for c in threads.aag_cycles(tables))
    if orbit_pairs != walk_pairs:
        raise CheckFailed(f"orbit pairs {orbit_pairs} != walk pairs {walk_pairs}")
    cycles = exceptional.classify_exceptional_cycles(a)
    cxs = [complexes.unfold_string(a, words.thread_string(a, t), 0)
           for t in tables.permitted + tables.forbidden]
    basis = 0
    for X in cxs:
        for Y in cxs:
            basis += len(alp.alp_basis(X, Y))   # raises on a count mismatch
    return (tuple(orbit_pairs), tuple(sorted((c.n, c.calabi_yau) for c in cycles)), basis)


class Task:
    def __init__(self, label: str, fn, arg):
        self.label = label
        self.fn = fn
        self.arg = arg

    def run(self):
        return self.fn(self.arg)


def _search_corpus(seed: int) -> list[Task]:
    from gentle.randomgen import random_gentle
    rng = _rng(seed, "search-corpus")
    tasks = [Task("pent", search_task, _relabel(_fixture("pent"), rng))]
    for s in SEARCH_CORPUS_SEEDS:
        a = random_gentle(s, max_vertices=5, exclude_a3_graph=True)
        tasks.append(Task(f"random_gentle({s})", search_task, _relabel(a.presentation, rng)))
    if rng is not None:
        rng.shuffle(tasks)
    return tasks


def _search_large(seed: int) -> list[Task]:
    from gentle.randomgen import random_gentle
    a = random_gentle(SEARCH_LARGE_SEED, max_vertices=8)
    p = _relabel(a.presentation, _rng(seed, "search-large"))
    return [Task(f"random_gentle({SEARCH_LARGE_SEED})", search_task, p)]


def _invariants(seed: int) -> list[Task]:
    from gentle.randomgen import random_gentle
    rng = _rng(seed, "invariants")
    tasks = []
    for s in range(INVARIANTS_BASE, INVARIANTS_BASE + INVARIANTS_COUNT):
        a = random_gentle(s, max_vertices=10)
        tasks.append(Task(f"random_gentle({s})", invariants_task, _relabel(a.presentation, rng)))
    if rng is not None:
        rng.shuffle(tasks)
    return tasks


def build(name: str, seed: int) -> list[Task]:
    if name == "search-corpus":
        return _search_corpus(seed)
    if name == "search-large":
        return _search_large(seed)
    if name == "invariants":
        return _invariants(seed)
    raise ValueError(f"unknown workload {name!r}")
