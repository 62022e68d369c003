"""Bound quiver presentations and gentle algebras.

A presentation is parsed from a small line-oriented format::

    algebra name
    vertex 1 2 3        # one or more vertex identifiers
    arrow a : 1 -> 2
    relation b a        # the composite b∘a (a applied first) is zero

Validation checks the gentle axioms, connectivity and finite
dimensionality, assembles the basis of nonzero paths, and solves the
boundary-sign constraint system attached to the arrows.

Conventions used throughout the package:

* paths are stored in application order, ``Path(arrows=(a, b))`` means
  "first a, then b" and equals the composite written b∘a;
* relations are stored as application-order pairs ``(first, second)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class PresentationSyntaxError(ValueError):
    """Raised on malformed input, with 1-based line information."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class GentleValidationError(ValueError):
    """A presentation that parses but is not a valid gentle algebra."""


class InternalCheckError(RuntimeError):
    """A structural property this package relies on failed to hold."""


IDENT = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str

    def __repr__(self):
        return f"{self.name}:{self.source}->{self.target}"


@dataclass(frozen=True, order=True)
class Path:
    """A path of the quiver, in application order; arrows may be empty.

    Paths order by (source, arrows, target), which sorts maps whose
    components agree in their positions."""

    source: str
    arrows: tuple[str, ...]
    target: str

    def __len__(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def __repr__(self):
        if not self.arrows:
            return f"e({self.source})"
        return "".join(reversed(self.arrows))


@dataclass(frozen=True)
class Presentation:
    name: str
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    relations: tuple[tuple[str, str], ...]  # (first applied, second applied)

    def arrow(self, name: str) -> Arrow:
        return {a.name: a for a in self.arrows}[name]


def parse_presentation(text: str) -> Presentation:
    """Parse DSL source into a Presentation, checking well-formedness."""
    name = "algebra"
    vertices: list[str] = []
    arrows: list[Arrow] = []
    relations: list[tuple[str, str]] = []
    seen_vertices: set[str] = set()
    seen_arrows: dict[str, Arrow] = {}
    seen_relations: set[tuple[str, str]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head, rest = tokens[0], tokens[1:]
        if head == "algebra":
            if len(rest) != 1 or not IDENT.match(rest[0]):
                raise PresentationSyntaxError("expected: algebra <identifier>", lineno)
            name = rest[0]
        elif head == "vertex":
            if not rest:
                raise PresentationSyntaxError("expected at least one vertex identifier", lineno)
            for v in rest:
                if not IDENT.match(v):
                    raise PresentationSyntaxError(f"bad vertex identifier {v!r}", lineno)
                if v in seen_vertices:
                    raise PresentationSyntaxError(f"duplicate vertex {v!r}", lineno)
                seen_vertices.add(v)
                vertices.append(v)
        elif head == "arrow":
            # arrow a : 1 -> 2
            m = re.match(r"arrow\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)\s*\Z", line)
            if not m:
                raise PresentationSyntaxError("expected: arrow <id> : <id> -> <id>", lineno)
            aname, src, tgt = m.groups()
            for ident in (aname, src, tgt):
                if not IDENT.match(ident):
                    raise PresentationSyntaxError(f"bad identifier {ident!r}", lineno)
            if aname in seen_arrows:
                raise PresentationSyntaxError(f"duplicate arrow {aname!r}", lineno)
            if aname in seen_vertices:
                raise PresentationSyntaxError(f"name {aname!r} already used for a vertex", lineno)
            if src not in seen_vertices or tgt not in seen_vertices:
                raise PresentationSyntaxError("arrow endpoints must be declared vertices", lineno)
            arrow = Arrow(aname, src, tgt)
            seen_arrows[aname] = arrow
            arrows.append(arrow)
        elif head == "relation":
            # relation b a: a applied first, so the pair is (a, b)
            if len(rest) != 2:
                raise PresentationSyntaxError("expected: relation <id> <id>", lineno)
            second, first = rest
            for ident in (first, second):
                if ident not in seen_arrows:
                    raise PresentationSyntaxError(f"relation references unknown arrow {ident!r}", lineno)
            if seen_arrows[first].target != seen_arrows[second].source:
                raise PresentationSyntaxError(
                    f"non-composable relation: {second} {first} needs "
                    f"target({first}) = source({second})", lineno)
            pair = (first, second)
            if pair in seen_relations:
                raise PresentationSyntaxError(f"duplicate relation {second} {first}", lineno)
            seen_relations.add(pair)
            relations.append(pair)
        else:
            raise PresentationSyntaxError(f"unknown directive {head!r}", lineno)

    if not vertices:
        raise PresentationSyntaxError("no vertices declared")
    return Presentation(name, tuple(vertices), tuple(arrows), tuple(relations))


# --- sign constraint system -------------------------------------------------
#
# Variables are (arrow_index, 0) for the start sign and (arrow_index, 1)
# for the end sign of each arrow.  Constraints say two variables are equal
# or opposite; solving is parity propagation over the constraint graph.

Var = tuple[int, int]


@dataclass(frozen=True)
class SignAssignment:
    s_prime: tuple[tuple[str, int], ...]
    e_prime: tuple[tuple[str, int], ...]
    components: tuple[tuple[Var, ...], ...]

    def s(self, arrow_name: str) -> int:
        return dict(self.s_prime)[arrow_name]

    def e(self, arrow_name: str) -> int:
        return dict(self.e_prime)[arrow_name]


def _sign_constraints(p: Presentation) -> list[tuple[Var, Var, int]]:
    """Return constraints (u, v, parity) meaning sign(u) = parity * sign(v)."""
    idx = {a.name: i for i, a in enumerate(p.arrows)}
    rels = set(p.relations)
    cons: list[tuple[Var, Var, int]] = []
    for a in p.arrows:
        for b in p.arrows:
            if a.name >= b.name:
                continue
            if a.source == b.source:
                cons.append(((idx[a.name], 0), (idx[b.name], 0), -1))
            if a.target == b.target:
                cons.append(((idx[a.name], 1), (idx[b.name], 1), -1))
    for a in p.arrows:          # a applied first
        for b in p.arrows:
            if a.target != b.source:
                continue
            parity = 1 if (a.name, b.name) in rels else -1
            cons.append(((idx[b.name], 0), (idx[a.name], 1), parity))
    return cons


def _solve_signs(p: Presentation) -> tuple[dict[Var, int], list[list[Var]]]:
    n = len(p.arrows)
    variables = [(i, k) for i in range(n) for k in (0, 1)]
    adj: dict[Var, list[tuple[Var, int]]] = {v: [] for v in variables}
    for u, v, parity in _sign_constraints(p):
        adj[u].append((v, parity))
        adj[v].append((u, parity))
    value: dict[Var, int] = {}
    components: list[list[Var]] = []
    for start in sorted(variables):
        if start in value:
            continue
        comp = []
        value[start] = 1
        stack = [start]
        while stack:
            u = stack.pop()
            comp.append(u)
            for v, parity in adj[u]:
                want = parity * value[u]
                if v not in value:
                    value[v] = want
                    stack.append(v)
                elif value[v] != want:
                    raise InternalCheckError(
                        "sign constraint system infeasible despite G1-G4; "
                        f"conflicting constraint between {u} and {v} "
                        f"(component so far: {sorted(comp)})")
        components.append(sorted(comp))
    return value, components


class GentleAlgebra:
    """A validated gentle bound quiver algebra.

    Instances are immutable in use; all derived structure (sign maps, the
    path basis and its lookup tables) is computed once here.  A per-algebra
    scratch cache is exposed as ``_cache`` for memoized constructions
    elsewhere in the package (projectives, Hom space bases, thread tables).
    """

    def __init__(self, presentation: Presentation, signs: SignAssignment,
                 path_basis: tuple[Path, ...]):
        self.presentation = presentation
        self.signs = signs
        self.path_basis = path_basis
        self.vertices = presentation.vertices
        self.arrows = presentation.arrows
        self.arrow_map = {a.name: a for a in presentation.arrows}
        self.relations = set(presentation.relations)
        self.out_arrows = {v: [a for a in self.arrows if a.source == v] for v in self.vertices}
        self.in_arrows = {v: [a for a in self.arrows if a.target == v] for v in self.vertices}
        self._s = dict(signs.s_prime)
        self._e = dict(signs.e_prime)
        self._basis_set = set(path_basis)
        self.paths_from = {v: tuple(q for q in path_basis if q.source == v) for v in self.vertices}
        self.paths_into = {v: tuple(q for q in path_basis if q.target == v) for v in self.vertices}
        self._cache: dict = {}

    # -- signs, extended to paths ------------------------------------------
    def s_prime(self, path: Path | str) -> int:
        if isinstance(path, str):
            return self._s[path]
        if path.is_trivial:
            raise ValueError("trivial paths carry no intrinsic sign")
        return self._s[path.arrows[0]]

    def e_prime(self, path: Path | str) -> int:
        if isinstance(path, str):
            return self._e[path]
        if path.is_trivial:
            raise ValueError("trivial paths carry no intrinsic sign")
        return self._e[path.arrows[-1]]

    # -- path algebra -------------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.path_basis)

    def trivial_path(self, v: str) -> Path:
        return Path(v, (), v)

    def arrow_path(self, name: str) -> Path:
        a = self.arrow_map[name]
        return Path(a.source, (name,), a.target)

    def in_ideal(self, arrows: tuple[str, ...]) -> bool:
        return any((arrows[i], arrows[i + 1]) in self.relations for i in range(len(arrows) - 1))

    def make_path(self, arrows: tuple[str, ...], at_vertex: str | None = None) -> Path | None:
        """Assemble a basis path from arrow names; None if zero in the algebra."""
        if not arrows:
            if at_vertex is None:
                raise ValueError("trivial path needs a vertex")
            return self.trivial_path(at_vertex)
        for x, y in zip(arrows, arrows[1:]):
            if self.arrow_map[x].target != self.arrow_map[y].source:
                return None
        if self.in_ideal(arrows):
            return None
        return Path(self.arrow_map[arrows[0]].source, tuple(arrows), self.arrow_map[arrows[-1]].target)

    def compose(self, p: Path, q: Path) -> Path | None:
        """The composite p∘q (q applied first); None if not composable or zero."""
        if q.target != p.source:
            return None
        arrows = q.arrows + p.arrows
        if not arrows:
            return self.trivial_path(q.source)
        if self.in_ideal(arrows):
            return None
        return Path(q.source, arrows, p.target)

    def __repr__(self):
        return (f"GentleAlgebra({self.presentation.name}: {len(self.vertices)} vertices, "
                f"{len(self.arrows)} arrows, {len(self.relations)} relations, dim {self.dim})")


def _check_connected(p: Presentation) -> None:
    if len(p.vertices) <= 1:
        return
    adj: dict[str, set[str]] = {v: set() for v in p.vertices}
    for a in p.arrows:
        adj[a.source].add(a.target)
        adj[a.target].add(a.source)
    seen = {p.vertices[0]}
    stack = [p.vertices[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(p.vertices):
        missing = sorted(set(p.vertices) - seen)
        raise GentleValidationError(f"disconnected quiver; unreachable vertices: {missing}")


def _check_gentle_conditions(p: Presentation) -> None:
    rels = set(p.relations)
    for v in p.vertices:
        outs = [a for a in p.arrows if a.source == v]
        ins = [a for a in p.arrows if a.target == v]
        if len(outs) > 2:
            raise GentleValidationError(
                f"G1 fails at vertex {v}: arrows {[a.name for a in outs]} all start there")
        if len(ins) > 2:
            raise GentleValidationError(
                f"G1 fails at vertex {v}: arrows {[a.name for a in ins]} all end there")
    for a in p.arrows:
        succ_free = [b.name for b in p.arrows if a.target == b.source and (a.name, b.name) not in rels]
        succ_rel = [b.name for b in p.arrows if a.target == b.source and (a.name, b.name) in rels]
        pred_free = [b.name for b in p.arrows if b.target == a.source and (b.name, a.name) not in rels]
        pred_rel = [b.name for b in p.arrows if b.target == a.source and (b.name, a.name) in rels]
        if len(succ_free) > 1:
            raise GentleValidationError(
                f"G2 fails at arrow {a.name}: both {succ_free} compose to nonzero paths after it")
        if len(pred_free) > 1:
            raise GentleValidationError(
                f"G2 fails at arrow {a.name}: both {pred_free} compose to nonzero paths before it")
        if len(succ_rel) > 1:
            raise GentleValidationError(
                f"G3 fails at arrow {a.name}: relations with each of {succ_rel}")
        if len(pred_rel) > 1:
            raise GentleValidationError(
                f"G3 fails at arrow {a.name}: relations with each of {pred_rel}")


def _build_path_basis(p: Presentation) -> tuple[Path, ...]:
    """All paths not killed by the ideal; raises if there are infinitely many."""
    rels = set(p.relations)
    arrow_map = {a.name: a for a in p.arrows}
    # permitted continuation graph on arrows: x -> y when yx is a nonzero path
    succ = {a.name: [b.name for b in p.arrows
                     if a.target == b.source and (a.name, b.name) not in rels]
            for a in p.arrows}

    # cycle detection: a directed cycle here is a nonzero cyclic path
    color: dict[str, int] = {}

    def visit(x: str, trail: list[str]) -> None:
        color[x] = 1
        trail.append(x)
        for y in succ[x]:
            if color.get(y, 0) == 1:
                cyc = trail[trail.index(y):] + [y]
                raise GentleValidationError(
                    "infinite-dimensional: the cyclic path "
                    + "".join(reversed(cyc[:-1])) + " never meets the ideal "
                    f"(cycle through arrows {cyc[:-1]})")
            if color.get(y, 0) == 0:
                visit(y, trail)
        trail.pop()
        color[x] = 2

    for a in p.arrows:
        if color.get(a.name, 0) == 0:
            visit(a.name, [])

    basis: list[Path] = [Path(v, (), v) for v in p.vertices]
    frontier = [Path(a.source, (a.name,), a.target) for a in p.arrows]
    while frontier:
        basis.extend(frontier)
        nxt = []
        for q in frontier:
            for y in succ[q.arrows[-1]]:
                b = arrow_map[y]
                nxt.append(Path(q.source, q.arrows + (y,), b.target))
        frontier = nxt
    arrow_index = {a.name: i for i, a in enumerate(p.arrows)}
    basis.sort(key=lambda q: (len(q), tuple(arrow_index[x] for x in q.arrows),
                              p.vertices.index(q.source)))
    return tuple(basis)


def validate_gentle(p: Presentation) -> GentleAlgebra:
    """Check the gentle axioms and build the algebra with canonical signs."""
    _check_gentle_conditions(p)
    _check_connected(p)
    basis = _build_path_basis(p)
    value, components = _solve_signs(p)
    algebra = _assemble(p, basis, value, components)
    return algebra


def _assemble(p: Presentation, basis, value: dict[Var, int], components) -> GentleAlgebra:
    s_prime = tuple((a.name, value[(i, 0)]) for i, a in enumerate(p.arrows))
    e_prime = tuple((a.name, value[(i, 1)]) for i, a in enumerate(p.arrows))
    signs = SignAssignment(s_prime, e_prime, tuple(tuple(c) for c in components))
    return GentleAlgebra(p, signs, basis)


def enumerate_sign_assignments(a: GentleAlgebra) -> list[SignAssignment]:
    """All valid sign assignments: one flip choice per constraint component.

    The canonical assignment (least variable of every component positive)
    comes first.
    """
    p = a.presentation
    base, components = _solve_signs(p)
    out = []
    k = len(components)
    for mask in range(1 << k):
        value = dict(base)
        for i in range(k):
            if mask >> i & 1:
                for v in components[i]:
                    value[v] = -value[v]
        s_prime = tuple((arr.name, value[(i, 0)]) for i, arr in enumerate(p.arrows))
        e_prime = tuple((arr.name, value[(i, 1)]) for i, arr in enumerate(p.arrows))
        out.append(SignAssignment(s_prime, e_prime, tuple(tuple(c) for c in components)))
    return out


def with_signs(a: GentleAlgebra, signs: SignAssignment) -> GentleAlgebra:
    """The same algebra carrying a different valid sign assignment."""
    return GentleAlgebra(a.presentation, signs, a.path_basis)


def load_algebra(text: str) -> GentleAlgebra:
    return validate_gentle(parse_presentation(text))
