"""Quiver representations and bounded complexes of projectives.

Complexes carry two synchronized layers:

* a representation layer (dimension vectors and arrow matrices per term,
  vertexwise matrices for the differentials) used by the exact linear
  algebra engine, and
* an optional projective layer (each term a sum of indecomposable
  projectives, differential entries written as rational combinations of
  paths) used by the combinatorial map enumeration, the termwise injective
  replacement, and Gaussian minimization.

Words unfold into complexes along their positions: a direct letter q gives
a component from the projective at its end vertex to the one at its start
vertex, acting by right multiplication with q; inverse letters point the
component the other way.  Degrees are normalized so the top nonzero degree
of the base complex is 0; the suspension [t] shifts support down by t and
negates differentials t times.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import Matrix, ZERO, ONE
from .presentation import GentleAlgebra, InternalCheckError, Path
from .words import HomotopyBand, HomotopyString, Word

# An element of e_u A e_v: rational combination of parallel paths.
AlgElem = tuple[tuple[Path, Fraction], ...]


@dataclass(frozen=True)
class Representation:
    """A finite-dimensional module: dims per vertex, a matrix per arrow."""

    dims: tuple[tuple[str, int], ...]
    action: tuple[tuple[str, Matrix], ...]

    def _tables(self):
        cached = self.__dict__.get("_lookup")
        if cached is None:
            cached = (dict(self.dims), dict(self.action))
            self.__dict__["_lookup"] = cached
        return cached

    def dim(self, v: str) -> int:
        return self._tables()[0].get(v, 0)

    def act(self, arrow: str) -> Matrix:
        return self._tables()[1][arrow]

    @property
    def total_dim(self) -> int:
        return sum(d for _, d in self.dims)

    def __repr__(self):
        inside = ", ".join(f"{v}:{d}" for v, d in self.dims if d)
        return f"Rep({inside})"


def make_representation(a: GentleAlgebra, dims: dict[str, int],
                        action: dict[str, Matrix]) -> Representation:
    """Build and check a representation (shapes, relations acting by zero)."""
    filled = {}
    for arr in a.arrows:
        want = (dims.get(arr.target, 0), dims.get(arr.source, 0))
        m = action.get(arr.name)
        if m is None or want[0] == 0:
            m = linalg.zeros(*want)
        rows, cols = linalg.shape(m)
        if rows != want[0] or (rows > 0 and cols != want[1]):
            raise ValueError(f"matrix for {arr.name} has shape {(rows, cols)}, wanted {want}")
        filled[arr.name] = m
    for (first, second) in a.relations:
        if not linalg.is_zero_matrix(linalg.mat_mul(filled[second], filled[first])):
            raise ValueError(f"relation {second}∘{first} does not act by zero")
    return Representation(tuple((v, dims.get(v, 0)) for v in a.vertices),
                          tuple((arr.name, filled[arr.name]) for arr in a.arrows))


# Morphisms of representations are plain dicts vertex -> Matrix.
Morphism = dict[str, Matrix]


def zero_morphism(a: GentleAlgebra, src: Representation, tgt: Representation) -> Morphism:
    return {v: linalg.zeros(tgt.dim(v), src.dim(v)) for v in a.vertices}


def morphism_is_zero(f: Morphism) -> bool:
    return all(linalg.is_zero_matrix(m) for m in f.values())


def compose_morphisms(a: GentleAlgebra, f: Morphism, g: Morphism) -> Morphism:
    """g∘f, vertexwise."""
    return {v: linalg.mat_mul(g[v], f[v]) for v in a.vertices}


def scale_morphism(c, f: Morphism) -> Morphism:
    return {v: linalg.mat_scale(c, m) for v, m in f.items()}


def check_morphism(a: GentleAlgebra, src: Representation, tgt: Representation,
                   f: Morphism) -> bool:
    return all(linalg.mat_eq(linalg.mat_mul(f[arr.target], src.act(arr.name)),
                             linalg.mat_mul(tgt.act(arr.name), f[arr.source]))
               for arr in a.arrows)


# --- the standard modules ----------------------------------------------------

def projective_basis(a: GentleAlgebra, v: str) -> tuple[Path, ...]:
    """Paths starting at v, in path-basis order; they span P(v)."""
    return a.paths_from[v]


def injective_basis(a: GentleAlgebra, v: str) -> tuple[Path, ...]:
    """Paths ending at v; their dual functionals span I(v)."""
    return a.paths_into[v]


def projective(a: GentleAlgebra, v: str) -> Representation:
    key = ("proj", v)
    if key in a._cache:
        return a._cache[key]
    basis = projective_basis(a, v)
    by_vertex = {u: [q for q in basis if q.target == u] for u in a.vertices}
    dims = {u: len(by_vertex[u]) for u in a.vertices}
    action = {}
    for arr in a.arrows:
        src_list, tgt_list = by_vertex[arr.source], by_vertex[arr.target]
        pos = {q: i for i, q in enumerate(tgt_list)}
        m = [[ZERO] * len(src_list) for _ in tgt_list]
        for j, q in enumerate(src_list):
            image = a.make_path(q.arrows + (arr.name,), at_vertex=v)
            if image is not None and image in pos:
                m[pos[image]][j] = ONE
        action[arr.name] = tuple(tuple(row) for row in m)
    rep = make_representation(a, dims, action)
    a._cache[key] = rep
    return rep


def injective(a: GentleAlgebra, v: str) -> Representation:
    key = ("inj", v)
    if key in a._cache:
        return a._cache[key]
    basis = injective_basis(a, v)
    by_vertex = {u: [q for q in basis if q.source == u] for u in a.vertices}
    dims = {u: len(by_vertex[u]) for u in a.vertices}
    action = {}
    for arr in a.arrows:
        src_list, tgt_list = by_vertex[arr.source], by_vertex[arr.target]
        pos = {q: i for i, q in enumerate(tgt_list)}
        m = [[ZERO] * len(src_list) for _ in tgt_list]
        for j, q in enumerate(src_list):
            # the functional dual to q pushes forward by dropping q's first arrow
            if q.arrows and q.arrows[0] == arr.name:
                image = Path(arr.target, q.arrows[1:], v)
                if image in pos:
                    m[pos[image]][j] = ONE
        action[arr.name] = tuple(tuple(row) for row in m)
    rep = make_representation(a, dims, action)
    a._cache[key] = rep
    return rep


def simple(a: GentleAlgebra, v: str) -> Representation:
    return make_representation(a, {u: (1 if u == v else 0) for u in a.vertices}, {})


def right_multiplication(a: GentleAlgebra, elem: AlgElem, src_vertex: str,
                         tgt_vertex: str) -> Morphism:
    """The map P(src_vertex) -> P(tgt_vertex), x -> x·elem.

    Every path in elem must run from tgt_vertex to src_vertex.  The map is
    checked to be a module morphism when it is first built.
    """
    key = ("rmul", elem, src_vertex, tgt_vertex)
    cached = a._cache.get(key)
    if cached is not None:
        return dict(cached)
    for p, _ in elem:
        if p.source != tgt_vertex or p.target != src_vertex:
            raise ValueError(f"path {p} does not run {tgt_vertex} -> {src_vertex}")
    src_by = {u: [q for q in projective_basis(a, src_vertex) if q.target == u]
              for u in a.vertices}
    tgt_by = {u: [q for q in projective_basis(a, tgt_vertex) if q.target == u]
              for u in a.vertices}
    out: Morphism = {}
    for u in a.vertices:
        cols, rows_basis = src_by[u], tgt_by[u]
        pos = {q: i for i, q in enumerate(rows_basis)}
        m = [[ZERO] * len(cols) for _ in rows_basis]
        for j, q in enumerate(cols):
            for p, c in elem:
                arrows = p.arrows + q.arrows
                image = (a.make_path(arrows, at_vertex=tgt_vertex) if arrows
                         else a.trivial_path(tgt_vertex))
                if image is not None and image in pos:
                    m[pos[image]][j] += c
        out[u] = tuple(tuple(row) for row in m)
    if not check_morphism(a, projective(a, src_vertex), projective(a, tgt_vertex), out):
        raise InternalCheckError(f"multiplication by {elem} is not a module morphism")
    a._cache[key] = dict(out)
    return out


def induced_injective_map(a: GentleAlgebra, elem: AlgElem, src_vertex: str,
                          tgt_vertex: str) -> Morphism:
    """The map I(src_vertex) -> I(tgt_vertex) induced by the same multiplier.

    The functional dual to a path p maps to the functional dual to p with the
    multiplier cancelled off its final arrows, when it divides.
    """
    src_by = {u: [q for q in injective_basis(a, src_vertex) if q.source == u]
              for u in a.vertices}
    tgt_by = {u: [q for q in injective_basis(a, tgt_vertex) if q.source == u]
              for u in a.vertices}
    out: Morphism = {}
    for u in a.vertices:
        cols, rows_basis = src_by[u], tgt_by[u]
        pos = {q: i for i, q in enumerate(rows_basis)}
        m = [[ZERO] * len(cols) for _ in rows_basis]
        for j, q in enumerate(cols):
            for p, c in elem:
                k = len(p.arrows)
                if k == 0:
                    image = Path(q.source, q.arrows, tgt_vertex)
                elif k <= len(q.arrows) and q.arrows[-k:] == p.arrows:
                    image = Path(q.source, q.arrows[:-k], tgt_vertex)
                else:
                    continue
                if image in pos:
                    m[pos[image]][j] += c
        out[u] = tuple(tuple(row) for row in m)
    return out


# --- complexes ---------------------------------------------------------------

@dataclass(frozen=True)
class WordShape:
    """Unfolded position data recorded when a word becomes a complex."""

    word: Word
    base: int                                    # total suspension applied
    positions: tuple[tuple[str, int, int], ...]  # (vertex, degree, slot within degree)
    cyclic: bool
    scalar: Fraction | None = None

    def degree(self, i: int) -> int:
        return self.positions[i][1]

    def vertex(self, i: int) -> str:
        return self.positions[i][0]

    def slot(self, i: int) -> int:
        return self.positions[i][2]


class RepComplex:
    """A bounded cochain complex of representations.

    With ``check`` the differentials are validated densely (module
    morphisms, d∘d = 0); complexes built from a projective presentation are
    validated on the presentation instead, by ``_assemble_projective_complex``.
    """

    def __init__(self, a: GentleAlgebra, terms: dict[int, Representation],
                 diffs: dict[int, Morphism],
                 proj_terms: dict[int, tuple[str, ...]] | None = None,
                 proj_diffs: dict[int, tuple[tuple[AlgElem, ...], ...]] | None = None,
                 shape: WordShape | None = None, check: bool = True):
        self.a = a
        self.terms = {d: t for d, t in terms.items() if t.total_dim > 0}
        self.diffs = {d: f for d, f in diffs.items()
                      if d in self.terms and d + 1 in self.terms}
        self.proj_terms = proj_terms
        self.proj_diffs = proj_diffs
        self.shape = shape
        if check:
            self._check()

    def support(self) -> tuple[int, int] | None:
        if not self.terms:
            return None
        return (min(self.terms), max(self.terms))

    def term(self, d: int) -> Representation:
        if d in self.terms:
            return self.terms[d]
        return make_representation(self.a, {}, {})

    def diff(self, d: int) -> Morphism:
        if d in self.diffs:
            return self.diffs[d]
        return zero_morphism(self.a, self.term(d), self.term(d + 1))

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self) -> None:
        for d, f in self.diffs.items():
            if not check_morphism(self.a, self.terms[d], self.terms[d + 1], f):
                raise InternalCheckError(f"differential at degree {d} is not a morphism")
            if d + 1 in self.diffs:
                if not morphism_is_zero(compose_morphisms(self.a, f, self.diffs[d + 1])):
                    raise InternalCheckError(f"d∘d != 0 between degrees {d} and {d + 2}")

    def __repr__(self):
        sup = self.support()
        if sup is None:
            return "RepComplex(0)"
        parts = []
        for d in range(sup[0], sup[1] + 1):
            if self.proj_terms is not None:
                parts.append(f"{d}:[{'+'.join('P' + v for v in self.proj_terms.get(d, ()))}]")
            else:
                parts.append(f"{d}:{self.term(d).total_dim}")
        return "RepComplex(" + "  ".join(parts) + ")"


def zero_complex(a: GentleAlgebra) -> RepComplex:
    return RepComplex(a, {}, {}, proj_terms={}, proj_diffs={}, check=False)


def _sum_of_projectives(a: GentleAlgebra, vs: tuple[str, ...]) -> Representation:
    key = ("proj_sum", vs)
    if key in a._cache:
        return a._cache[key]
    blocks = [projective(a, v) for v in vs]
    dims = {u: sum(b.dim(u) for b in blocks) for u in a.vertices}
    action: dict[str, Matrix] = {}
    for arr in a.arrows:
        rows = [[ZERO] * dims[arr.source] for _ in range(dims[arr.target])]
        r0 = c0 = 0
        for b in blocks:
            m = b.act(arr.name)
            for i in range(b.dim(arr.target)):
                for j in range(b.dim(arr.source)):
                    rows[r0 + i][c0 + j] = m[i][j]
            r0 += b.dim(arr.target)
            c0 += b.dim(arr.source)
        action[arr.name] = tuple(tuple(r) for r in rows)
    rep = make_representation(a, dims, action)
    a._cache[key] = rep
    return rep


def _block_morphism(a: GentleAlgebra, srcs: list[Representation],
                    tgts: list[Representation],
                    blocks: list[list[Morphism]]) -> Morphism:
    out: Morphism = {}
    for u in a.vertices:
        n_cols = sum(s.dim(u) for s in srcs)
        rows: list[tuple[Fraction, ...]] = []
        for i, t in enumerate(tgts):
            for r in range(t.dim(u)):
                row: list[Fraction] = []
                for j in range(len(srcs)):
                    row.extend(blocks[i][j][u][r])
                rows.append(tuple(row))
        out[u] = tuple(rows) if rows else linalg.zeros(0, n_cols)
    return out


def _assemble_projective_complex(a: GentleAlgebra,
                                 proj_terms: dict[int, tuple[str, ...]],
                                 proj_diffs: dict[int, tuple[tuple[AlgElem, ...], ...]],
                                 shape: WordShape | None = None) -> RepComplex:
    """Materialize the representation layer of a projective presentation.

    d∘d = 0 is checked on the presentation: the composite of two
    differentials is right multiplication by the products of their entries,
    and right multiplication is faithful (x·e = 0 for all x forces e = 0),
    so the composite vanishes exactly when every product entry does.
    """
    proj_terms = {d: vs for d, vs in proj_terms.items() if vs}
    terms = {d: _sum_of_projectives(a, vs) for d, vs in proj_terms.items()}
    diffs: dict[int, Morphism] = {}
    for d, entries in proj_diffs.items():
        if d not in proj_terms or d + 1 not in proj_terms:
            continue
        src_vs, tgt_vs = proj_terms[d], proj_terms[d + 1]
        blocks = [[right_multiplication(a, entries[i][j], src_vs[j], tgt_vs[i])
                   for j in range(len(src_vs))] for i in range(len(tgt_vs))]
        diffs[d] = _block_morphism(a, [projective(a, v) for v in src_vs],
                                   [projective(a, v) for v in tgt_vs], blocks)
    proj_diffs = {d: e for d, e in proj_diffs.items() if d in diffs}
    _check_d_squared(a, proj_diffs)
    return RepComplex(a, terms, diffs, proj_terms=proj_terms, proj_diffs=proj_diffs,
                      shape=shape, check=False)


def _check_d_squared(a: GentleAlgebra,
                     proj_diffs: dict[int, tuple[tuple[AlgElem, ...], ...]]) -> None:
    """Raise unless consecutive differentials of a presentation compose to 0."""
    for d, first in proj_diffs.items():
        for row in proj_diffs.get(d + 1, ()):
            for j in range(len(first[0]) if first else 0):
                acc: AlgElem = ()
                for k, outer in enumerate(row):
                    if outer and first[k][j]:
                        acc = _elem_combine(acc, _elem_mul(a, first[k][j], outer), 1)
                if acc:
                    raise InternalCheckError(f"d∘d != 0 between degrees {d} and {d + 2}")


def _word_positions(a: GentleAlgebra, w: Word) -> tuple[list[str], list[int]]:
    """Vertices and top-normalized degrees along the unfolded word."""
    if isinstance(w, HomotopyString) and w.is_trivial:
        return [w.vertex], [0]
    verts = [w.letters[0].start]
    for l in w.letters:
        verts.append(l.end)
    degs = list(w.degree_profile())
    top = max(degs)
    degs = [d - top for d in degs]
    if isinstance(w, HomotopyBand):
        verts, degs = verts[:-1], degs[:-1]
    return verts, degs


def _unfold(a: GentleAlgebra, w: Word, m: int, mu: Fraction | None) -> RepComplex:
    verts, degs = _word_positions(a, w)
    n_pos = len(verts)
    per_degree: dict[int, list[int]] = {}
    for i in sorted(range(n_pos), key=lambda i: (degs[i], i)):
        per_degree.setdefault(degs[i], []).append(i)
    slot = {i: s for items in per_degree.values() for s, i in enumerate(items)}

    proj_terms = {d: tuple(verts[i] for i in items) for d, items in per_degree.items()}
    entries: dict[int, list[list[AlgElem]]] = {
        d: [[() for _ in per_degree[d]] for _ in per_degree[d + 1]]
        for d in per_degree if d + 1 in per_degree}

    cyclic = isinstance(w, HomotopyBand)
    letters = () if (isinstance(w, HomotopyString) and w.is_trivial) else w.letters
    for idx, l in enumerate(letters, start=1):
        lo_pos = idx - 1
        hi_pos = idx % n_pos if cyclic else idx
        coeff = Fraction(mu) if (cyclic and idx == len(letters)) else ONE
        src, tgt = (hi_pos, lo_pos) if l.direct else (lo_pos, hi_pos)
        d = degs[src]
        if degs[tgt] != d + 1:
            raise InternalCheckError("unfolded degrees inconsistent with letter direction")
        cur = entries[d][slot[tgt]][slot[src]]
        entries[d][slot[tgt]][slot[src]] = cur + ((l.path, coeff),)

    proj_diffs = {d: tuple(tuple(row) for row in rows) for d, rows in entries.items()}
    positions = tuple((verts[i], degs[i], slot[i]) for i in range(n_pos))
    shape = WordShape(w, 0, positions, cyclic, Fraction(mu) if mu is not None else None)
    base = _assemble_projective_complex(a, proj_terms, proj_diffs, shape=shape)
    return shift(base, -m) if m else base


def unfold_string(a: GentleAlgebra, w: HomotopyString, m: int = 0) -> RepComplex:
    """The string complex of w with base index m (the base-0 complex ends in
    degree 0; index m suspends it by -m)."""
    return _unfold(a, w, m, None)


def unfold_band(a: GentleAlgebra, w: HomotopyBand, m: int = 0, mu=1) -> RepComplex:
    """The band complex with scalar parameter mu != 0 on the wrap letter."""
    mu = Fraction(mu)
    if mu == 0:
        raise ValueError("band scalar must be nonzero")
    return _unfold(a, w, m, mu)


def shift_presentation(proj_terms: dict[int, tuple[str, ...]],
                       proj_diffs: dict[int, tuple[tuple[AlgElem, ...], ...]] | None,
                       t: int):
    """The projective presentation of the suspension [t], as in ``shift``."""
    proj_terms = {d - t: v for d, v in proj_terms.items()}
    if t % 2 == 0:
        return proj_terms, {d - t: rows for d, rows in (proj_diffs or {}).items()}
    return proj_terms, {d - t: tuple(tuple(tuple((p, -x) for p, x in e) for e in row)
                                     for row in rows)
                        for d, rows in (proj_diffs or {}).items()}


def shift(c: RepComplex, t: int) -> RepComplex:
    """Suspension [t]: degree d of the result is degree d + t of the input,
    with differentials negated t times."""
    if t == 0 or c.is_zero():
        return c
    sign = ONE if t % 2 == 0 else -ONE
    terms = {d - t: rep for d, rep in c.terms.items()}
    diffs = {d - t: (f if sign == ONE else scale_morphism(sign, f))
             for d, f in c.diffs.items()}
    proj_terms = proj_diffs = None
    if c.proj_terms is not None:
        proj_terms, proj_diffs = shift_presentation(c.proj_terms, c.proj_diffs, t)
    shape = None
    if c.shape is not None:
        shape = WordShape(c.shape.word, c.shape.base + t,
                          tuple((v, d - t, s) for v, d, s in c.shape.positions),
                          c.shape.cyclic, c.shape.scalar)
    return RepComplex(c.a, terms, diffs, proj_terms=proj_terms, proj_diffs=proj_diffs,
                      shape=shape, check=False)


def nakayama_on_projectives(c: RepComplex) -> RepComplex:
    """Replace every projective summand P(v) by I(v) and every differential
    entry by its induced map between injectives."""
    if c.proj_terms is None:
        raise ValueError("complex does not carry a projective presentation")
    a = c.a
    terms: dict[int, Representation] = {}
    inj_cache = {v: injective(a, v) for v in a.vertices}
    for d, vs in c.proj_terms.items():
        if not vs:
            continue
        blocks = [inj_cache[v] for v in vs]
        dims = {u: sum(b.dim(u) for b in blocks) for u in a.vertices}
        action: dict[str, Matrix] = {}
        for arr in a.arrows:
            rows = [[ZERO] * dims[arr.source] for _ in range(dims[arr.target])]
            r0 = c0 = 0
            for b in blocks:
                mm = b.act(arr.name)
                for i in range(b.dim(arr.target)):
                    for j in range(b.dim(arr.source)):
                        rows[r0 + i][c0 + j] = mm[i][j]
                r0 += b.dim(arr.target)
                c0 += b.dim(arr.source)
            action[arr.name] = tuple(tuple(r) for r in rows)
        terms[d] = make_representation(a, dims, action)
    diffs: dict[int, Morphism] = {}
    for d, rows in (c.proj_diffs or {}).items():
        src_vs, tgt_vs = c.proj_terms[d], c.proj_terms[d + 1]
        blocks = [[induced_injective_map(a, rows[i][j], src_vs[j], tgt_vs[i])
                   for j in range(len(src_vs))] for i in range(len(tgt_vs))]
        diffs[d] = _block_morphism(a, [inj_cache[v] for v in src_vs],
                                   [inj_cache[v] for v in tgt_vs], blocks)
    return RepComplex(a, terms, diffs)


# --- projective replacement ---------------------------------------------------

@dataclass
class _Submodule:
    rep: Representation
    basis: dict[str, list[tuple[Fraction, ...]]]   # echelon vectors in the ambient
    pivots: dict[str, list[int]]


def _echelon_coords(basis: list[tuple[Fraction, ...]], pivots: list[int],
                    vec) -> tuple[Fraction, ...] | None:
    """Coordinates in a reduced echelon basis: read the pivot entries, then
    confirm the vector is reproduced."""
    coords = tuple(vec[p] for p in pivots)
    rebuilt = [ZERO] * len(vec)
    for c, row in zip(coords, basis):
        if c:
            for i, y in enumerate(row):
                if y:
                    rebuilt[i] += c * y
    return coords if tuple(rebuilt) == tuple(vec) else None


def _submodule(a: GentleAlgebra, ambient: Representation,
               vectors: dict[str, list[tuple[Fraction, ...]]]) -> _Submodule:
    """The submodule spanned vertexwise by given action-closed vectors."""
    basis: dict[str, list[tuple[Fraction, ...]]] = {}
    pivots: dict[str, list[int]] = {}
    for v in a.vertices:
        if not vectors.get(v):
            basis[v], pivots[v] = [], []
            continue
        rows, piv = linalg.rref(tuple(vectors[v]))
        basis[v] = [tuple(rows[i]) for i in range(len(piv))]
        pivots[v] = list(piv)
    dims = {v: len(basis[v]) for v in a.vertices}
    action: dict[str, Matrix] = {}
    for arr in a.arrows:
        src, tgt = basis[arr.source], basis[arr.target]
        act = ambient.act(arr.name)
        cols = []
        for b in src:
            coords = _echelon_coords(tgt, pivots[arr.target], linalg.mat_vec(act, b))
            if coords is None:
                raise InternalCheckError("submodule vectors are not action-closed")
            cols.append(coords)
        action[arr.name] = tuple(tuple(cols[j][i] for j in range(len(src)))
                                 for i in range(len(tgt)))
    return _Submodule(make_representation(a, dims, action), basis, pivots)


def _top_generators(a: GentleAlgebra, rep: Representation) -> list[tuple[str, tuple[Fraction, ...]]]:
    """Vectors generating rep: unit vectors at coordinates free of the radical."""
    gens = []
    for v in a.vertices:
        n = rep.dim(v)
        if n == 0:
            continue
        rad_rows = []
        for arr in a.in_arrows[v]:
            m = rep.act(arr.name)
            for j in range(rep.dim(arr.source)):
                rad_rows.append(tuple(m[i][j] for i in range(n)))
        pivots: list[int] = []
        if rad_rows:
            _, pivots = linalg.rref(tuple(rad_rows))
        pivot_set = set(pivots)
        for i in range(n):
            if i not in pivot_set:
                gens.append((v, tuple(ONE if k == i else ZERO for k in range(n))))
    return gens


def _lift(sub: _Submodule, v: str, coords) -> tuple[Fraction, ...]:
    basis = sub.basis[v]
    if not basis:
        return ()
    out = [ZERO] * len(basis[0])
    for c, b in zip(coords, basis):
        if c:
            for i, x in enumerate(b):
                out[i] += c * x
    return tuple(out)


def _path_action(a: GentleAlgebra, rep: Representation, q: Path,
                 vec: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    cur = vec
    for arrow in q.arrows:
        cur = linalg.mat_vec(rep.act(arrow), cur)
    return cur


def _cols_to_matrix(cols: list[tuple[Fraction, ...]], n_rows: int) -> Matrix:
    return tuple(tuple(col[i] for col in cols) for i in range(n_rows))


def _pair_ambient(a: GentleAlgebra, C_d: Representation, P_next: Representation | None,
                  ) -> Representation:
    action: dict[str, Matrix] = {}
    dims = {u: C_d.dim(u) + (P_next.dim(u) if P_next else 0) for u in a.vertices}
    for arr in a.arrows:
        rows = [[ZERO] * dims[arr.source] for _ in range(dims[arr.target])]
        m = C_d.act(arr.name)
        for i in range(C_d.dim(arr.target)):
            for j in range(C_d.dim(arr.source)):
                rows[i][j] = m[i][j]
        if P_next is not None:
            m2 = P_next.act(arr.name)
            r0, c0 = C_d.dim(arr.target), C_d.dim(arr.source)
            for i in range(P_next.dim(arr.target)):
                for j in range(P_next.dim(arr.source)):
                    rows[r0 + i][c0 + j] = m2[i][j]
        action[arr.name] = tuple(tuple(r) for r in rows)
    return make_representation(a, dims, action)


def perfect_replacement(c: RepComplex, max_steps: int | None = None) -> RepComplex:
    """A bounded complex of projectives quasi-isomorphic to ``c``.

    Built from the top degree down.  At each degree the module of pairs
    (chain element, already-built element) compatible under the comparison
    and differential maps is covered by projectives; this makes the
    comparison a quasi-isomorphism degree by degree.  Below the support the
    loop runs a minimal projective resolution of the remaining syzygy
    module, which terminates exactly when the input is quasi-isomorphic to
    a bounded complex of projectives; ``max_steps`` guards the loop.
    Cohomology preservation is checked on the result.
    """
    a = c.a
    sup = c.support()
    if sup is None:
        return zero_complex(a)
    lo, hi = sup
    if max_steps is None:
        total = sum(t.total_dim for t in c.terms.values())
        max_steps = total + sum(projective(a, v).total_dim for v in a.vertices) + 16

    proj_terms: dict[int, tuple[str, ...]] = {}
    proj_sums: dict[int, Representation] = {}
    eps: dict[int, Morphism] = {}     # P^d -> C^d
    dP: dict[int, Morphism] = {}      # P^d -> P^{d+1}

    d = hi
    steps = 0
    while True:
        steps += 1
        if steps > max_steps:
            raise InternalCheckError("projective replacement did not terminate; "
                                     "input is not equivalent to a bounded complex "
                                     "of projectives")
        C_d = c.term(d)
        P_next = proj_sums.get(d + 1)
        P_next_dim = {u: (P_next.dim(u) if P_next else 0) for u in a.vertices}
        C_up = c.term(d + 1)
        vectors: dict[str, list[tuple[Fraction, ...]]] = {}
        for u in a.vertices:
            n_amb = C_d.dim(u) + P_next_dim[u]
            rows = []
            dC = c.diff(d)[u] if d in c.diffs else linalg.zeros(C_up.dim(u), C_d.dim(u))
            e_mat = eps[d + 1][u] if d + 1 in eps else linalg.zeros(C_up.dim(u), P_next_dim[u])
            for i in range(C_up.dim(u)):
                rows.append(tuple(dC[i]) + tuple(-x for x in e_mat[i]))
            if d + 1 in dP:
                for row in dP[d + 1][u]:
                    rows.append((ZERO,) * C_d.dim(u) + tuple(row))
            basis_vecs, _ = linalg.nullspace(tuple(rows), n_cols=n_amb)
            vectors[u] = [tuple(v) for v in basis_vecs]
        amb = _pair_ambient(a, C_d, P_next)
        W = _submodule(a, amb, vectors)
        if W.rep.total_dim == 0 and d < lo:
            break
        gens = _top_generators(a, W.rep)
        summands = tuple(v for v, _ in gens)
        eps_cols: dict[str, list[tuple[Fraction, ...]]] = {u: [] for u in a.vertices}
        dp_cols: dict[str, list[tuple[Fraction, ...]]] = {u: [] for u in a.vertices}
        for v, coords in gens:
            amb_gen = _lift(W, v, coords)
            for q in projective_basis(a, v):
                img = _path_action(a, amb, q, amb_gen)
                eps_cols[q.target].append(tuple(img[: C_d.dim(q.target)]))
                dp_cols[q.target].append(tuple(img[C_d.dim(q.target):]))
        proj_terms[d] = summands
        proj_sums[d] = _sum_of_projectives(a, summands)
        eps[d] = {u: _cols_to_matrix(eps_cols[u], C_d.dim(u)) for u in a.vertices}
        dP[d] = {u: _cols_to_matrix(dp_cols[u], P_next_dim[u]) for u in a.vertices}
        d -= 1

    out = _assemble_projective_complex(
        a, {dd: vs for dd, vs in proj_terms.items() if vs},
        _presentation_entries(a, proj_terms, dP))
    if cohomology_dims(out) != cohomology_dims(c):
        raise InternalCheckError("replacement changed cohomology dimensions")
    return out


def _presentation_entries(a: GentleAlgebra, proj_terms: dict[int, tuple[str, ...]],
                          dP: dict[int, Morphism]
                          ) -> dict[int, tuple[tuple[AlgElem, ...], ...]]:
    """Differential entries as path combinations, read off generator images."""
    out: dict[int, tuple[tuple[AlgElem, ...], ...]] = {}
    for d, vs in proj_terms.items():
        tgt_vs = proj_terms.get(d + 1, ())
        if not vs or not tgt_vs:
            continue
        # column index of each summand's generator inside P^d, per vertex
        col_at = {u: 0 for u in a.vertices}
        gen_col = []
        for v in vs:
            gen_col.append(col_at[v])     # the trivial path heads the basis
            for q in projective_basis(a, v):
                col_at[q.target] += 1
        rows_out: list[list[AlgElem]] = [[() for _ in vs] for _ in tgt_vs]
        for j, v in enumerate(vs):
            img = tuple(row[gen_col[j]] for row in dP[d][v])
            block_start = 0
            for i, tv in enumerate(tgt_vs):
                basis_v = [q for q in projective_basis(a, tv) if q.target == v]
                coeffs = img[block_start: block_start + len(basis_v)]
                rows_out[i][j] = tuple((q, x) for q, x in zip(basis_v, coeffs) if x != 0)
                block_start += len(basis_v)
        out[d] = tuple(tuple(r) for r in rows_out)
    return out


def complex_json(c: RepComplex) -> dict:
    """Wire form of a complex: dimension vectors per degree and the
    vertexwise differential matrices (entries as exact rational strings)."""
    terms = {str(d): {v: k for v, k in rep.dims if k} for d, rep in c.terms.items()}
    diff = {}
    for d, f in c.diffs.items():
        diff[str(d)] = {v: [[str(x) for x in row] for row in m]
                        for v, m in f.items() if m and any(any(r) for r in m)}
    return {"terms": terms, "diff": diff}


def cohomology_dims(c: RepComplex) -> dict[int, dict[str, int]]:
    """Vertexwise cohomology dimensions in every degree of the support."""
    sup = c.support()
    if sup is None:
        return {}
    out: dict[int, dict[str, int]] = {}
    for d in range(sup[0], sup[1] + 1):
        res = {}
        for u in c.a.vertices:
            n = c.term(d).dim(u)
            rk_out = linalg.rank(c.diffs[d][u]) if d in c.diffs else 0
            rk_in = linalg.rank(c.diffs[d - 1][u]) if d - 1 in c.diffs else 0
            res[u] = n - rk_out - rk_in
        if any(res.values()):
            out[d] = {u: k for u, k in res.items() if k}
    return out


# --- Gaussian minimization ----------------------------------------------------

def _elem_combine(e1: AlgElem, e2: AlgElem, sign: int) -> AlgElem:
    acc: dict[Path, Fraction] = {}
    for p, x in e1:
        acc[p] = acc.get(p, ZERO) + x
    for p, x in e2:
        acc[p] = acc.get(p, ZERO) + sign * x
    return tuple((p, x) for p, x in
                 sorted(acc.items(), key=lambda kv: (len(kv[0].arrows), kv[0].arrows))
                 if x != 0)


def _elem_mul(a: GentleAlgebra, inner: AlgElem, outer: AlgElem) -> AlgElem:
    """Multiplier of the composite map (inner applied first as a map)."""
    acc: dict[Path, Fraction] = {}
    for p, x in inner:
        for q, y in outer:
            comp = a.compose(p, q)    # outer multiplier acts first on paths
            if comp is not None:
                acc[comp] = acc.get(comp, ZERO) + x * y
    return tuple((p, x) for p, x in
                 sorted(acc.items(), key=lambda kv: (len(kv[0].arrows), kv[0].arrows))
                 if x != 0)


def _elem_scale(x: Fraction, e: AlgElem) -> AlgElem:
    return tuple((p, x * c) for p, c in e)


def minimize(c: RepComplex) -> RepComplex:
    """Strip contractible pieces by cancelling invertible components.

    Between same-vertex summands an entry is a scalar multiple of the
    trivial path (there are no nonzero cyclic paths), so invertibility is a
    nonzero trivial-path coefficient; cancellation is the usual Schur
    complement, and the neighbouring differentials just lose a row/column.
    """
    if c.proj_terms is None:
        raise ValueError("minimize needs a projective presentation")
    terms = {d: list(vs) for d, vs in c.proj_terms.items()}
    diffs = {d: [list(row) for row in rows] for d, rows in (c.proj_diffs or {}).items()}

    def unit_of(entry: AlgElem) -> Fraction | None:
        for p, x in entry:
            if p.is_trivial and x != 0:
                return x
        return None

    changed = True
    while changed:
        changed = False
        for d in sorted(diffs):
            rows = diffs[d]
            hit = None
            for i, row in enumerate(rows):
                for j, entry in enumerate(row):
                    u = unit_of(entry)
                    if u is not None:
                        hit = (i, j, u)
                        break
                if hit:
                    break
            if not hit:
                continue
            i, j, u = hit
            inv = 1 / u
            new_rows = []
            for i2 in range(len(rows)):
                if i2 == i:
                    continue
                new_row = []
                for j2 in range(len(rows[i2])):
                    if j2 == j:
                        continue
                    correction = _elem_scale(inv, _elem_mul(c.a, rows[i][j2], rows[i2][j]))
                    new_row.append(_elem_combine(rows[i2][j2], correction, -1))
                new_rows.append(new_row)
            diffs[d] = new_rows
            terms[d] = [v for k, v in enumerate(terms[d]) if k != j]
            terms[d + 1] = [v for k, v in enumerate(terms[d + 1]) if k != i]
            if d - 1 in diffs:
                diffs[d - 1] = [row for k, row in enumerate(diffs[d - 1]) if k != j]
            if d + 1 in diffs:
                diffs[d + 1] = [[e for k, e in enumerate(row) if k != i] for row in diffs[d + 1]]
            changed = True
            break

    proj_terms = {d: tuple(vs) for d, vs in terms.items() if vs}
    proj_diffs = {d: tuple(tuple(row) for row in rows)
                  for d, rows in diffs.items()
                  if d in proj_terms and d + 1 in proj_terms and rows}
    return _assemble_projective_complex(c.a, proj_terms, proj_diffs)
