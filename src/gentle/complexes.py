"""Quiver representations and bounded complexes of projectives.

A complex of projectives (``RepComplex``) is its projective presentation:
each term a sum of indecomposable projectives P(v), each differential
entry a rational combination of paths acting by right multiplication.
The Hom engine, Gaussian minimization, the search and the classifier read
only the presentation.  The vertexwise matrices of the differentials are
derived from it on first use, once per complex, for the readers that need
them: cohomology dimensions (``cohomology_dims``) and the wire form
(``complex_json``); term dimensions are path counts.

The Nakayama twist of a complex of projectives is a complex of injectives.
It is the one module complex (``ModuleComplex``): explicit representations
as terms and vertexwise matrices as differentials, checked densely, and
the input of projective replacement.

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
from .linalg import Matrix, Vector, ZERO, ONE
from .presentation import Arrow, GentleAlgebra, InternalCheckError, Path
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
    """A bounded complex of projectives, given by its projective presentation.

    ``proj_terms[d]`` lists the vertices v of the summands P(v) in degree d,
    and ``proj_diffs[d][i][j]`` is the path combination of the component
    from summand j of degree d to summand i of degree d + 1.  Empty terms,
    and differentials at them, are dropped.  The constructor checks
    nothing; ``_assemble_projective_complex`` checks d∘d on the
    presentation.  ``shape`` records the unfolded word of a string or band
    complex.
    """

    def __init__(self, a: GentleAlgebra, proj_terms: dict[int, tuple[str, ...]],
                 proj_diffs: dict[int, tuple[tuple[AlgElem, ...], ...]],
                 shape: WordShape | None = None):
        self.a = a
        self.proj_terms = {d: vs for d, vs in proj_terms.items() if vs}
        self.proj_diffs = {d: rows for d, rows in proj_diffs.items()
                           if d in self.proj_terms and d + 1 in self.proj_terms}
        self.shape = shape
        self._support = ((min(self.proj_terms), max(self.proj_terms))
                         if self.proj_terms else None)
        self._vertex_diffs: dict[int, Morphism] | None = None

    def support(self) -> tuple[int, int] | None:
        return self._support

    def is_zero(self) -> bool:
        return self._support is None

    def term_dim(self, d: int, u: str) -> int:
        """Dimension of the degree-d term at vertex u: the paths from the
        summands' vertices that end at u."""
        return sum(q.target == u for v in self.proj_terms.get(d, ())
                   for q in projective_basis(self.a, v))

    def vertex_diffs(self) -> dict[int, Morphism]:
        """The vertexwise matrices of the differentials, built on first use.

        Each summand P(v) has its paths as basis, in path-basis order, and
        each block is the right multiplication by its entry.
        """
        if self._vertex_diffs is None:
            a, terms = self.a, self.proj_terms
            self._vertex_diffs = {
                d: _block_morphism(a, [[right_multiplication(a, e, v, u)
                                        for v, e in zip(terms[d], row)]
                                       for u, row in zip(terms[d + 1], rows)])
                for d, rows in self.proj_diffs.items()}
        return self._vertex_diffs

    def __repr__(self):
        if self._support is None:
            return "RepComplex(0)"
        lo, hi = self._support
        return "RepComplex(" + "  ".join(
            f"{d}:[{'+'.join('P' + v for v in self.proj_terms.get(d, ()))}]"
            for d in range(lo, hi + 1)) + ")"


class ModuleComplex:
    """A bounded complex of modules: a representation per degree and the
    vertexwise matrices of the differentials.

    The differentials are checked densely on construction: module
    morphisms, d∘d = 0.  The Nakayama twist of a complex of projectives is
    one, and projective replacement takes one.
    """

    def __init__(self, a: GentleAlgebra, terms: dict[int, Representation],
                 diffs: dict[int, Morphism]):
        self.a = a
        self.terms = {d: t for d, t in terms.items() if t.total_dim > 0}
        self.diffs = {d: f for d, f in diffs.items()
                      if d in self.terms and d + 1 in self.terms}
        self._support = (min(self.terms), max(self.terms)) if self.terms else None
        self._check()

    def support(self) -> tuple[int, int] | None:
        return self._support

    def term_dim(self, d: int, u: str) -> int:
        return self.terms[d].dim(u) if d in self.terms else 0

    def vertex_diffs(self) -> dict[int, Morphism]:
        return self.diffs

    def _check(self) -> None:
        for d, f in self.diffs.items():
            if not check_morphism(self.a, self.terms[d], self.terms[d + 1], f):
                raise InternalCheckError(f"differential at degree {d} is not a morphism")
            g = self.diffs.get(d + 1)
            if g is not None and not all(linalg.is_zero_matrix(linalg.mat_mul(g[u], f[u]))
                                         for u in self.a.vertices):
                raise InternalCheckError(f"d∘d != 0 between degrees {d} and {d + 2}")


def zero_complex(a: GentleAlgebra) -> RepComplex:
    return RepComplex(a, {}, {})


def _direct_sum(a: GentleAlgebra, blocks: list[Representation]) -> Representation:
    """The direct sum of representations, with block-diagonal arrow matrices."""
    dims = {u: sum(b.dim(u) for b in blocks) for u in a.vertices}
    action: dict[str, Matrix] = {}
    for arr in a.arrows:
        rows = [[ZERO] * dims[arr.source] for _ in range(dims[arr.target])]
        r0 = c0 = 0
        for b in blocks:
            m = b.act(arr.name)
            for i in range(b.dim(arr.target)):
                rows[r0 + i][c0:c0 + b.dim(arr.source)] = m[i]
            r0 += b.dim(arr.target)
            c0 += b.dim(arr.source)
        action[arr.name] = tuple(tuple(r) for r in rows)
    return make_representation(a, dims, action)


def _sum_of_projectives(a: GentleAlgebra, vs: tuple[str, ...]) -> Representation:
    key = ("proj_sum", vs)
    if key not in a._cache:
        a._cache[key] = _direct_sum(a, [projective(a, v) for v in vs])
    return a._cache[key]


def _block_morphism(a: GentleAlgebra, blocks: list[list[Morphism]]) -> Morphism:
    """The vertexwise matrices of a map between nonzero direct sums:
    ``blocks[i][j]`` maps summand j of the source to summand i of the
    target."""
    return {u: tuple(tuple(x for f in row for x in f[u][r])
                     for row in blocks for r in range(len(row[0][u])))
            for u in a.vertices}


def _assemble_projective_complex(a: GentleAlgebra,
                                 proj_terms: dict[int, tuple[str, ...]],
                                 proj_diffs: dict[int, tuple[tuple[AlgElem, ...], ...]],
                                 shape: WordShape | None = None) -> RepComplex:
    """The complex of a projective presentation, with d∘d = 0 checked.

    The composite of two differentials is right multiplication by the
    products of their entries, and right multiplication is faithful
    (x·e = 0 for all x forces e = 0), so the composite vanishes exactly
    when every product entry does.
    """
    c = RepComplex(a, proj_terms, proj_diffs, shape)
    _check_d_squared(a, c.proj_diffs)
    return c


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
                       proj_diffs: dict[int, tuple[tuple[AlgElem, ...], ...]],
                       t: int):
    """The projective presentation of the suspension [t], as in ``shift``."""
    proj_terms = {d - t: v for d, v in proj_terms.items()}
    if t % 2 == 0:
        return proj_terms, {d - t: rows for d, rows in proj_diffs.items()}
    return proj_terms, {d - t: tuple(tuple(tuple((p, -x) for p, x in e) for e in row)
                                     for row in rows)
                        for d, rows in proj_diffs.items()}


def shift(c: RepComplex, t: int) -> RepComplex:
    """Suspension [t]: degree d of the result is degree d + t of the input,
    with differentials negated t times."""
    if t == 0 or c.is_zero():
        return c
    proj_terms, proj_diffs = shift_presentation(c.proj_terms, c.proj_diffs, t)
    shape = None
    if c.shape is not None:
        shape = WordShape(c.shape.word, c.shape.base + t,
                          tuple((v, d - t, s) for v, d, s in c.shape.positions),
                          c.shape.cyclic, c.shape.scalar)
    return RepComplex(c.a, proj_terms, proj_diffs, shape)


def nakayama_on_projectives(c: RepComplex) -> ModuleComplex:
    """Replace every projective summand P(v) by I(v) and every differential
    entry by its induced map between injectives."""
    if not isinstance(c, RepComplex):
        raise ValueError("complex does not carry a projective presentation")
    a = c.a
    inj_cache = {v: injective(a, v) for v in a.vertices}
    terms = {d: _direct_sum(a, [inj_cache[v] for v in vs]) for d, vs in c.proj_terms.items()}
    diffs = {d: _block_morphism(a, [[induced_injective_map(a, e, v, u)
                                     for v, e in zip(c.proj_terms[d], row)]
                                    for u, row in zip(c.proj_terms[d + 1], rows)])
             for d, rows in c.proj_diffs.items()}
    return ModuleComplex(a, terms, diffs)


# --- projective replacement ---------------------------------------------------

def _pair_act(C: Representation, P: Representation, arrow: Arrow, vec: Vector) -> Vector:
    """An arrow acting on a vector (c, p) of C ⊕ P, part by part."""
    n = C.dim(arrow.source)
    return (linalg.mat_vec(C.act(arrow.name), vec[:n])
            + linalg.mat_vec(P.act(arrow.name), vec[n:]))


def _top_generators(a: GentleAlgebra, C: Representation, P: Representation,
                    W: dict[str, list[Vector]]) -> list[tuple[str, Vector]]:
    """Generators of the submodule W of C ⊕ P, one per dimension of its top.

    ``W[v]`` is a basis of W at v.  At each vertex the arrow images of W
    into v span the radical there; the basis vectors of ``W[v]`` that the
    echelon form stores after them complete a basis of W at v modulo its
    radical.  The echelon spans exactly ``W[v]`` only when W is closed
    under the arrows, which is checked.
    """
    gens = []
    for v in a.vertices:
        ech = linalg.Echelon()
        for arr in a.in_arrows[v]:
            for vec in W[arr.source]:
                ech.add({i: x for i, x in enumerate(_pair_act(C, P, arr, vec)) if x})
        for vec in W[v]:
            if ech.add({i: x for i, x in enumerate(vec) if x}) is None:
                gens.append((v, vec))
        if len(ech) != len(W[v]):
            raise InternalCheckError("submodule vectors are not action-closed")
    return gens


def _cols_to_matrix(cols: list[Vector], n_rows: int) -> Matrix:
    return tuple(tuple(col[i] for col in cols) for i in range(n_rows))


def perfect_replacement(c: ModuleComplex, max_steps: int | None = None) -> RepComplex:
    """A bounded complex of projectives quasi-isomorphic to ``c``.

    Built from the top degree down, with P^d -> C^d and P^d -> P^{d+1}
    read off the generators' images (the image of each basis path of a
    generator's projective is an arrow applied to the image of its
    prefix).  At each degree d the pairs
    W = {(c, p) in C^d ⊕ P^{d+1} : d_C c = ε p, d_P p = 0} form a submodule,
    and P^d is its projective cover: one P(v) per top generator at v
    (``_top_generators``), mapped onto W by the generator.  A surjection onto
    W makes the comparison a quasi-isomorphism degree by degree; a
    projective cover adds no contractible summand, so a minimal input comes
    back with its own summands.  Below the support the loop runs a minimal
    projective resolution of the remaining syzygy module, which terminates
    exactly when the input is quasi-isomorphic to a bounded complex of
    projectives; ``max_steps`` guards the loop.  Cohomology preservation is
    checked on the result.
    """
    a = c.a
    sup = c.support()
    if sup is None:
        return zero_complex(a)
    lo, hi = sup
    if max_steps is None:
        total = sum(t.total_dim for t in c.terms.values())
        max_steps = total + sum(projective(a, v).total_dim for v in a.vertices) + 16

    zero = _sum_of_projectives(a, ())
    proj_terms: dict[int, tuple[str, ...]] = {}
    proj_diffs: dict[int, tuple[tuple[AlgElem, ...], ...]] = {}
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
        C_d = c.terms.get(d, zero)
        P_next = proj_sums.get(d + 1, zero)
        C_up = c.terms.get(d + 1, zero)
        W: dict[str, list[Vector]] = {}
        for u in a.vertices:
            rows = []
            dC = c.diffs[d][u] if d in c.diffs else linalg.zeros(C_up.dim(u), C_d.dim(u))
            e_mat = eps[d + 1][u] if d + 1 in eps else linalg.zeros(C_up.dim(u), P_next.dim(u))
            for i in range(C_up.dim(u)):
                rows.append(tuple(dC[i]) + tuple(-x for x in e_mat[i]))
            if d + 1 in dP:
                for row in dP[d + 1][u]:
                    rows.append((ZERO,) * C_d.dim(u) + tuple(row))
            W[u], _ = linalg.nullspace(tuple(rows), n_cols=C_d.dim(u) + P_next.dim(u))
        if d < lo and not any(W.values()):
            break
        gens = _top_generators(a, C_d, P_next, W)
        summands = tuple(v for v, _ in gens)
        eps_cols: dict[str, list[Vector]] = {u: [] for u in a.vertices}
        dp_cols: dict[str, list[Vector]] = {u: [] for u in a.vertices}
        for v, gen in gens:
            # by the arrows of the path from v; every prefix of a basis path
            # is a basis path, and a shorter one comes first by length
            images: dict[tuple[str, ...], Vector] = {}
            for q in sorted(projective_basis(a, v), key=len):
                images[q.arrows] = (_pair_act(C_d, P_next, a.arrow_map[q.arrows[-1]],
                                              images[q.arrows[:-1]])
                                    if q.arrows else gen)
            for q in projective_basis(a, v):
                img = images[q.arrows]
                n = C_d.dim(q.target)
                eps_cols[q.target].append(img[:n])
                dp_cols[q.target].append(img[n:])
        proj_terms[d] = summands
        proj_diffs[d] = _generator_entries(a, gens, C_d, proj_terms.get(d + 1, ()))
        proj_sums[d] = _sum_of_projectives(a, summands)
        eps[d] = {u: _cols_to_matrix(eps_cols[u], C_d.dim(u)) for u in a.vertices}
        dP[d] = {u: _cols_to_matrix(dp_cols[u], P_next.dim(u)) for u in a.vertices}
        d -= 1

    out = _assemble_projective_complex(a, proj_terms, proj_diffs)
    if cohomology_dims(out) != cohomology_dims(c):
        raise InternalCheckError("replacement changed cohomology dimensions")
    return out


def _generator_entries(a: GentleAlgebra, gens: list[tuple[str, Vector]], C: Representation,
                       tgt_vs: tuple[str, ...]) -> tuple[tuple[AlgElem, ...], ...]:
    """Differential entries from the cover summands to the summands
    ``tgt_vs`` one degree up, read off the P part of each generator: at its
    vertex v, the coordinates of each target summand P(u) are those of the
    paths from u ending at v."""
    rows: list[list[AlgElem]] = [[() for _ in gens] for _ in tgt_vs]
    for j, (v, gen) in enumerate(gens):
        coords = iter(gen[C.dim(v):])
        for i, u in enumerate(tgt_vs):
            basis = [q for q in projective_basis(a, u) if q.target == v]
            rows[i][j] = tuple((q, x) for q, x in zip(basis, coords) if x)
    return tuple(tuple(r) for r in rows)


def complex_json(c: RepComplex) -> dict:
    """Wire form of a complex: dimension vectors per degree and the
    vertexwise differential matrices (entries as exact rational strings)."""
    vertices = c.a.vertices
    terms = {str(d): {v: k for v in vertices if (k := c.term_dim(d, v))} for d in c.proj_terms}
    diff = {str(d): {v: [[str(x) for x in row] for row in m]
                     for v, m in f.items() if m and any(any(r) for r in m)}
            for d, f in c.vertex_diffs().items()}
    return {"terms": terms, "diff": diff}


def cohomology_dims(c: RepComplex | ModuleComplex) -> dict[int, dict[str, int]]:
    """Vertexwise cohomology dimensions in every degree of the support, from
    the term dimensions and the ranks of the vertexwise differentials."""
    sup = c.support()
    if sup is None:
        return {}
    ranks = {(d, u): linalg.rank(m) for d, f in c.vertex_diffs().items() for u, m in f.items()}
    out: dict[int, dict[str, int]] = {}
    for d in range(sup[0], sup[1] + 1):
        res = {u: c.term_dim(d, u) - ranks.get((d, u), 0) - ranks.get((d - 1, u), 0)
               for u in c.a.vertices}
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
    terms = {d: list(vs) for d, vs in c.proj_terms.items()}
    diffs = {d: [list(row) for row in rows] for d, rows in c.proj_diffs.items()}

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
