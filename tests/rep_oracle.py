"""Reference engines at the representation layer.

Module morphisms are nullspaces of the commutation constraints over the
rationals, and the graded Hom complex of a pair of complexes is assembled
from them by composing dense matrices.  It reads complexes as module
complexes: ``dense_complex`` turns a complex of projectives into one,
each term the direct sum of its projectives, each differential the
vertex matrices derived here from the presentation (``vertex_diffs``, by
``right_multiplication``, each block checked to be a module morphism),
checked densely on construction.  It shares no code with the path-level engine
in ``gentle.hom``, which the tests compare against it; ``dense_chain_map``
turns the engine's path maps into the degreewise module morphisms this
oracle works on, and ``dense_boundary`` gives the engine's sparse boundary
columns as a dense matrix.  Its linear algebra is the dense ``Fraction``
elimination below (``dense_rref`` and what is built on it), not the sparse
integer core of ``gentle.linalg``, which the tests also check against it.

The module layer holds representations (``Representation``, the standard
modules ``projective`` and ``injective``, ``Morphism``), module complexes
(``ModuleComplex``, checked densely: module morphisms, d∘d = 0) and the
dense Serre route on them: ``nakayama_on_projectives`` builds the twist of
a complex of projectives as a module complex of injectives, and
``perfect_replacement`` covers a module complex by projectives with dense
block products.  The package computes both on path coordinates
(``gentle.complexes``); the tests compare the two presentation for
presentation.  The dense replacement finds its kernels by the dense
elimination, and its cover generators by an echelon form of the core
(``linalg.Echelon``), as the package does.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from gentle import linalg
from gentle.complexes import AlgElem, RepComplex, _assemble_projective_complex, zero_complex
from gentle.hom import HomPair, cohomology_dims
from gentle.linalg import ONE, ZERO, Matrix, Vector
from gentle.presentation import Arrow, GentleAlgebra, InternalCheckError, Path

# --- dense Fraction elimination ------------------------------------------------

def dense_rref(a: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in a]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def dense_rank(a: Matrix) -> int:
    return len(dense_rref(a)[1])


def dense_nullspace(a: Matrix, n_cols: int | None = None
                    ) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """Basis of the right kernel with the identity pattern on the free
    columns, and the free columns."""
    if n_cols is None:
        n_cols = len(a[0]) if a else 0
    rows, pivots = dense_rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * n_cols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return basis, free


def dense_solve(a: Matrix, b: tuple[Fraction, ...]) -> tuple[Fraction, ...] | None:
    """The solution of a x = b that is 0 at the free columns, or None."""
    m = len(a)
    n = len(a[0]) if a else 0
    aug = tuple(tuple(a[i]) + (b[i],) for i in range(m))
    rows, pivots = dense_rref(aug)
    if n in pivots:
        return None
    x = [ZERO] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    return tuple(x)


# --- the module layer: representations, the dense twist and replacement ---------

def zeros(m: int, n: int) -> Matrix:
    row = (ZERO,) * n
    return tuple(row for _ in range(m))


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    """Entrywise equality, padding width mismatches with zeros.

    Products through a zero space legitimately lose their column count; any
    entry beyond a collapsed width is exactly zero, so padding is sound.
    """
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        n = max(len(ra), len(rb))
        for j in range(n):
            xa = ra[j] if j < len(ra) else ZERO
            xb = rb[j] if j < len(rb) else ZERO
            if xa != xb:
                return False
    return True


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    m = len(a)
    n = len(b[0]) if b else 0
    k = len(b)
    if a and len(a[0]) != k:
        raise ValueError(f"shape mismatch: {shape(a)} * {shape(b)}")
    rows = []
    for i in range(m):
        arow = a[i]
        out = [ZERO] * n
        for t in range(k):
            x = arow[t]
            if x == 0:
                continue
            brow = b[t]
            for j in range(n):
                y = brow[j]
                if y != 0:
                    out[j] += x * y
        rows.append(tuple(out))
    return tuple(rows)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    out = [ZERO] * len(a)
    for j, x in enumerate(v):
        if x:
            for i, row in enumerate(a):
                y = row[j]
                if y:
                    out[i] += x * y
    return tuple(out)


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
            m = zeros(*want)
        rows, cols = shape(m)
        if rows != want[0] or (rows > 0 and cols != want[1]):
            raise ValueError(f"matrix for {arr.name} has shape {(rows, cols)}, wanted {want}")
        filled[arr.name] = m
    for (first, second) in a.relations:
        if not is_zero_matrix(mat_mul(filled[second], filled[first])):
            raise ValueError(f"relation {second}∘{first} does not act by zero")
    return Representation(tuple((v, dims.get(v, 0)) for v in a.vertices),
                          tuple((arr.name, filled[arr.name]) for arr in a.arrows))


# Morphisms of representations are plain dicts vertex -> Matrix.
Morphism = dict[str, Matrix]


def check_morphism(a: GentleAlgebra, src: Representation, tgt: Representation,
                   f: Morphism) -> bool:
    return all(mat_eq(mat_mul(f[arr.target], src.act(arr.name)),
                             mat_mul(tgt.act(arr.name), f[arr.source]))
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

    def _check(self) -> None:
        for d, f in self.diffs.items():
            if not check_morphism(self.a, self.terms[d], self.terms[d + 1], f):
                raise InternalCheckError(f"differential at degree {d} is not a morphism")
            g = self.diffs.get(d + 1)
            if g is not None and not all(is_zero_matrix(mat_mul(g[u], f[u]))
                                         for u in self.a.vertices):
                raise InternalCheckError(f"d∘d != 0 between degrees {d} and {d + 2}")


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


def _pair_act(C: Representation, P: Representation, arrow: Arrow, vec: Vector) -> Vector:
    """An arrow acting on a vector (c, p) of C ⊕ P, part by part."""
    n = C.dim(arrow.source)
    return (mat_vec(C.act(arrow.name), vec[:n])
            + mat_vec(P.act(arrow.name), vec[n:]))


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
    checked on the result, by two independent engines: the Hom engine on
    the output, dense ranks of the vertex matrices on the input.
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
            dC = c.diffs[d][u] if d in c.diffs else zeros(C_up.dim(u), C_d.dim(u))
            e_mat = eps[d + 1][u] if d + 1 in eps else zeros(C_up.dim(u), P_next.dim(u))
            for i in range(C_up.dim(u)):
                rows.append(tuple(dC[i]) + tuple(-x for x in e_mat[i]))
            if d + 1 in dP:
                for row in dP[d + 1][u]:
                    rows.append((ZERO,) * C_d.dim(u) + tuple(row))
            W[u], _ = dense_nullspace(tuple(rows), n_cols=C_d.dim(u) + P_next.dim(u))
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
    if cohomology_dims(out) != dense_cohomology(c):
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


# --- dense matrices, modules and morphisms --------------------------------------

# A chain map X -> Y[n] is a dict degree -> Morphism X^d -> Y^{d+n}.
ChainMap = dict[int, Morphism]


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def simple(a: GentleAlgebra, v: str) -> Representation:
    return make_representation(a, {u: (1 if u == v else 0) for u in a.vertices}, {})


def zero_morphism(a: GentleAlgebra, src: Representation, tgt: Representation) -> Morphism:
    return {v: zeros(tgt.dim(v), src.dim(v)) for v in a.vertices}


def morphism_is_zero(f: Morphism) -> bool:
    return all(is_zero_matrix(m) for m in f.values())


def compose_morphisms(a: GentleAlgebra, f: Morphism, g: Morphism) -> Morphism:
    """g∘f, vertexwise."""
    return {v: mat_mul(g[v], f[v]) for v in a.vertices}


def scale_morphism(c, f: Morphism) -> Morphism:
    return {v: mat_scale(c, m) for v, m in f.items()}


def add_morphisms(f: Morphism, g: Morphism) -> Morphism:
    return {v: mat_add(f[v], g[v]) for v in f}


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


def vertex_diffs(X: RepComplex) -> dict[int, Morphism]:
    """The vertexwise matrices of the differentials of a complex of
    projectives: each summand P(v) with its paths as basis, in path-basis
    order, each block the right multiplication by its entry."""
    a, terms = X.a, X.proj_terms
    return {d: _block_morphism(a, [[right_multiplication(a, e, v, u)
                                    for v, e in zip(terms[d], row)]
                                   for u, row in zip(terms[d + 1], rows)])
            for d, rows in X.proj_diffs.items()}


def dense_complex(X: RepComplex | ModuleComplex) -> ModuleComplex:
    """The module complex of X: each term the direct sum of its projectives,
    each differential its vertex matrices; the constructor checks densely
    that they are module morphisms with d∘d = 0."""
    if isinstance(X, ModuleComplex):
        return X
    a = X.a
    return ModuleComplex(a, {d: _sum_of_projectives(a, vs) for d, vs in X.proj_terms.items()},
                         vertex_diffs(X))


def dense_complex_json(X: RepComplex) -> dict:
    """The wire form of ``gentle.hom.complex_json`` read off the dense
    module complex: dimension vectors per degree and the nonzero vertex
    matrices of the differentials, entries as rational strings."""
    M = dense_complex(X)
    terms = {str(d): {v: k for v, k in t.dims if k} for d, t in M.terms.items()}
    diff = {str(d): {v: [[str(x) for x in row] for row in m]
                     for v, m in f.items() if any(any(row) for row in m)}
            for d, f in M.diffs.items()}
    return {"terms": terms, "diff": diff}


def dense_cohomology(M: ModuleComplex) -> dict[int, dict[str, int]]:
    """Vertexwise cohomology dimensions of a module complex, ranked by the
    dense elimination."""
    out: dict[int, dict[str, int]] = {}
    for d, t in M.terms.items():
        res = {}
        for u in M.a.vertices:
            rk_out = dense_rank(M.diffs[d][u]) if d in M.diffs else 0
            rk_in = dense_rank(M.diffs[d - 1][u]) if d - 1 in M.diffs else 0
            k = t.dim(u) - rk_out - rk_in
            if k:
                res[u] = k
        if res:
            out[d] = res
    return out


def dense_boundary(pair: HomPair, n: int) -> Matrix:
    """The engine's boundary columns of level n as a dense matrix: rows of
    level n+1 by columns of level n, entries ``Fraction``."""
    cols = pair.boundary_columns(n)
    return tuple(tuple(Fraction(col.get(i, 0)) for col in cols)
                 for i in range(pair.level_dim(n + 1)))


def dense_chain_map(X: RepComplex, Y: RepComplex, f, n: int = 0) -> ChainMap:
    """The module morphisms X^d -> Y^{d+n} of a map given on the
    presentations as (degree, source summand, target summand) -> path
    combination, each block the right multiplication by its entry."""
    a = X.a
    by_degree: dict[int, dict[tuple[int, int], tuple]] = {}
    for (d, k, l), elem in f.items():
        by_degree.setdefault(d, {})[(k, l)] = elem
    out: ChainMap = {}
    for d, elems in by_degree.items():
        src_vs, tgt_vs = X.proj_terms[d], Y.proj_terms[d + n]
        out[d] = _block_morphism(a, [[right_multiplication(a, elems.get((k, l), ()), u, v)
                                      for k, u in enumerate(src_vs)]
                                     for l, v in enumerate(tgt_vs)])
    return out


def _rep_key(r: Representation):
    return (r.dims, r.action)


@dataclass
class HomSpace:
    """Hom_A(src, tgt) with an echelon basis for constant-time coordinates.

    The nullspace basis has the identity pattern on its free columns, so the
    coordinates of any member are its values there; membership is confirmed
    by reconstructing the vector.
    """

    basis: list[Morphism]
    vectors: list[tuple[Fraction, ...]]
    free_cols: list[int]
    vec_len: int

    def coords(self, vec: tuple[Fraction, ...]) -> tuple[Fraction, ...] | None:
        out = tuple(vec[c] for c in self.free_cols)
        rebuilt = [ZERO] * self.vec_len
        for x, b in zip(out, self.vectors):
            if x:
                for i, y in enumerate(b):
                    if y:
                        rebuilt[i] += x * y
        return out if tuple(rebuilt) == vec else None


def hom_space(a: GentleAlgebra, src: Representation, tgt: Representation) -> HomSpace:
    """Hom_A(src, tgt) as the nullspace of the commutation constraints."""
    key = ("oracle_module_hom", _rep_key(src), _rep_key(tgt))
    if key in a._cache:
        return a._cache[key]
    # unknowns: entries of the per-vertex matrices, vertex blocks in order
    offsets = {}
    n_unknowns = 0
    for v in a.vertices:
        offsets[v] = n_unknowns
        n_unknowns += tgt.dim(v) * src.dim(v)

    def var(v: str, i: int, j: int) -> int:
        return offsets[v] + i * src.dim(v) + j

    rows = []
    for arr in a.arrows:
        u, w = arr.source, arr.target
        ms, mt = src.act(arr.name), tgt.act(arr.name)
        # f_w · ms = mt · f_u, one equation per (i < dim tgt(w), j < dim src(u))
        for i in range(tgt.dim(w)):
            for j in range(src.dim(u)):
                row = [ZERO] * n_unknowns
                for k in range(src.dim(w)):
                    if ms[k][j] != 0:
                        row[var(w, i, k)] += ms[k][j]
                for k in range(tgt.dim(u)):
                    if mt[i][k] != 0:
                        row[var(u, k, j)] -= mt[i][k]
                rows.append(tuple(row))
    basis_vecs, free_cols = dense_nullspace(tuple(rows), n_cols=n_unknowns)
    basis = []
    for vec in basis_vecs:
        f: Morphism = {}
        for v in a.vertices:
            f[v] = tuple(tuple(vec[var(v, i, j)] for j in range(src.dim(v)))
                         for i in range(tgt.dim(v)))
        basis.append(f)
    space = HomSpace(basis, [tuple(v) for v in basis_vecs], list(free_cols), n_unknowns)
    a._cache[key] = space
    return space


def morphism_vector(a: GentleAlgebra, src: Representation, tgt: Representation,
                    f: Morphism) -> tuple[Fraction, ...]:
    """The entries of f in the unknown order of ``hom_space``, zero-padded."""
    out: list[Fraction] = []
    for v in a.vertices:
        m = f.get(v, ())
        n_cols = src.dim(v)
        for i in range(tgt.dim(v)):
            row = tuple(m[i]) if i < len(m) else ()
            out.extend(row)
            out.extend([ZERO] * (n_cols - len(row)))
    return tuple(out)


class RepHomPair:
    """Graded Hom data of a pair of complexes, computed on representations.

    Level n collects the module morphisms X^d -> Y^{d+n}, each degree with
    the nullspace basis of ``hom_space``; the boundary sends f to
    dY∘f - (-1)^n f∘dX.  Complexes of projectives are read through
    ``dense_complex``.
    """

    def __init__(self, X: RepComplex | ModuleComplex, Y: RepComplex | ModuleComplex):
        X, Y = dense_complex(X), dense_complex(Y)
        self.a, self.X, self.Y = X.a, X, Y
        sx, sy = X.support(), Y.support()
        self.window = (0, -1) if sx is None or sy is None else (sy[0] - sx[1], sy[1] - sx[0])
        self._boundary: dict[int, Matrix] = {}

    def _slots(self, n: int) -> list[tuple[int, HomSpace]]:
        out = []
        for d in sorted(self.X.terms):
            if d + n in self.Y.terms:
                space = hom_space(self.a, self.X.terms[d], self.Y.terms[d + n])
                if space.basis:
                    out.append((d, space))
        return out

    def level_dim(self, n: int) -> int:
        return sum(len(space.basis) for _, space in self._slots(n))

    def coords(self, n: int, f: ChainMap) -> tuple[Fraction, ...] | None:
        """Coordinates of a level-n family of morphisms, or None."""
        out: list[Fraction] = []
        slots = self._slots(n)
        for d, space in slots:
            g = f.get(d)
            if g is None:
                out.extend([ZERO] * len(space.basis))
                continue
            c = space.coords(morphism_vector(self.a, self.X.terms[d], self.Y.terms[d + n], g))
            if c is None:
                return None
            out.extend(c)
        degrees = {d for d, _ in slots}
        if any(not morphism_is_zero(g) for d, g in f.items() if d not in degrees):
            return None
        return tuple(out)

    def boundary_matrix(self, n: int) -> Matrix:
        if n in self._boundary:
            return self._boundary[n]
        sign = ONE if n % 2 == 0 else -ONE
        columns = []
        for d, space in self._slots(n):
            for b in space.basis:
                image: ChainMap = {}
                if d + n in self.Y.diffs:
                    image[d] = compose_morphisms(self.a, b, self.Y.diffs[d + n])
                if d - 1 in self.X.diffs:
                    image[d - 1] = scale_morphism(
                        -sign, compose_morphisms(self.a, self.X.diffs[d - 1], b))
                col = self.coords(n + 1, image)
                if col is None:
                    raise AssertionError("boundary image missed the morphism space")
                columns.append(col)
        mat = tuple(tuple(col[i] for col in columns) for i in range(self.level_dim(n + 1)))
        self._boundary[n] = mat
        return mat

    def cycle_dim(self, n: int) -> int:
        return self.level_dim(n) - dense_rank(self.boundary_matrix(n))

    def hom_dim(self, n: int = 0) -> int:
        lo, hi = self.window
        if n < lo or n > hi:
            return 0
        return self.cycle_dim(n) - dense_rank(self.boundary_matrix(n - 1))

    def profile(self) -> dict[int, int]:
        """The nonzero graded dimensions over the window."""
        lo, hi = self.window
        dims = {n: self.hom_dim(n) for n in range(lo, hi + 1)}
        return {n: k for n, k in dims.items() if k}

    def chain_maps(self, n: int = 0) -> list[ChainMap]:
        vecs, _ = dense_nullspace(self.boundary_matrix(n), n_cols=self.level_dim(n))
        out = []
        for vec in vecs:
            f: ChainMap = {}
            off = 0
            for d, space in self._slots(n):
                g = zero_morphism(self.a, self.X.terms[d], self.Y.terms[d + n])
                for b, x in zip(space.basis, vec[off:off + len(space.basis)]):
                    if x:
                        g = add_morphisms(g, scale_morphism(x, b))
                if not morphism_is_zero(g):
                    f[d] = g
                off += len(space.basis)
            out.append(f)
        return out

    def is_chain_map(self, f: ChainMap, n: int = 0) -> bool:
        """Whether f commutes with the differentials as a map X -> Y[n]:
        dY∘f_d = (-1)^n f_{d+1}∘dX in every degree, missing degrees zero."""
        a, X, Y = self.a, self.X, self.Y
        sign = ONE if n % 2 == 0 else -ONE
        sx = X.support()
        if sx is None:
            return True
        for d in range(sx[0] - 1, sx[1] + 2):
            fd = f.get(d, zero_morphism(a, _term(X, d), _term(Y, d + n)))
            fd1 = f.get(d + 1, zero_morphism(a, _term(X, d + 1), _term(Y, d + n + 1)))
            lhs = compose_morphisms(a, _diff(X, d), fd1)
            rhs = scale_morphism(sign, compose_morphisms(a, fd, _diff(Y, d + n)))
            if not all(mat_eq(lhs[v], rhs[v]) for v in a.vertices):
                return False
        return True

    def is_null_homotopic(self, f: ChainMap, n: int = 0) -> bool:
        vec = self.coords(n, f)
        if vec is None:
            raise ValueError("not a level-n map of this pair")
        if all(x == 0 for x in vec):
            return True
        return dense_solve(self.boundary_matrix(n - 1), vec) is not None


def _term(M: ModuleComplex, d: int) -> Representation:
    return M.terms[d] if d in M.terms else make_representation(M.a, {}, {})


def _diff(M: ModuleComplex, d: int) -> Morphism:
    if d in M.diffs:
        return M.diffs[d]
    return zero_morphism(M.a, _term(M, d), _term(M, d + 1))


def _compose_chain(a: GentleAlgebra, f: ChainMap, g: ChainMap) -> ChainMap:
    """g∘f for degree-0 chain maps."""
    out: ChainMap = {}
    for d, comp in f.items():
        if d in g:
            h = compose_morphisms(a, comp, g[d])
            if not morphism_is_zero(h):
                out[d] = h
    return out


def iso_indecomposable(X: RepComplex, Y: RepComplex) -> bool:
    """The local-ring isomorphism test on dense chain maps: some composite
    Y -> X -> Y of basis chain maps is invertible, i.e. not nilpotent
    modulo null-homotopic maps."""
    X, Y = dense_complex(X), dense_complex(Y)
    if X.support() is None or Y.support() is None:
        return X.support() is None and Y.support() is None
    if dense_cohomology(X) != dense_cohomology(Y):
        return False
    maps_xy = RepHomPair(X, Y).chain_maps(0)
    maps_yx = RepHomPair(Y, X).chain_maps(0)
    pair_yy = RepHomPair(Y, Y)
    end_dim = pair_yy.hom_dim(0)
    for f in maps_xy:
        for g in maps_yx:
            power = c = _compose_chain(X.a, g, f)
            for _ in range(end_dim + 1):
                if pair_yy.is_null_homotopic(power):
                    break
                power = _compose_chain(X.a, power, c)
            else:
                return True
    return False
