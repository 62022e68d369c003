"""Reference Hom engine at the representation layer.

Module morphisms are nullspaces of the commutation constraints over the
rationals, and the graded Hom complex of a pair of complexes is assembled
from them by composing dense matrices.  It reads complexes as module
complexes: ``dense_complex`` turns a complex of projectives into one,
each term the direct sum of its projectives, each differential the
vertex matrices that the package derives from the presentation, checked
densely on construction.  It shares no code with the path-level engine
in ``gentle.hom``, which the tests compare against it; ``dense_chain_map``
turns the engine's path maps into the degreewise module morphisms this
oracle works on, and ``dense_boundary`` gives the engine's sparse boundary
columns as a dense matrix.  Its linear algebra is the dense ``Fraction``
elimination below (``dense_rref`` and what is built on it), not the sparse
integer core of ``gentle.linalg``, which the tests also check against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from gentle import linalg
from gentle.complexes import (ModuleComplex, Morphism, RepComplex, Representation,
                              _block_morphism, _sum_of_projectives, make_representation,
                              right_multiplication)
from gentle.hom import HomPair
from gentle.linalg import ONE, ZERO, Matrix
from gentle.presentation import GentleAlgebra

# A chain map X -> Y[n] is a dict degree -> Morphism X^d -> Y^{d+n}.
ChainMap = dict[int, Morphism]


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


# --- dense matrices, modules and morphisms --------------------------------------

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
    return {v: linalg.zeros(tgt.dim(v), src.dim(v)) for v in a.vertices}


def morphism_is_zero(f: Morphism) -> bool:
    return all(linalg.is_zero_matrix(m) for m in f.values())


def compose_morphisms(a: GentleAlgebra, f: Morphism, g: Morphism) -> Morphism:
    """g∘f, vertexwise."""
    return {v: linalg.mat_mul(g[v], f[v]) for v in a.vertices}


def scale_morphism(c, f: Morphism) -> Morphism:
    return {v: mat_scale(c, m) for v, m in f.items()}


def add_morphisms(f: Morphism, g: Morphism) -> Morphism:
    return {v: mat_add(f[v], g[v]) for v in f}


def dense_complex(X: RepComplex | ModuleComplex) -> ModuleComplex:
    """The module complex of X: each term the direct sum of its projectives,
    each differential its derived vertex matrices; the constructor checks
    densely that they are module morphisms with d∘d = 0."""
    if isinstance(X, ModuleComplex):
        return X
    a = X.a
    return ModuleComplex(a, {d: _sum_of_projectives(a, vs) for d, vs in X.proj_terms.items()},
                         X.vertex_diffs())


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
            if not all(linalg.mat_eq(lhs[v], rhs[v]) for v in a.vertices):
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
