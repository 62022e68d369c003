"""Reference Hom engine at the representation layer.

Module morphisms are nullspaces of the commutation constraints over the
rationals, and the graded Hom complex of a pair of complexes is assembled
from them by composing dense matrices.  It needs no projective
presentation and shares no code with the path-level engine in
``gentle.hom``, which the tests compare against it; ``dense_chain_map``
turns the engine's path maps into the degreewise module morphisms this
oracle works on.  Its linear algebra is the dense ``Fraction`` elimination
below (``dense_rref`` and what is built on it), not the sparse integer
core of ``gentle.linalg``, which the tests also check against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from gentle import linalg
from gentle.complexes import (Morphism, RepComplex, Representation, _block_morphism,
                              cohomology_dims, compose_morphisms, morphism_is_zero,
                              projective, right_multiplication, scale_morphism,
                              zero_morphism)
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


# --- module morphisms and chain maps ------------------------------------------

def add_morphisms(f: Morphism, g: Morphism) -> Morphism:
    return {v: linalg.mat_add(f[v], g[v]) for v in f}


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
        blocks = [[right_multiplication(a, elems.get((k, l), ()), u, v)
                   for k, u in enumerate(src_vs)] for l, v in enumerate(tgt_vs)]
        out[d] = _block_morphism(a, [projective(a, u) for u in src_vs],
                                 [projective(a, v) for v in tgt_vs], blocks)
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
    dY∘f - (-1)^n f∘dX.
    """

    def __init__(self, X: RepComplex, Y: RepComplex):
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
            fd = f.get(d, zero_morphism(a, X.term(d), Y.term(d + n)))
            fd1 = f.get(d + 1, zero_morphism(a, X.term(d + 1), Y.term(d + n + 1)))
            lhs = compose_morphisms(a, X.diff(d), fd1)
            rhs = scale_morphism(sign, compose_morphisms(a, fd, Y.diff(d + n)))
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
    if X.is_zero() or Y.is_zero():
        return X.is_zero() and Y.is_zero()
    if cohomology_dims(X) != cohomology_dims(Y):
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
