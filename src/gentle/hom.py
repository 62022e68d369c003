"""Exact Hom computations in the homotopy category of bounded complexes.

Everything runs at the representation layer: module morphisms are
nullspaces of commutation constraints over the rationals, and the graded
Hom data of a pair of complexes is packaged as a two-sided bounded Hom
complex whose cohomology gives dim Hom(X, Y[t]) simultaneously for every t
in the support window.  Degreewise chain maps, null-homotopy tests,
composition and the local-ring isomorphism test for indecomposables are
built on the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import Matrix, ZERO, ONE
from .complexes import (Morphism, RepComplex, Representation, add_morphisms,
                        compose_morphisms, cohomology_dims, morphism_is_zero,
                        projective, right_multiplication, scale_morphism,
                        zero_morphism)
from .presentation import GentleAlgebra, InternalCheckError

# A chain map X -> Y[n] is a dict degree -> Morphism X^d -> Y^{d+n}.
ChainMap = dict[int, Morphism]


def _rep_key(r: Representation):
    return (r.dims, r.action)


@dataclass
class _HomSpace:
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


def _hom_space(a: GentleAlgebra, src: Representation, tgt: Representation) -> _HomSpace:
    """Hom_A(src, tgt) as the nullspace of the commutation constraints."""
    key = ("module_hom", _rep_key(src), _rep_key(tgt))
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
    basis_vecs, free_cols = linalg.nullspace(tuple(rows), n_cols=n_unknowns)
    basis = []
    for vec in basis_vecs:
        f: Morphism = {}
        for v in a.vertices:
            f[v] = tuple(tuple(vec[var(v, i, j)] for j in range(src.dim(v)))
                         for i in range(tgt.dim(v)))
        basis.append(f)
    space = _HomSpace(basis, [tuple(v) for v in basis_vecs], list(free_cols), n_unknowns)
    a._cache[key] = space
    return space


def _morphism_vector(a: GentleAlgebra, src: Representation, tgt: Representation,
                     f: Morphism) -> tuple[Fraction, ...]:
    out: list[Fraction] = []
    for v in a.vertices:
        m = f.get(v, ())
        n_rows, n_cols = tgt.dim(v), src.dim(v)
        for i in range(n_rows):
            row = m[i] if i < len(m) else ()
            if len(row) == n_cols:
                out.extend(row)
            else:
                out.extend(row)
                out.extend([ZERO] * (n_cols - len(row)))
    return tuple(out)


@dataclass(frozen=True)
class GradedHomProfile:
    """dim Hom(X, Y[i]) over the exact window; zero outside by support."""

    dims: tuple[tuple[int, int], ...]
    window: tuple[int, int]

    def dim(self, i: int) -> int:
        return dict(self.dims).get(i, 0)

    def nonzero(self) -> dict[int, int]:
        return {i: d for i, d in self.dims if d}

    def total(self) -> int:
        return sum(d for _, d in self.dims)

    def __repr__(self):
        return "HomProfile(" + ", ".join(f"[{i}]:{d}" for i, d in self.dims if d) + ")"


def _pair_space(a: GentleAlgebra, u: str, v: str) -> _HomSpace:
    key = ("pair_space", u, v)
    if key not in a._cache:
        a._cache[key] = _hom_space(a, projective(a, u), projective(a, v))
    return a._cache[key]


def _compose_table_left(a: GentleAlgebra, elem, u: str, v: str, vp: str):
    """Coordinates of (multiplication map P(v)->P(vp)) ∘ b for every basis
    element b of Hom(P(u), P(v)), expressed in Hom(P(u), P(vp))."""
    key = ("Tleft", elem, u, v, vp)
    if key in a._cache:
        return a._cache[key]
    src_space = _pair_space(a, u, v)
    tgt_space = _pair_space(a, u, vp)
    r = right_multiplication(a, elem, v, vp)
    cols = []
    for b in src_space.basis:
        comp = compose_morphisms(a, b, r)
        vec = _morphism_vector(a, projective(a, u), projective(a, vp), comp)
        coords = tgt_space.coords(vec) if tgt_space.basis else \
            (() if all(x == 0 for x in vec) else None)
        if coords is None:
            raise InternalCheckError("composite left the morphism space")
        cols.append(coords)
    a._cache[key] = tuple(cols)
    return a._cache[key]


def _compose_table_right(a: GentleAlgebra, elem, up: str, u: str, v: str):
    """Coordinates of b ∘ (multiplication map P(up)->P(u)) for every basis
    element b of Hom(P(u), P(v)), expressed in Hom(P(up), P(v))."""
    key = ("Tright", elem, up, u, v)
    if key in a._cache:
        return a._cache[key]
    src_space = _pair_space(a, u, v)
    tgt_space = _pair_space(a, up, v)
    r = right_multiplication(a, elem, up, u)
    cols = []
    for b in src_space.basis:
        comp = compose_morphisms(a, r, b)
        vec = _morphism_vector(a, projective(a, up), projective(a, v), comp)
        coords = tgt_space.coords(vec) if tgt_space.basis else \
            (() if all(x == 0 for x in vec) else None)
        if coords is None:
            raise InternalCheckError("composite left the morphism space")
        cols.append(coords)
    a._cache[key] = tuple(cols)
    return a._cache[key]


def _vertex_offsets(a: GentleAlgebra, summands: tuple[str, ...]):
    """Per summand, the starting coordinate of its block at each vertex."""
    offsets = []
    running = {v: 0 for v in a.vertices}
    for u in summands:
        offsets.append(dict(running))
        rep = projective(a, u)
        for v in a.vertices:
            running[v] += rep.dim(v)
    return offsets


class HomPair:
    """Graded Hom data of an ordered pair of bounded complexes.

    Level n collects the module morphisms X^d -> Y^{d+n}; the boundary
    sends f to dY∘f - (-1)^n f∘dX.  Kernel mod image at level n is
    Hom(X, Y[n]) in the homotopy category.

    When both complexes carry projective presentations the levels split
    into blocks between single projectives, whose morphism spaces and
    composites with the differential entries are memoized on the algebra;
    otherwise everything is computed directly on the representations.
    """

    def __init__(self, X: RepComplex, Y: RepComplex):
        if X.a is not Y.a:
            raise ValueError("complexes over different algebras")
        self.a = X.a
        self.X = X
        self.Y = Y
        sx, sy = X.support(), Y.support()
        if sx is None or sy is None:
            self.window = (0, -1)     # empty
        else:
            self.window = (sy[0] - sx[1], sy[1] - sx[0])
        self._fast = (X.proj_terms is not None and X.proj_diffs is not None
                      and Y.proj_terms is not None and Y.proj_diffs is not None)
        self._levels: dict[int, list[tuple[int, int]]] = {}
        self._spaces: dict[tuple[int, int], _HomSpace] = {}
        # fast path: (d, n) -> ordered [(k, l, offset, space)] and a lookup
        self._blocks: dict[tuple[int, int], list[tuple[int, int, int, _HomSpace]]] = {}
        self._block_index: dict[tuple[int, int], dict[tuple[int, int], tuple[int, _HomSpace]]] = {}
        self._xoff: dict[int, list[dict[str, int]]] = {}
        self._yoff: dict[int, list[dict[str, int]]] = {}
        self._boundary: dict[int, Matrix] = {}

    # -- level bookkeeping ---------------------------------------------------
    def _slot_dim(self, d: int, n: int) -> int:
        if not self._fast:
            space = _hom_space(self.a, self.X.terms[d], self.Y.terms[d + n])
            self._spaces[(d, n)] = space
            return len(space.basis)
        blocks: list[tuple[int, int, int, _HomSpace]] = []
        index: dict[tuple[int, int], tuple[int, _HomSpace]] = {}
        off = 0
        for k, u in enumerate(self.X.proj_terms[d]):
            for l, v in enumerate(self.Y.proj_terms[d + n]):
                space = _pair_space(self.a, u, v)
                if space.basis:
                    blocks.append((k, l, off, space))
                    index[(k, l)] = (off, space)
                    off += len(space.basis)
        self._blocks[(d, n)] = blocks
        self._block_index[(d, n)] = index
        return off

    def _level_slots(self, n: int) -> list[tuple[int, int]]:
        """(degree, basis size) pairs for level n, in degree order."""
        if n in self._levels:
            return self._levels[n]
        slots = []
        sx, sy = self.X.support(), self.Y.support()
        if sx and sy:
            for d in range(sx[0], sx[1] + 1):
                if d in self.X.terms and d + n in self.Y.terms:
                    dim = self._slot_dim(d, n)
                    if dim:
                        slots.append((d, dim))
        self._levels[n] = slots
        return slots

    def level_dim(self, n: int) -> int:
        return sum(k for _, k in self._level_slots(n))

    def _offsets_x(self, d: int):
        if d not in self._xoff:
            self._xoff[d] = _vertex_offsets(self.a, self.X.proj_terms[d])
        return self._xoff[d]

    def _offsets_y(self, d: int):
        if d not in self._yoff:
            self._yoff[d] = _vertex_offsets(self.a, self.Y.proj_terms[d])
        return self._yoff[d]

    def _basis_at(self, d: int, n: int) -> list[Morphism]:
        self._level_slots(n)
        if not self._fast:
            space = self._spaces.get((d, n))
            return space.basis if space else []
        out = []
        for k, l, _, space in self._blocks.get((d, n), []):
            for b in space.basis:
                out.append(self._embed_block(d, n, k, l, b))
        return out

    def _embed_block(self, d: int, n: int, k: int, l: int, b: Morphism) -> Morphism:
        a = self.a
        src, tgt = self.X.terms[d], self.Y.terms[d + n]
        x0 = self._offsets_x(d)[k]
        y0 = self._offsets_y(d + n)[l]
        u = self.X.proj_terms[d][k]
        v = self.Y.proj_terms[d + n][l]
        pu, pv = projective(a, u), projective(a, v)
        out: Morphism = {}
        for w in a.vertices:
            rows = [[ZERO] * src.dim(w) for _ in range(tgt.dim(w))]
            block = b[w]
            for i in range(pv.dim(w)):
                for j in range(pu.dim(w)):
                    rows[y0[w] + i][x0[w] + j] = block[i][j]
            out[w] = tuple(tuple(r) for r in rows)
        return out

    def _block_coords(self, d: int, n: int, f: Morphism) -> tuple[Fraction, ...] | None:
        a = self.a
        dim = sum(len(sp.basis) for _, _, _, sp in self._blocks.get((d, n), []))
        out = [ZERO] * dim
        index = self._block_index.get((d, n), {})
        x_terms = self.X.proj_terms[d]
        y_terms = self.Y.proj_terms[d + n]
        xoff = self._offsets_x(d)
        yoff = self._offsets_y(d + n)
        for k, u in enumerate(x_terms):
            pu = projective(a, u)
            for l, v in enumerate(y_terms):
                pv = projective(a, v)
                vec: list[Fraction] = []
                for w in a.vertices:
                    m = f.get(w, ())
                    for i in range(pv.dim(w)):
                        row = m[yoff[l][w] + i] if yoff[l][w] + i < len(m) else ()
                        for j in range(pu.dim(w)):
                            col = xoff[k][w] + j
                            vec.append(row[col] if col < len(row) else ZERO)
                entry = index.get((k, l))
                if entry is None:
                    if any(x != 0 for x in vec):
                        return None
                    continue
                off, space = entry
                coords = space.coords(tuple(vec))
                if coords is None:
                    return None
                for i, x in enumerate(coords):
                    out[off + i] = x
        return tuple(out)

    def _coords_at(self, d: int, n: int, f: Morphism) -> tuple[Fraction, ...] | None:
        """Coordinates of a morphism X^d -> Y^{d+n} in the level basis."""
        self._level_slots(n)
        if self._fast:
            if d in self.X.terms and d + n in self.Y.terms:
                return self._block_coords(d, n, f)
            vec = _morphism_vector(self.a, self.X.term(d), self.Y.term(d + n), f)
            return () if all(x == 0 for x in vec) else None
        space = self._spaces.get((d, n))
        src, tgt = self.X.term(d), self.Y.term(d + n)
        vec = _morphism_vector(self.a, src, tgt, f)
        if space is None or not space.basis:
            return () if all(x == 0 for x in vec) else None
        return space.coords(vec)

    # -- boundary ------------------------------------------------------------
    def boundary_matrix(self, n: int) -> Matrix:
        """Matrix of level n -> level n+1 in the chosen bases."""
        if n in self._boundary:
            return self._boundary[n]
        mat = self._boundary_fast(n) if self._fast else self._boundary_generic(n)
        self._boundary[n] = mat
        return mat

    def _target_offsets(self, n: int) -> dict[int, int]:
        offsets: dict[int, int] = {}
        off = 0
        for d, k in self._level_slots(n):
            offsets[d] = off
            off += k
        return offsets

    def _boundary_fast(self, n: int) -> Matrix:
        a = self.a
        src_slots = self._level_slots(n)
        tgt_dim = self.level_dim(n + 1)
        tgt_offsets = self._target_offsets(n + 1)
        sign = ONE if n % 2 == 0 else -ONE
        columns: list[list[Fraction]] = []
        for d, _ in src_slots:
            x_terms = self.X.proj_terms[d]
            y_terms = self.Y.proj_terms[d + n]
            dY = self.Y.proj_diffs.get(d + n)
            dX = self.X.proj_diffs.get(d - 1)
            up_index = self._block_index.get((d, n + 1), {}) if d in tgt_offsets else {}
            dn_index = self._block_index.get((d - 1, n + 1), {}) if d - 1 in tgt_offsets else {}
            for k, l, _, space in self._blocks[(d, n)]:
                u, v = x_terms[k], y_terms[l]
                for b_idx in range(len(space.basis)):
                    col = [ZERO] * tgt_dim
                    if dY is not None and d + n + 1 in self.Y.terms:
                        for lp, row in enumerate(dY):
                            elem = row[l]
                            if not elem:
                                continue
                            vp = self.Y.proj_terms[d + n + 1][lp]
                            coords = _compose_table_left(a, elem, u, v, vp)[b_idx]
                            if not coords:
                                continue
                            entry = up_index.get((k, lp))
                            if entry is None:
                                if any(x != 0 for x in coords):
                                    raise InternalCheckError("boundary image at a vanished slot")
                                continue
                            base = tgt_offsets[d] + entry[0]
                            for i, x in enumerate(coords):
                                col[base + i] += x
                    if dX is not None and d - 1 in self.X.terms:
                        for kp, elem in enumerate(dX[k]):
                            if not elem:
                                continue
                            up = self.X.proj_terms[d - 1][kp]
                            coords = _compose_table_right(a, elem, up, u, v)[b_idx]
                            if not coords:
                                continue
                            entry = dn_index.get((kp, l))
                            if entry is None:
                                if any(x != 0 for x in coords):
                                    raise InternalCheckError("boundary image at a vanished slot")
                                continue
                            base = tgt_offsets[d - 1] + entry[0]
                            for i, x in enumerate(coords):
                                col[base + i] -= sign * x
                    columns.append(col)
        return tuple(tuple(columns[j][i] for j in range(len(columns)))
                     for i in range(tgt_dim))

    def _boundary_generic(self, n: int) -> Matrix:
        src_slots = self._level_slots(n)
        tgt_dim = self.level_dim(n + 1)
        tgt_offsets = self._target_offsets(n + 1)
        sign = ONE if n % 2 == 0 else -ONE
        columns: list[list[Fraction]] = []
        for d, k in src_slots:
            for b in self._basis_at(d, n):
                col = [ZERO] * tgt_dim
                if d + n in self.Y.diffs:
                    g = compose_morphisms(self.a, b, self.Y.diffs[d + n])
                    self._add_coords(col, tgt_offsets, d, n + 1, g)
                if d - 1 in self.X.diffs:
                    g = compose_morphisms(self.a, self.X.diffs[d - 1], b)
                    g = scale_morphism(-sign, g)
                    self._add_coords(col, tgt_offsets, d - 1, n + 1, g)
                columns.append(col)
        return tuple(tuple(columns[j][i] for j in range(len(columns)))
                     for i in range(tgt_dim))

    def _add_coords(self, col: list[Fraction], tgt_offsets: dict[int, int],
                    d: int, n: int, g: Morphism) -> None:
        if morphism_is_zero(g):
            return
        coords = self._coords_at(d, n, g)
        if coords is None:
            raise InternalCheckError("boundary image missed the morphism space")
        base = tgt_offsets.get(d)
        if base is None:
            if any(x != 0 for x in coords):
                raise InternalCheckError("boundary image at a vanished slot")
            return
        for i, x in enumerate(coords):
            col[base + i] += x

    # -- the public quantities -------------------------------------------------
    def cycle_dim(self, n: int) -> int:
        return self.level_dim(n) - linalg.rank(self.boundary_matrix(n))

    def image_dim_into(self, n: int) -> int:
        return linalg.rank(self.boundary_matrix(n - 1))

    def hom_dim(self, n: int = 0) -> int:
        lo, hi = self.window
        if n < lo or n > hi:
            return 0
        return self.cycle_dim(n) - self.image_dim_into(n)

    def profile(self) -> GradedHomProfile:
        lo, hi = self.window
        dims = tuple((n, self.hom_dim(n)) for n in range(lo, hi + 1))
        return GradedHomProfile(dims, self.window)

    def chain_maps(self, n: int = 0) -> list[ChainMap]:
        """Basis of degreewise maps X -> Y[n] commuting with differentials."""
        mat = self.boundary_matrix(n)
        vecs, _ = linalg.nullspace(mat, n_cols=self.level_dim(n))
        return [self._unflatten(n, v) for v in vecs]

    def _unflatten(self, n: int, vec) -> ChainMap:
        out: ChainMap = {}
        off = 0
        for d, k in self._level_slots(n):
            basis = self._basis_at(d, n)
            f = zero_morphism(self.a, self.X.term(d), self.Y.term(d + n))
            for b, x in zip(basis, vec[off: off + k]):
                if x:
                    f = add_morphisms(f, scale_morphism(x, b))
            if not morphism_is_zero(f):
                out[d] = f
            off += k
        return out

    def flatten(self, n: int, f: ChainMap) -> tuple[Fraction, ...] | None:
        out: list[Fraction] = []
        for d, k in self._level_slots(n):
            g = f.get(d)
            if g is None:
                out.extend([ZERO] * k)
                continue
            coords = self._coords_at(d, n, g)
            if coords is None:
                return None
            out.extend(coords)
        for d in f:
            if not morphism_is_zero(f[d]):
                if d not in [dd for dd, _ in self._level_slots(n)]:
                    return None
        return tuple(out)

    def is_null_homotopic(self, f: ChainMap, n: int = 0) -> bool:
        """Whether f = dY∘h + h∘dX for some degree -1 family h."""
        vec = self.flatten(n, f)
        if vec is None:
            raise ValueError("not a level-n map of this pair")
        if all(x == 0 for x in vec):
            return True
        mat = self.boundary_matrix(n - 1)
        return linalg.solve(mat, vec) is not None


def graded_profile(X: RepComplex, Y: RepComplex) -> GradedHomProfile:
    return HomPair(X, Y).profile()


def chain_map_space(X: RepComplex, Y: RepComplex) -> list[ChainMap]:
    return HomPair(X, Y).chain_maps(0)


def chain_map_dim(X: RepComplex, Y: RepComplex) -> int:
    pair = HomPair(X, Y)
    return pair.cycle_dim(0)


def homotopy_space_dim(X: RepComplex, Y: RepComplex) -> int:
    return HomPair(X, Y).image_dim_into(0)


def hom_k_dim(X: RepComplex, Y: RepComplex) -> int:
    return HomPair(X, Y).hom_dim(0)


def identity_chain(X: RepComplex) -> ChainMap:
    out: ChainMap = {}
    for d, t in X.terms.items():
        out[d] = {v: linalg.identity(t.dim(v)) for v in X.a.vertices}
    return out


def compose_chain(a: GentleAlgebra, f: ChainMap, g: ChainMap,
                  X: RepComplex, Y: RepComplex, Z: RepComplex,
                  n_f: int = 0, n_g: int = 0) -> ChainMap:
    """g∘f where f: X -> Y[n_f] and g: Y -> Z[n_g]; result X -> Z[n_f + n_g]."""
    out: ChainMap = {}
    for d, comp in f.items():
        gg = g.get(d + n_f)
        if gg is None:
            continue
        h = compose_morphisms(a, comp, gg)
        if not morphism_is_zero(h):
            out[d] = h
    return out


def validate_chain_map(X: RepComplex, Y: RepComplex, f: ChainMap, n: int = 0) -> bool:
    """Degreewise shapes and the commutation rule for a map X -> Y[n]."""
    a = X.a
    sign = ONE if n % 2 == 0 else -ONE
    sx = X.support()
    if sx is None:
        return True
    for d in range(sx[0] - 1, sx[1] + 2):
        fd = f.get(d, zero_morphism(a, X.term(d), Y.term(d + n)))
        fd1 = f.get(d + 1, zero_morphism(a, X.term(d + 1), Y.term(d + n + 1)))
        lhs = compose_morphisms(a, X.diff(d), fd1)
        rhs = compose_morphisms(a, fd, Y.diff(d + n))
        rhs = scale_morphism(sign, rhs)
        for v in a.vertices:
            if not linalg.mat_eq(lhs[v], rhs[v]):
                return False
    return True


def is_null_homotopic(X: RepComplex, Y: RepComplex, f: ChainMap, n: int = 0) -> bool:
    return HomPair(X, Y).is_null_homotopic(f, n)


def _quick_distinct(X: RepComplex, Y: RepComplex) -> bool:
    return cohomology_dims(X) != cohomology_dims(Y)


def iso_indecomposable(X: RepComplex, Y: RepComplex) -> bool:
    """Isomorphism test in the homotopy category for complexes whose
    endomorphism rings are local (indecomposables and their replacements).

    X ≅ Y exactly when some composite Y -> X -> Y of basis chain maps is
    invertible; in a local ring a sum of non-units is a non-unit, so basis
    composites suffice.  Invertibility of an endomorphism is decided by
    powering past the endomorphism ring dimension and testing null-homotopy.
    """
    if X.is_zero() or Y.is_zero():
        return X.is_zero() and Y.is_zero()
    if _quick_distinct(X, Y):
        return False
    pair_xy = HomPair(X, Y)
    pair_yx = HomPair(Y, X)
    maps_xy = pair_xy.chain_maps(0)
    maps_yx = pair_yx.chain_maps(0)
    if not maps_xy or not maps_yx:
        return False
    pair_yy = HomPair(Y, Y)
    end_dim = pair_yy.hom_dim(0)
    a = X.a
    for f in maps_xy:
        for g in maps_yx:
            c = compose_chain(a, g, f, Y, X, Y)
            if _is_invertible_endo(pair_yy, Y, c, end_dim):
                return True
    return False


def _is_invertible_endo(pair_yy: HomPair, Y: RepComplex, c: ChainMap,
                        end_dim: int) -> bool:
    """In a local endomorphism ring: invertible iff not nilpotent modulo
    homotopy; nilpotency shows up by the (dim+1)-st power."""
    if pair_yy.is_null_homotopic(c):
        return False
    power = c
    for _ in range(end_dim):
        power = compose_chain(Y.a, power, c, Y, Y, Y)
        if pair_yy.is_null_homotopic(power):
            return False
    return True
