"""Exact Hom computations in the homotopy category of bounded complexes.

Complexes enter through their projective presentations.  For a gentle
algebra, Hom(P(u), P(v)) has the nonzero paths v ⇝ u as a basis, a path
acting by right multiplication, and composing such a map with a
differential entry is multiplication of path combinations.  The graded Hom
data of a pair of complexes is therefore assembled from path lookups as a
two-sided bounded Hom complex, whose cohomology gives dim Hom(X, Y[t])
simultaneously for every t in the support window; linear algebra only
computes its ranks, chain-map bases and null-homotopy solves.  Chain maps
are path combinations too (``PathMap``), and the local-ring isomorphism
test for indecomposables composes them as such; no module morphism is
built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import Matrix, ZERO, ONE
from .complexes import AlgElem, RepComplex, _elem_combine, _elem_mul, cohomology_dims
from .presentation import GentleAlgebra, InternalCheckError, Path

# A map X -> Y[n] on the presentations: (degree d, summand of X^d, summand
# of Y^{d+n}) -> the path combination of that component.
PathMap = dict[tuple[int, int, int], AlgElem]


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


def _pair_space(a: GentleAlgebra, u: str, v: str) -> dict[Path, int]:
    """The path basis of Hom(P(u), P(v)), each path with its position: the
    paths q in P(v) ending at u, where q is the image of the generator e_u."""
    key = ("pair_space", u, v)
    if key not in a._cache:
        paths = (q for q in a.paths_from[v] if q.target == u)
        a._cache[key] = {q: i for i, q in enumerate(paths)}
    return a._cache[key]


def _coords_in(a: GentleAlgebra, elem: AlgElem, u: str, v: str) -> tuple[Fraction, ...]:
    """Coordinates of a path combination in the path basis of Hom(P(u), P(v))."""
    space = _pair_space(a, u, v)
    out = [ZERO] * len(space)
    for p, x in elem:
        i = space.get(p)
        if i is None:
            raise InternalCheckError(f"composite {p!r} is not a map P({u}) -> P({v})")
        out[i] += x
    return tuple(out)


def _compose_table_left(a: GentleAlgebra, elem: AlgElem, u: str, v: str, vp: str):
    """Coordinates of (multiplication map P(v)->P(vp)) ∘ p for every basis
    path p of Hom(P(u), P(v)), expressed in Hom(P(u), P(vp))."""
    key = ("Tleft", elem, u, v, vp)
    if key not in a._cache:
        a._cache[key] = tuple(_coords_in(a, _elem_mul(a, ((p, ONE),), elem), u, vp)
                              for p in _pair_space(a, u, v))
    return a._cache[key]


def _compose_table_right(a: GentleAlgebra, elem: AlgElem, up: str, u: str, v: str):
    """Coordinates of p ∘ (multiplication map P(up)->P(u)) for every basis
    path p of Hom(P(u), P(v)), expressed in Hom(P(up), P(v))."""
    key = ("Tright", elem, up, u, v)
    if key not in a._cache:
        a._cache[key] = tuple(_coords_in(a, _elem_mul(a, elem, ((p, ONE),)), up, v)
                              for p in _pair_space(a, u, v))
    return a._cache[key]


def _compose_paths(a: GentleAlgebra, f: PathMap, g: PathMap) -> PathMap:
    """g∘f for degree-0 maps f: X -> Y and g: Y -> Z given on presentations."""
    by_source: dict[tuple[int, int], list[tuple[int, AlgElem]]] = {}
    for (d, l, m), e in g.items():
        by_source.setdefault((d, l), []).append((m, e))
    out: PathMap = {}
    for (d, k, l), e in f.items():
        for m, e2 in by_source.get((d, l), ()):
            out[(d, k, m)] = _elem_combine(out.get((d, k, m), ()), _elem_mul(a, e, e2), 1)
    return {key: e for key, e in out.items() if e}


class HomPair:
    """Graded Hom data of an ordered pair of bounded complexes of projectives.

    Level n collects the maps X^d -> Y^{d+n}; the boundary sends f to
    dY∘f - (-1)^n f∘dX.  Kernel mod image at level n is Hom(X, Y[n]) in the
    homotopy category.  Both complexes must carry projective presentations:
    a level splits into blocks between single projectives, each with the
    path basis of ``_pair_space``, and the boundary is read off the memoized
    products of those paths with the differential entries.  Maps are
    ``PathMap``s: ``path_chain_maps`` gives a basis of the chain maps at a
    level and ``is_null_homotopic`` tests one.
    """

    def __init__(self, X: RepComplex, Y: RepComplex):
        if X.a is not Y.a:
            raise ValueError("complexes over different algebras")
        if X.proj_terms is None or X.proj_diffs is None \
                or Y.proj_terms is None or Y.proj_diffs is None:
            raise ValueError("Hom needs complexes that carry projective presentations")
        self.a = X.a
        self.X = X
        self.Y = Y
        sx, sy = X.support(), Y.support()
        if sx is None or sy is None:
            self.window = (0, -1)     # empty
        else:
            self.window = (sy[0] - sx[1], sy[1] - sx[0])
        self._levels: dict[int, list[tuple[int, int]]] = {}
        # (d, n) -> ordered [(k, l, offset, path basis)] and a lookup by (k, l)
        self._blocks: dict[tuple[int, int], list[tuple[int, int, int, dict[Path, int]]]] = {}
        self._block_index: dict[tuple[int, int], dict[tuple[int, int], tuple[int, dict[Path, int]]]] = {}
        self._boundary: dict[int, Matrix] = {}

    # -- level bookkeeping ---------------------------------------------------
    def _slot_dim(self, d: int, n: int) -> int:
        blocks: list[tuple[int, int, int, dict[Path, int]]] = []
        index: dict[tuple[int, int], tuple[int, dict[Path, int]]] = {}
        off = 0
        for k, u in enumerate(self.X.proj_terms[d]):
            for l, v in enumerate(self.Y.proj_terms[d + n]):
                space = _pair_space(self.a, u, v)
                if space:
                    blocks.append((k, l, off, space))
                    index[(k, l)] = (off, space)
                    off += len(space)
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

    # -- boundary ------------------------------------------------------------
    def boundary_matrix(self, n: int) -> Matrix:
        """Matrix of level n -> level n+1 in the chosen bases."""
        if n in self._boundary:
            return self._boundary[n]
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
                for b_idx in range(len(space)):
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
        mat = tuple(tuple(columns[j][i] for j in range(len(columns)))
                    for i in range(tgt_dim))
        self._boundary[n] = mat
        return mat

    def _target_offsets(self, n: int) -> dict[int, int]:
        offsets: dict[int, int] = {}
        off = 0
        for d, k in self._level_slots(n):
            offsets[d] = off
            off += k
        return offsets

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

    def path_chain_maps(self, n: int = 0) -> list[PathMap]:
        """Basis of the maps X -> Y[n] commuting with differentials, each
        given by the path combinations of its components."""
        vecs, _ = linalg.nullspace(self.boundary_matrix(n), n_cols=self.level_dim(n))
        return [self._path_map(n, v) for v in vecs]

    def _path_map(self, n: int, vec) -> PathMap:
        out: PathMap = {}
        off = 0
        for d, k in self._level_slots(n):
            for kk, l, o, space in self._blocks[(d, n)]:
                coords = vec[off + o: off + o + len(space)]
                elem = tuple((p, x) for p, x in zip(space, coords) if x)
                if elem:
                    out[(d, kk, l)] = elem
            off += k
        return out

    def _path_coords(self, n: int, f: PathMap) -> tuple[Fraction, ...]:
        """Coordinates of a map given on presentations in the level basis."""
        offsets = self._target_offsets(n)
        out = [ZERO] * self.level_dim(n)
        for (d, k, l), elem in f.items():
            block = self._block_index.get((d, n), {}).get((k, l))
            if block is None or any(p not in block[1] for p, _ in elem):
                raise ValueError(f"component {(d, k, l)} is not a map in level {n} of this pair")
            base, space = offsets[d] + block[0], block[1]
            for p, x in elem:
                out[base + space[p]] += x
        return tuple(out)

    def is_null_homotopic(self, f: PathMap, n: int = 0) -> bool:
        """Whether the level-n map f is dY∘h + h∘dX for some degree -1
        family h, decided on the coordinates of f; a component of f outside
        the blocks of level n, or with a path outside its block's basis, is
        a ``ValueError``."""
        vec = self._path_coords(n, f)
        if all(x == 0 for x in vec):
            return True
        return linalg.solve(self.boundary_matrix(n - 1), vec) is not None


def graded_profile(X: RepComplex, Y: RepComplex) -> GradedHomProfile:
    return HomPair(X, Y).profile()


def chain_map_dim(X: RepComplex, Y: RepComplex) -> int:
    pair = HomPair(X, Y)
    return pair.cycle_dim(0)


def homotopy_space_dim(X: RepComplex, Y: RepComplex) -> int:
    return HomPair(X, Y).image_dim_into(0)


def hom_k_dim(X: RepComplex, Y: RepComplex) -> int:
    return HomPair(X, Y).hom_dim(0)


def _quick_distinct(X: RepComplex, Y: RepComplex) -> bool:
    return cohomology_dims(X) != cohomology_dims(Y)


def iso_indecomposable(X: RepComplex, Y: RepComplex) -> bool:
    """Isomorphism test in the homotopy category for complexes whose
    endomorphism rings are local (indecomposables and their replacements).

    X ≅ Y exactly when some composite Y -> X -> Y of basis chain maps is
    invertible; in a local ring a sum of non-units is a non-unit, so basis
    composites suffice.  Invertibility of an endomorphism is decided by
    powering past the endomorphism ring dimension and testing null-homotopy.
    Chain maps are composed as path combinations and tested on their
    coordinates.
    """
    if X.is_zero() or Y.is_zero():
        return X.is_zero() and Y.is_zero()
    if _quick_distinct(X, Y):
        return False
    maps_xy = HomPair(X, Y).path_chain_maps(0)
    maps_yx = HomPair(Y, X).path_chain_maps(0)
    if not maps_xy or not maps_yx:
        return False
    pair_yy = HomPair(Y, Y)
    end_dim = pair_yy.hom_dim(0)
    for f in maps_xy:
        for g in maps_yx:
            if _is_invertible_endo(pair_yy, _compose_paths(X.a, g, f), end_dim):
                return True
    return False


def _is_invertible_endo(pair_yy: HomPair, c: PathMap, end_dim: int) -> bool:
    """In a local endomorphism ring: invertible iff not nilpotent modulo
    homotopy; nilpotency shows up by the (dim+1)-st power."""
    if pair_yy.is_null_homotopic(c):
        return False
    power = c
    for _ in range(end_dim):
        power = _compose_paths(pair_yy.a, power, c)
        if pair_yy.is_null_homotopic(power):
            return False
    return True
