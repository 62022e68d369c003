"""Exact Hom computations in the homotopy category of bounded complexes.

Complexes enter through their projective presentations.  For a gentle
algebra, Hom(P(u), P(v)) has the nonzero paths v ⇝ u as a basis, a path
acting by right multiplication, and composing such a map with a
differential entry is multiplication of path combinations.  The graded Hom
data of a pair of complexes is therefore assembled from path lookups as a
two-sided bounded Hom complex, whose cohomology gives dim Hom(X, Y[t])
simultaneously for every t in the support window.  Its boundary is built
as sparse integer columns: the memoized composition tables hold (index,
value) pairs, ints except where a band scalar p/q puts a ``Fraction``, and
on string complexes every entry is ±1.  The exact elimination core of
``linalg`` computes ranks (once per boundary level of a pair), chain-map
bases and null-homotopy membership from those columns.  Chain maps are
path combinations too (``PathMap``), and the local-ring isomorphism test
for indecomposables composes them as such.

A complex of projectives X at a vertex u is the Hom complex of the pair
(P(u), X): its level d is X^d at u, in the path basis, and its boundary
the differential there, since the stalk P(u) has none.  Cohomology
(``cohomology_dims``) and the wire form (``complex_json``) are read off
those pairs; no dense matrix is built for a complex of projectives.  The
one other input of ``cohomology_dims`` is the Nakayama twist of
``gentle.complexes``, whose vertexwise differentials strip a path off as
a suffix; it is ranked there by ``linalg.rank``, independently of the Hom
engine, which is what lets projective replacement check that it keeps
cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import ZERO, ONE
from .complexes import (AlgElem, InjectiveComplex, RepComplex, _dense_rows, _elem_combine,
                        _elem_mul, _pair_space)
from .presentation import GentleAlgebra, InternalCheckError, Path

# A map X -> Y[n] on the presentations: (degree d, summand of X^d, summand
# of Y^{d+n}) -> the path combination of that component.
PathMap = dict[tuple[int, int, int], AlgElem]

# The blocks of one level of a HomPair: the same keys as a PathMap -> the
# block's offset in the level and its path basis.
_Blocks = dict[tuple[int, int, int], tuple[int, dict[Path, int]]]


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


def _coords_in(a: GentleAlgebra, elem: AlgElem, u: str, v: str
               ) -> tuple[tuple[int, int | Fraction], ...]:
    """Sparse coordinates (index, value) of a path combination in the path
    basis of Hom(P(u), P(v)), by index; a value is an int unless the
    combination carries a non-integral scalar."""
    space = _pair_space(a, u, v)
    out: dict[int, Fraction] = {}
    for p, x in elem:
        i = space.get(p)
        if i is None:
            raise InternalCheckError(f"composite {p!r} is not a map P({u}) -> P({v})")
        out[i] = out.get(i, ZERO) + x
    return tuple((i, x.numerator if x.denominator == 1 else x)
                 for i, x in sorted(out.items()) if x)


def _compose_table_left(a: GentleAlgebra, elem: AlgElem, u: str, v: str, vp: str):
    """Sparse coordinates of (multiplication map P(v)->P(vp)) ∘ p for every
    basis path p of Hom(P(u), P(v)), expressed in Hom(P(u), P(vp))."""
    key = ("Tleft", elem, u, v, vp)
    if key not in a._cache:
        a._cache[key] = tuple(_coords_in(a, _elem_mul(a, ((p, ONE),), elem), u, vp)
                              for p in _pair_space(a, u, v))
    return a._cache[key]


def _compose_table_right(a: GentleAlgebra, elem: AlgElem, up: str, u: str, v: str):
    """Sparse coordinates of p ∘ (multiplication map P(up)->P(u)) for every
    basis path p of Hom(P(u), P(v)), expressed in Hom(P(up), P(v))."""
    key = ("Tright", elem, up, u, v)
    if key not in a._cache:
        a._cache[key] = tuple(_coords_in(a, _elem_mul(a, elem, ((p, ONE),)), up, v)
                              for p in _pair_space(a, u, v))
    return a._cache[key]


def _scatter(cols: list[dict[int, int | Fraction]], table, block, sign: int) -> None:
    """Write sign times one composition table into the columns of a block,
    at the target block ``block`` (offset, basis) of the next level; a
    composite landing where that level has no block is an internal error."""
    if block is None:
        if any(table):
            raise InternalCheckError("boundary image at a vanished slot")
        return
    base = block[0]
    for col, coords in zip(cols, table):
        for i, x in coords:
            col[base + i] = x if sign > 0 else -x


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
    homotopy category.  Both complexes are read on their projective
    presentations: a level splits into blocks between single projectives,
    each with the path basis of ``_pair_space``.  One record per level
    (``_level``) holds its dimension and its blocks, keyed by (degree, X
    summand, Y summand) with their offsets across the level; the level's
    dimension, its columns, and the translation of maps to coordinates and
    back all read it.  The boundary is read off the memoized products of
    the block paths with the differential entries, one table per block and
    entry, as sparse integer columns (``boundary_columns``).  Each level's
    record, columns and echelon form are built once per pair, so
    ``profile`` and repeated ``hom_dim`` calls rank every level once, and
    every null-homotopy test at a level reduces against the same echelon
    form.  Maps are ``PathMap``s: ``path_chain_maps`` gives a basis of the
    chain maps at a level and ``is_null_homotopic`` tests one.
    """

    def __init__(self, X: RepComplex, Y: RepComplex):
        if not isinstance(X, RepComplex) or not isinstance(Y, RepComplex):
            raise ValueError("Hom needs complexes of projectives")
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
        self._levels: dict[int, tuple[int, _Blocks]] = {}
        self._columns: dict[int, list[dict[int, int | Fraction]]] = {}
        self._spans: dict[int, linalg.Echelon] = {}

    # -- levels ----------------------------------------------------------------
    def _level(self, n: int) -> tuple[int, _Blocks]:
        """The basis of level n, built once: its dimension and its blocks,
        (d, k, l) -> (offset in the level, path basis of Hom(P(u), P(v)))
        for the summands u of X^d and v of Y^{d+n}, in basis order: degree,
        then X summand, then Y summand.  A pair without paths has no block."""
        level = self._levels.get(n)
        if level is None:
            blocks: _Blocks = {}
            off = 0
            for d in sorted(self.X.proj_terms):
                y_terms = self.Y.proj_terms.get(d + n, ())
                for k, u in enumerate(self.X.proj_terms[d]):
                    for l, v in enumerate(y_terms):
                        space = _pair_space(self.a, u, v)
                        if space:
                            blocks[(d, k, l)] = (off, space)
                            off += len(space)
            level = self._levels[n] = (off, blocks)
        return level

    def level_dim(self, n: int) -> int:
        return self._level(n)[0]

    # -- boundary ------------------------------------------------------------
    def boundary_columns(self, n: int) -> list[dict[int, int | Fraction]]:
        """Sparse columns of level n -> level n+1 in the chosen bases: column
        j is {row: value} for the boundary of basis element j."""
        if n in self._columns:
            return self._columns[n]
        a = self.a
        X, Y = self.X, self.Y
        targets = self._level(n + 1)[1]
        sign = -1 if n % 2 == 0 else 1       # of the f∘dX term, -(-1)^n
        columns: list[dict[int, int | Fraction]] = []
        for (d, k, l), (_, space) in self._level(n)[1].items():
            u, v = X.proj_terms[d][k], Y.proj_terms[d + n][l]
            # the dY∘f part lands in degree d, the f∘dX part in degree d-1,
            # each target summand in its own block: every row of a column
            # is written at most once
            cols: list[dict[int, int | Fraction]] = [{} for _ in space]
            dY = Y.proj_diffs.get(d + n)
            if dY is not None:
                y_next = Y.proj_terms[d + n + 1]
                for lp, row in enumerate(dY):
                    if row[l]:
                        _scatter(cols, _compose_table_left(a, row[l], u, v, y_next[lp]),
                                 targets.get((d, k, lp)), 1)
            dX = X.proj_diffs.get(d - 1)
            if dX is not None:
                x_prev = X.proj_terms[d - 1]
                for kp, elem in enumerate(dX[k]):
                    if elem:
                        _scatter(cols, _compose_table_right(a, elem, x_prev[kp], u, v),
                                 targets.get((d - 1, kp, l)), sign)
            columns.extend(cols)
        self._columns[n] = columns
        return columns

    def _span(self, n: int) -> linalg.Echelon:
        """Echelon form of the columns of boundary level n, built once."""
        ech = self._spans.get(n)
        if ech is None:
            ech = linalg.Echelon()
            for col in self.boundary_columns(n):
                ech.add(col)
            self._spans[n] = ech
        return ech

    # -- the public quantities -------------------------------------------------
    def cycle_dim(self, n: int) -> int:
        return self.level_dim(n) - len(self._span(n))

    def image_dim_into(self, n: int) -> int:
        return len(self._span(n - 1))

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
        vecs, _ = linalg.kernel(self.boundary_columns(n))
        return [self._path_map(n, [v.get(i, ZERO) for i in range(self.level_dim(n))])
                for v in vecs]

    def _path_map(self, n: int, vec) -> PathMap:
        out: PathMap = {}
        for key, (off, space) in self._level(n)[1].items():
            elem = tuple((p, x) for p, x in zip(space, vec[off: off + len(space)]) if x)
            if elem:
                out[key] = elem
        return out

    def _path_coords(self, n: int, f: PathMap) -> tuple[Fraction, ...]:
        """Coordinates of a map given on presentations in the level basis."""
        dim, blocks = self._level(n)
        out = [ZERO] * dim
        for key, elem in f.items():
            block = blocks.get(key)
            if block is None or any(p not in block[1] for p, _ in elem):
                raise ValueError(f"component {key} is not a map in level {n} of this pair")
            off, space = block
            for p, x in elem:
                out[off + space[p]] += x
        return tuple(out)

    def is_null_homotopic(self, f: PathMap, n: int = 0) -> bool:
        """Whether the level-n map f is dY∘h + h∘dX for some degree -1
        family h, decided by membership of its coordinates in the span of
        boundary level n-1; a component of f outside the blocks of level n,
        or with a path outside its block's basis, is a ``ValueError``."""
        vec = {i: x for i, x in enumerate(self._path_coords(n, f)) if x}
        return not vec or self._span(n - 1).contains(vec)


def graded_profile(X: RepComplex, Y: RepComplex) -> GradedHomProfile:
    return HomPair(X, Y).profile()


def chain_map_dim(X: RepComplex, Y: RepComplex) -> int:
    pair = HomPair(X, Y)
    return pair.cycle_dim(0)


def _vertex_pairs(c: RepComplex) -> dict[str, HomPair]:
    """Hom(P(u), c) for every vertex u, with P(u) the stalk in degree 0."""
    a = c.a
    return {u: HomPair(RepComplex(a, {0: (u,)}, {}), c) for u in a.vertices}


def complex_json(c: RepComplex) -> dict:
    """Wire form of a complex: dimension vectors per degree and the
    vertexwise differential matrices (entries as exact rational strings),
    each summand P(v) with its paths as basis, in path-basis order."""
    pairs = _vertex_pairs(c)
    terms = {str(d): {u: k for u, p in pairs.items() if (k := p.level_dim(d))}
             for d in c.proj_terms}
    diff = {}
    for d in c.proj_diffs:
        mats = {}
        for u, p in pairs.items():
            cols = p.boundary_columns(d)
            if any(cols):
                mats[u] = [[str(col.get(i, 0)) for col in cols]
                           for i in range(p.level_dim(d + 1))]
        diff[str(d)] = mats
    return {"terms": terms, "diff": diff}


def cohomology_dims(c: RepComplex | InjectiveComplex) -> dict[int, dict[str, int]]:
    """Vertexwise cohomology dimensions in every degree of the support: of a
    complex of projectives as dim Hom(P(u), X[d]), of a Nakayama twist from
    its term dimensions and the ranks of its suffix-stripping matrices."""
    sup = c.support()
    if sup is None:
        return {}
    degrees, vertices = range(sup[0], sup[1] + 1), c.a.vertices
    if isinstance(c, RepComplex):
        pairs = _vertex_pairs(c)
        dims = {(d, u): pairs[u].hom_dim(d) for d in degrees for u in vertices}
    else:
        ranks = {(d, u): linalg.rank(_dense_rows(c.vertex_columns(d, u), c.term_dim(d + 1, u)))
                 for d in c.diffs for u in vertices}
        dims = {(d, u): c.term_dim(d, u) - ranks.get((d, u), 0) - ranks.get((d - 1, u), 0)
                for d in degrees for u in vertices}
    out: dict[int, dict[str, int]] = {}
    for d in degrees:
        res = {u: dims[d, u] for u in vertices if dims[d, u]}
        if res:
            out[d] = res
    return out


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
