"""Bounded complexes of projectives and their Nakayama twist.

A complex of projectives (``RepComplex``) is its projective presentation:
each term a sum of indecomposable projectives P(v), each differential
entry a rational combination of paths acting by right multiplication.
Everything reads only the presentation: the Hom engine, Gaussian
minimization, the search and the classifier, and also cohomology and the
wire form, which read X at a vertex u as Hom(P(u), X) in ``gentle.hom``.

The Nakayama twist νX is the same presentation read in injectives
(``InjectiveComplex``): each P(v) becomes I(v), and each entry acts
through the dual of its right multiplication.  Projective replacement
covers it by projectives degree by degree on sparse vectors in path
coordinates: at a vertex u, I(v) has the paths u ⇝ v as basis and P(w)
the paths w ⇝ u, both read off the one cached lookup ``_pair_space``.  No
module is built: the kernels that the replacement covers come from
``linalg.kernel`` on sparse columns, and the only matrices are the dense
rows (``_dense_rows``) that ``hom.cohomology_dims`` hands ``linalg.rank``
for the twist.

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
from .presentation import Arrow, GentleAlgebra, InternalCheckError, Path
from .words import HomotopyBand, HomotopyString, Word

# An element of e_u A e_v: rational combination of parallel paths.
AlgElem = tuple[tuple[Path, Fraction], ...]

# A vector in path coordinates: {basis index: nonzero value}.
SparseVector = dict[int, Fraction]


def _pair_space(a: GentleAlgebra, u: str, v: str) -> dict[Path, int]:
    """The paths v ⇝ u, each with its position in path-basis order.

    They are the basis of P(v) at u, and so of Hom(P(u), P(v)) (a path q
    is the image of the generator e_u), and the basis of I(u) at v.
    """
    key = ("pair_space", u, v)
    if key not in a._cache:
        paths = (q for q in a.paths_from[v] if q.target == u)
        a._cache[key] = {q: i for i, q in enumerate(paths)}
    return a._cache[key]


def _summand_space(a: GentleAlgebra, v: str, u: str, injective: bool) -> dict[Path, int]:
    """The path basis at u of I(v) (paths u ⇝ v) or of P(v) (paths v ⇝ u)."""
    return _pair_space(a, v, u) if injective else _pair_space(a, u, v)


def _dim(a: GentleAlgebra, vs: tuple[str, ...], u: str, injective: bool) -> int:
    """The dimension at u of the sum of I(v) or of P(v) over ``vs``."""
    return sum(len(_summand_space(a, v, u, injective)) for v in vs)


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

    def support(self) -> tuple[int, int] | None:
        return self._support

    def is_zero(self) -> bool:
        return self._support is None

    def __repr__(self):
        if self._support is None:
            return "RepComplex(0)"
        lo, hi = self._support
        return "RepComplex(" + "  ".join(
            f"{d}:[{'+'.join('P' + v for v in self.proj_terms.get(d, ()))}]"
            for d in range(lo, hi + 1)) + ")"


def zero_complex(a: GentleAlgebra) -> RepComplex:
    return RepComplex(a, {}, {})


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


class InjectiveComplex:
    """The Nakayama twist of a complex of projectives: its presentation
    read in injectives.

    ``terms[d]`` lists the vertices v of the summands I(v) in degree d, and
    ``diffs[d][i][j]`` is the path combination of the component from
    summand j of degree d to summand i of degree d + 1, as in
    ``RepComplex``.  A path p: w ⇝ v from I(v) to I(w) is ν of the right
    multiplication P(v) -> P(w) by p: at a vertex u it strips p off a
    basis path u ⇝ v as a suffix, and kills the paths that do not end in p.
    """

    def __init__(self, a: GentleAlgebra, terms: dict[int, tuple[str, ...]],
                 diffs: dict[int, tuple[tuple[AlgElem, ...], ...]]):
        self.a = a
        self.terms = terms
        self.diffs = diffs
        self._support = (min(terms), max(terms)) if terms else None
        self._columns: dict[tuple[int, str], list[SparseVector]] = {}

    def support(self) -> tuple[int, int] | None:
        return self._support

    def term_dim(self, d: int, u: str) -> int:
        return _dim(self.a, self.terms.get(d, ()), u, True)

    def vertex_columns(self, d: int, u: str) -> list[SparseVector]:
        """The differential from degree d at the vertex u: one sparse column
        per basis path of degree d at u, summands in order, indexed by the
        basis paths of degree d + 1 there."""
        cols = self._columns.get((d, u))
        if cols is not None:
            return cols
        a = self.a
        targets = []
        off = 0
        for w in self.terms.get(d + 1, ()):
            space = _pair_space(a, w, u)
            targets.append((off, space, w))
            off += len(space)
        rows = self.diffs.get(d, ())
        cols = []
        for j, v in enumerate(self.terms.get(d, ())):
            for q in _pair_space(a, v, u):
                col: SparseVector = {}
                for (base, space, w), row in zip(targets, rows):
                    for p, x in row[j]:
                        k = len(p.arrows)
                        if k and q.arrows[-k:] != p.arrows:
                            continue
                        i = space.get(Path(u, q.arrows[:len(q.arrows) - k], w))
                        if i is None:
                            raise InternalCheckError(f"entry {p!r} is not a map I({v}) -> I({w})")
                        col[base + i] = col.get(base + i, ZERO) + x
                cols.append({i: x for i, x in col.items() if x})
        self._columns[(d, u)] = cols
        return cols


def nakayama_on_projectives(c: RepComplex) -> InjectiveComplex:
    """The Nakayama twist of a complex of projectives: every summand P(v)
    read as I(v), every differential entry as its induced map."""
    if not isinstance(c, RepComplex):
        raise ValueError("complex does not carry a projective presentation")
    return InjectiveComplex(c.a, c.proj_terms, c.proj_diffs)


# --- projective replacement ---------------------------------------------------
#
# At degree d the replacement works in C^d ⊕ P^{d+1}, C the twist and P the
# projectives built so far.  At a vertex u a vector is sparse over the basis
# paths of its summands, those of C^d (paths u ⇝ v) before those of P^{d+1}
# (paths w ⇝ u), each summand in presentation order and path-basis order.

def _arrow_action(a: GentleAlgebra, v: str, arrow: Arrow, injective: bool) -> dict[int, int]:
    """An arrow acting on the path basis of I(v) or of P(v): the index of
    the image of each basis path at its source that it does not kill.  On
    I(v) it drops a path's first arrow, when that is the arrow; on P(v) it
    appends the arrow.  Distinct paths have distinct images."""
    key = ("arrow_action", v, arrow.name, injective)
    act = a._cache.get(key)
    if act is None:
        src = _summand_space(a, v, arrow.source, injective)
        tgt = _summand_space(a, v, arrow.target, injective)
        if injective:
            act = {i: tgt[Path(arrow.target, q.arrows[1:], v)]
                   for q, i in src.items() if q.arrows[:1] == (arrow.name,)}
        else:
            act = {i: tgt[p] for q, i in src.items()
                   if (p := a.make_path(q.arrows + (arrow.name,))) is not None}
        a._cache[key] = act
    return act


def _arrow_maps(a: GentleAlgebra, inj_vs: tuple[str, ...], proj_vs: tuple[str, ...]
                ) -> dict[str, dict[int, int]]:
    """Every arrow acting on the sum of I(v) over ``inj_vs`` and P(w) over
    ``proj_vs``, as a map of basis indices at its source to basis indices
    at its target."""
    maps = {}
    for arr in a.arrows:
        m: dict[int, int] = {}
        src = tgt = 0
        for injective, vs in ((True, inj_vs), (False, proj_vs)):
            for v in vs:
                for i, k in _arrow_action(a, v, arr, injective).items():
                    m[src + i] = tgt + k
                src += len(_summand_space(a, v, arr.source, injective))
                tgt += len(_summand_space(a, v, arr.target, injective))
        maps[arr.name] = m
    return maps


def _act(m: dict[int, int], vec: SparseVector) -> SparseVector:
    return {m[i]: x for i, x in vec.items() if i in m}


def _dense_rows(cols: list[SparseVector], n_rows: int) -> Matrix:
    """Sparse columns as the row-major matrix the dense entry points take."""
    return tuple(tuple(col.get(i, ZERO) for col in cols) for i in range(n_rows))


def _top_generators(a: GentleAlgebra, maps: dict[str, dict[int, int]],
                    W: dict[str, list[SparseVector]]) -> list[tuple[str, SparseVector]]:
    """Generators of a submodule W, one per dimension of its top.

    ``W[v]`` is a basis of W at v and ``maps`` the arrow action
    (``_arrow_maps``).  At each vertex the arrow images of W into v span
    the radical there; the basis vectors of ``W[v]`` that the echelon form
    stores after them complete a basis of W at v modulo its radical.  The
    echelon spans exactly ``W[v]`` only when W is closed under the arrows,
    which is checked.
    """
    gens = []
    for v in a.vertices:
        ech = linalg.Echelon()
        for arr in a.in_arrows[v]:
            for vec in W[arr.source]:
                ech.add(_act(maps[arr.name], vec))
        for vec in W[v]:
            if ech.add(vec) is None:
                gens.append((v, vec))
        if len(ech) != len(W[v]):
            raise InternalCheckError("submodule vectors are not action-closed")
    return gens


def perfect_replacement(c: InjectiveComplex, max_steps: int | None = None) -> RepComplex:
    """A bounded complex of projectives quasi-isomorphic to the twist ``c``.

    Built from the top degree down.  At each degree d the pairs
    W = {(c, p) in C^d ⊕ P^{d+1} : d_C c = ε p, d_P p = 0} form a submodule,
    the kernel at each vertex of (c, p) -> (d_C c - ε p, d_P p), which lands
    in the coordinates of degree d + 1: there the column of a basis path of
    P^{d+1} is its image under the generator, with the C part negated.  P^d
    is the projective cover of W: one P(v) per top generator at v
    (``_top_generators``), mapped onto W by the generator, and the image of
    each basis path of P(v) is an arrow applied to the image of its prefix.
    A surjection onto W makes the comparison a quasi-isomorphism degree by
    degree; a projective cover adds no contractible summand, so a minimal
    input comes back with its own summands.  Below the support the loop runs
    a minimal projective resolution of the remaining syzygy module, which
    terminates exactly when the input is quasi-isomorphic to a bounded
    complex of projectives; ``max_steps`` guards the loop.  Cohomology
    preservation is checked on the result, by two independent engines: the
    Hom engine on the output, ranks of the suffix-stripping matrices on the
    twist.
    """
    a = c.a
    sup = c.support()
    if sup is None:
        return zero_complex(a)
    lo, hi = sup
    if max_steps is None:
        total = sum(len(a.paths_into[v]) for vs in c.terms.values() for v in vs)
        max_steps = total + a.dim + 16

    proj_terms: dict[int, tuple[str, ...]] = {}
    proj_diffs: dict[int, tuple[tuple[AlgElem, ...], ...]] = {}
    # degree d -> vertex u -> the image in C^d ⊕ P^{d+1} of each basis path
    # of P^d at u, in the coordinates of degree d
    images: dict[int, dict[str, list[SparseVector]]] = {}

    d = hi
    steps = 0
    while True:
        steps += 1
        if steps > max_steps:
            raise InternalCheckError("projective replacement did not terminate; "
                                     "input is not equivalent to a bounded complex "
                                     "of projectives")
        C_d, P_next = c.terms.get(d, ()), proj_terms.get(d + 1, ())
        up = images.get(d + 1, {})
        W: dict[str, list[SparseVector]] = {}
        for u in a.vertices:
            n_c = c.term_dim(d + 1, u)
            cols = c.vertex_columns(d, u) + [{i: -x if i < n_c else x for i, x in img.items()}
                                             for img in up.get(u, ())]
            W[u] = linalg.kernel(cols)[0]
        if d < lo and not any(W.values()):
            break
        maps = _arrow_maps(a, C_d, P_next)
        gens = _top_generators(a, maps, W)
        at: dict[str, list[SparseVector]] = {u: [] for u in a.vertices}
        for v, gen in gens:
            # path-basis order lists every basis path after its prefixes
            by_path = {(): gen}
            for q in a.paths_from[v]:
                if q.arrows:
                    by_path[q.arrows] = _act(maps[q.arrows[-1]], by_path[q.arrows[:-1]])
                at[q.target].append(by_path[q.arrows])
        proj_terms[d] = tuple(v for v, _ in gens)
        proj_diffs[d] = _generator_entries(a, gens, C_d, P_next)
        images[d] = at
        d -= 1

    from .hom import cohomology_dims     # imported here: hom imports this module
    out = _assemble_projective_complex(a, proj_terms, proj_diffs)
    if cohomology_dims(out) != cohomology_dims(c):
        raise InternalCheckError("replacement changed cohomology dimensions")
    return out


def _generator_entries(a: GentleAlgebra, gens: list[tuple[str, SparseVector]],
                       inj_vs: tuple[str, ...], tgt_vs: tuple[str, ...]
                       ) -> tuple[tuple[AlgElem, ...], ...]:
    """Differential entries from the cover summands to the summands
    ``tgt_vs`` one degree up, read off the P part of each generator: at its
    vertex v, after the C part, the coordinates of each target summand P(u)
    are those of its basis paths u ⇝ v."""
    rows: list[list[AlgElem]] = [[() for _ in gens] for _ in tgt_vs]
    for j, (v, gen) in enumerate(gens):
        off = _dim(a, inj_vs, v, True)
        for i, u in enumerate(tgt_vs):
            space = _pair_space(a, v, u)
            rows[i][j] = tuple((q, x) for q, k in space.items() if (x := gen.get(off + k)))
            off += len(space)
    return tuple(tuple(r) for r in rows)


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
