"""Exact linear algebra over the rationals, on one sparse elimination core.

A sparse vector is a dict {index: value} of its nonzero entries.  Values
are Python ints, or ``Fraction``s where a rational coefficient puts one
there (a band scalar p/q, a coefficient of a differential entry).  ``Echelon`` is the
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

The Hom complex of ``gentle.hom`` and projective replacement feed sparse
vectors to the core directly, through ``Echelon`` and ``kernel``.  The
dense entry points ``rank``, ``nullspace``, ``solve`` and ``rref`` take
row-major matrices (tuples of rows of ``Fraction``) and are thin adapters
over the same core: ``rank`` adds the rows to an ``Echelon``, the other
three read their results off ``kernel`` of the columns.  They are kept
because the tests and the benchmark's layer tracer (``bench/tracer.py``)
name them; the package's only dense call is ``rank`` in
``hom.cohomology_dims``, on the vertexwise differentials of the Nakayama
twist.
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
        c = {label: s} if self._track else None
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

def _columns(a, n: int) -> list[dict[int, Fraction]]:
    """The n columns of a dense matrix, sparse."""
    cols: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return cols


def rank(a: Matrix) -> int:
    """Rank of a dense matrix: the rows added to an ``Echelon``."""
    ech = Echelon()
    for row in a:
        ech.add(dict(enumerate(row)))
    return len(ech)


def nullspace(a: Matrix, n_cols: int | None = None) -> tuple[list[Vector], list[int]]:
    """Basis of the right kernel of ``a``, dense, and its free columns, read
    off ``kernel`` of the columns: basis vector k is 1 at free[k] and 0 at
    the other free columns."""
    if n_cols is None:
        n_cols = len(a[0]) if a else 0
    basis, free = kernel(_columns(a, n_cols))
    return [tuple(v.get(j, ZERO) for j in range(n_cols)) for v in basis], free


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None if inconsistent: minus the kernel
    vector of (a | b) that is 1 at b's column, so its entries at the
    columns dependent on earlier ones are 0."""
    n = len(a[0]) if a else 0
    basis, free = kernel(_columns([tuple(r) + (y,) for r, y in zip(a, b)], n + 1))
    if not free or free[-1] != n:
        return None
    return tuple(-basis[-1].get(j, ZERO) for j in range(n))


def rref(a: Matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    All ``len(a)`` rows are returned, the pivot rows first, in pivot order,
    then zero rows.  The pivots are the independent columns; at a dependent
    column j the entries are minus the pivot entries of the kernel vector
    that is 1 at j."""
    n = len(a[0]) if a else 0
    basis, free = kernel(_columns(a, n))
    dependent = set(free)
    slot = {p: k for k, p in enumerate(j for j in range(n) if j not in dependent)}
    rows = [[ZERO] * n for _ in a]
    for p, k in slot.items():
        rows[k][p] = ONE
    for j, v in zip(free, basis):
        for p, x in v.items():
            if p != j:
                rows[slot[p]][j] = -x
    return rows, list(slot)
