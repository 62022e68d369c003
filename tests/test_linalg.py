"""The sparse integer elimination core against the dense Fraction oracle.

Rank, kernel, span membership, solutions and reduced echelon forms are
compared exactly: the kernel basis with the identity pattern on the free
columns, the solution vanishing at the free columns and the reduced row
echelon form are unique, so the two engines must return equal values.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rep_oracle import dense_boundary, dense_nullspace, dense_rank, dense_rref, dense_solve
from gentle import (HomPair, enumerate_threads, linalg, parse_word, thread_string,
                    unfold_band, unfold_string)
from gentle.exceptional import enumerate_strings


def _exact(values) -> bool:
    """Every value an int or a Fraction: never a float (nor a bool)."""
    return all(type(x) is int or type(x) is Fraction for x in values)


def _random_matrix(rng: random.Random, m: int, n: int):
    density = rng.choice((0.0, 0.3, 0.6, 1.0))
    pool = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))
    rows = []
    for _ in range(m):
        rows.append(tuple(Fraction(rng.choice(pool)) if rng.random() < density else Fraction(0)
                          for _ in range(n)))
    if m and n and rng.random() < 0.3:          # a repeated row and a zero column
        i, j = rng.randrange(m), rng.randrange(n)
        rows[i] = rows[rng.randrange(m)]
        rows = [r[:j] + (Fraction(0),) + r[j + 1:] for r in rows]
    return tuple(rows)


def _mat_vec(a, x):
    return tuple(sum((r[j] * x[j] for j in range(len(x))), Fraction(0)) for r in a)


def _check_kernel(a, n_cols, basis, free):
    assert len(basis) == n_cols - dense_rank(a)
    for k, v in enumerate(basis):
        assert len(v) == n_cols and _exact(v)
        assert all(x == 0 for x in _mat_vec(a, v))
        assert [v[f] for f in free] == [1 if i == k else 0 for i in range(len(free))]


def test_core_matches_the_dense_oracle_on_random_matrices():
    rng = random.Random(1301)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1)] + \
        [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(240)]
    for m, n in shapes:
        a = _random_matrix(rng, m, n)
        assert linalg.rank(a) == dense_rank(a)
        basis, free = linalg.nullspace(a, n_cols=n)
        assert (basis, free) == dense_nullspace(a, n_cols=n)
        _check_kernel(a, n, basis, free)
        rows, pivots = linalg.rref(a)
        assert (rows, pivots) == dense_rref(a)
        assert all(_exact(r) for r in rows)
        # a consistent right-hand side and an arbitrary one
        x0 = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 5))) for _ in range(n))
        for b in (_mat_vec(a, x0), tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))):
            x = linalg.solve(a, b)
            assert x == dense_solve(a, b)
            if x is not None:
                assert _exact(x) and _mat_vec(a, x) == b
        # the sparse entry points on the columns
        cols = [{i: a[i][j] for i in range(m) if a[i][j]} for j in range(n)]
        sparse_basis, sparse_free = linalg.kernel(cols)
        assert sparse_free == free
        assert [tuple(v.get(j, 0) for j in range(n)) for v in sparse_basis] == basis
        assert all(_exact(v.values()) for v in sparse_basis)
        span = linalg.Echelon()
        for col in cols:
            span.add(col)
        assert len(span) == dense_rank(a)
        for b in (_mat_vec(a, x0), tuple(Fraction(rng.randint(-2, 2)) for _ in range(m))):
            assert span.contains({i: y for i, y in enumerate(b) if y}) == \
                (dense_solve(a, b) is not None)


def test_kernel_relation_is_exact_on_a_non_integral_column():
    # c1 = 2/3 * c0: the kernel vector is 1 at the free column 1 and -2/3 at 0
    basis, free = linalg.kernel([{0: 2, 1: 4}, {0: Fraction(4, 3), 1: Fraction(8, 3)}])
    assert free == [1]
    assert basis == [{0: Fraction(-2, 3), 1: Fraction(1)}]
    assert all(type(x) is Fraction for x in basis[0].values())
    assert linalg.solve(((Fraction(2),), (Fraction(4),)), (Fraction(1), Fraction(2))) == \
        (Fraction(1, 2),)


def _hom_levels_agree(X, Y, strings: bool) -> int:
    """Check every boundary level of HomPair(X, Y) against the oracle;
    returns the number of levels checked."""
    pair = HomPair(X, Y)
    lo, hi = pair.window
    checked = 0
    for n in range(lo - 1, hi + 1):
        cols = pair.boundary_columns(n)
        values = [x for col in cols for x in col.values()]
        if strings:
            assert all(type(x) is int and x in (1, -1) for x in values)
        else:
            assert all(type(x) is int or x.denominator != 1 for x in values)
        dense = dense_boundary(pair, n)
        dim = pair.level_dim(n)
        assert len(pair._span(n)) == dense_rank(dense)
        basis, free = linalg.kernel(cols)
        assert all(_exact(v.values()) for v in basis)
        dense_basis, dense_free = dense_nullspace(dense, n_cols=dim)
        assert free == dense_free
        assert [tuple(v.get(j, 0) for j in range(dim)) for v in basis] == dense_basis
        if lo <= n <= hi:
            image = dense_boundary(pair, n - 1)
            for f in pair.path_chain_maps(n):
                coords = pair._path_coords(n, f)
                assert pair.is_null_homotopic(f, n) == \
                    (dense_solve(image, coords) is not None if image else not any(coords))
        checked += 1
    return checked


@pytest.fixture(scope="module")
def hom_sample(acceptance_corpus):
    """Seeded pairs of thread and string complexes from the corpus."""
    rng = random.Random(1302)
    pairs = []
    for a in rng.sample(acceptance_corpus, 16):
        t = enumerate_threads(a)
        words = [thread_string(a, x) for x in t.permitted + t.forbidden]
        strings = enumerate_strings(a, 3)
        words += rng.sample(strings, min(6, len(strings)))
        complexes = [unfold_string(a, w, 0) for w in words]
        for _ in range(8):
            X = rng.choice(complexes)
            pairs.append((X, X))
            pairs.append((X, rng.choice(complexes)))
    return pairs


def test_hom_boundary_levels_match_the_oracle_on_strings(hom_sample):
    assert sum(_hom_levels_agree(X, Y, strings=True) for X, Y in hom_sample) > 500


@pytest.mark.parametrize("mu", [Fraction(2, 3), Fraction(-5)])
def test_hom_boundary_levels_match_the_oracle_on_bands(algebras, mu):
    for name, expr, other in [("kronecker", "band: b^-1, a", "a"),
                              ("pent", "band: d^-1, e^-1, f^-1, c, b, a", "d, a^-1")]:
        a = algebras[name]
        B = unfold_band(a, parse_word(a, expr), 0, mu)
        S = unfold_string(a, parse_word(a, other), 0)
        for X, Y in ((B, B), (B, S), (S, B)):
            _hom_levels_agree(X, Y, strings=False)
        cols = HomPair(B, B).boundary_columns(-1) + HomPair(B, B).boundary_columns(0)
        if mu.denominator != 1:         # the scalar p/q shows up as a Fraction
            assert any(type(x) is Fraction for col in cols for x in col.values())
