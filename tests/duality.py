"""The duality Hom_A(-, A): K^b(A-proj)^op -> K^b(A^op-proj), as test oracle.

It sends P(v) to P(v) over the opposite algebra, negates degrees,
transposes each differential and reverses each path of its entries.  Under
it dim Hom_A(X, Y[i]) = dim Hom_{A^op}(DY, DX[i]), computed on another
algebra by the same engine.
"""

from __future__ import annotations

from gentle.complexes import RepComplex, _assemble_projective_complex
from gentle.presentation import Arrow, GentleAlgebra, Path, Presentation, validate_gentle


def opposite(a: GentleAlgebra) -> GentleAlgebra:
    """A^op: every arrow reversed, every relation read backwards."""
    p = a.presentation
    return validate_gentle(Presentation(
        p.name + "^op", p.vertices,
        tuple(Arrow(x.name, x.target, x.source) for x in p.arrows),
        tuple((second, first) for first, second in p.relations)))


def _reverse(q: Path) -> Path:
    return Path(q.target, tuple(reversed(q.arrows)), q.source)


def dual_complex(X: RepComplex, a_op: GentleAlgebra) -> RepComplex:
    """DX over ``a_op``: (DX)^{-d} has the summands of X^d, and the entry
    from summand i of X^{d+1} to summand j of X^d is the reversed entry
    from j to i."""
    terms = {-d: vs for d, vs in X.proj_terms.items()}
    diffs = {}
    for d, rows in X.proj_diffs.items():
        diffs[-d - 1] = tuple(
            tuple(tuple((_reverse(q), x) for q, x in rows[i][j]) for i in range(len(rows)))
            for j in range(len(X.proj_terms[d])))
    return _assemble_projective_complex(a_op, terms, diffs)
