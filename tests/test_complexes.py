"""Standard modules, word unfolding, shifts, the injective twist and the
projective replacement."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import rep_oracle
from gentle import (cohomology_dims, injective, iso_indecomposable, minimize,
                    nakayama_on_projectives, parse_word, perfect_replacement,
                    projective, shift, trivial_string, unfold_band, unfold_string)
from gentle.complexes import (ModuleComplex, RepComplex, _assemble_projective_complex,
                              _sum_of_projectives, _top_generators)
from gentle.exceptional import _summand_signature, enumerate_strings
from gentle.linalg import ONE, mat_eq
from gentle.presentation import InternalCheckError


def dims_of(rep):
    return {v: d for v, d in rep.dims if d}


def test_standard_modules_a2(algebras):
    a = algebras["a2"]
    assert dims_of(projective(a, "1")) == {"1": 1, "2": 1}
    assert dims_of(projective(a, "2")) == {"2": 1}
    assert dims_of(injective(a, "2")) == {"1": 1, "2": 1}
    assert dims_of(injective(a, "1")) == {"1": 1}
    assert dims_of(rep_oracle.simple(a, "1")) == {"1": 1}
    assert all(not any(x for row in rep_oracle.simple(a, "1").act(arr.name) for x in row)
               for arr in a.arrows)


def test_injective_two_matches_projective_one_a2(algebras):
    a = algebras["a2"]
    assert dims_of(injective(a, "2")) == dims_of(projective(a, "1"))


def test_unfold_single_letter_kronecker(algebras):
    a = algebras["kronecker"]
    X = unfold_string(a, parse_word(a, "a"), 0)
    assert X.support() == (-1, 0)
    assert X.proj_terms == {-1: ("2",), 0: ("1",)}
    # the differential is right multiplication by the arrow
    expected = rep_oracle.right_multiplication(a, ((a.arrow_path("a"), Fraction(1)),), "2", "1")
    assert all(mat_eq(rep_oracle.vertex_diffs(X)[-1][v], expected[v]) for v in a.vertices)


def test_unfold_square_word_dual_numbers(algebras):
    a = algebras["dual_numbers"]
    X = unfold_string(a, parse_word(a, "x, x"), 0)
    assert X.support() == (-2, 0)
    assert X.proj_terms == {-2: ("1",), -1: ("1",), 0: ("1",)}
    mult_x = rep_oracle.right_multiplication(a, ((a.arrow_path("x"), Fraction(1)),), "1", "1")
    for d in (-2, -1):
        assert all(mat_eq(rep_oracle.vertex_diffs(X)[d][v], mult_x[v]) for v in a.vertices)


def test_unfold_trivial_is_stalk(algebras):
    a = algebras["pent"]
    X = unfold_string(a, trivial_string(a, "3"), 0)
    assert X.support() == (0, 0)
    assert X.proj_terms == {0: ("3",)}


def test_unfold_band_kronecker_matches_scaled_matrix(algebras):
    a = algebras["kronecker"]
    w = parse_word(a, "band: b^-1, a")
    lam = Fraction(5, 3)
    E = unfold_band(a, w, 0, lam)
    assert E.proj_terms == {-1: ("2",), 0: ("1",)}
    expected = rep_oracle.right_multiplication(
        a, ((a.arrow_path("a"), Fraction(1)), (a.arrow_path("b"), lam)), "2", "1")
    assert all(mat_eq(rep_oracle.vertex_diffs(E)[-1][v], expected[v]) for v in a.vertices)


def test_unfold_band_pent_positions(algebras):
    a = algebras["pent"]
    E = unfold_band(a, parse_word(a, "band: d^-1, e^-1, f^-1, c, b, a"), 0, 1)
    assert len(E.shape.positions) == 6
    assert E.support() == (-3, 0)


def test_band_scalar_zero_rejected(algebras):
    a = algebras["kronecker"]
    with pytest.raises(ValueError):
        unfold_band(a, parse_word(a, "band: b^-1, a"), 0, 0)


def test_shift_conventions(algebras, acceptance_corpus):
    a = algebras["a2"]
    X = unfold_string(a, parse_word(a, "a"), 0)
    assert shift(X, 0) is X
    Y = shift(X, 1)
    assert Y.support() == (-2, -1)
    dx, dy = rep_oracle.vertex_diffs(X), rep_oracle.vertex_diffs(Y)
    assert all(mat_eq(dy[-2][v], tuple(tuple(-x for x in row) for row in dx[-1][v]))
               for v in a.vertices)
    Z = shift(Y, -1)
    assert Z.support() == X.support()
    assert all(mat_eq(rep_oracle.vertex_diffs(Z)[-1][v], dx[-1][v]) for v in a.vertices)
    # on seeded strings and a band: the vertex matrices derived for X[t] are
    # (-1)^t those of X, the dense module check accepts them, and the
    # cohomology read off the presentation is the dense cohomology
    rng = random.Random(16)
    cases = [X]
    for b in acceptance_corpus[:10]:
        strings = enumerate_strings(b, 3)
        cases += [unfold_string(b, w, 0) for w in rng.sample(strings, min(4, len(strings)))]
    k = algebras["kronecker"]
    cases.append(unfold_band(k, parse_word(k, "band: b^-1, a"), 0, 2))
    for X in cases:
        base = rep_oracle.vertex_diffs(X)
        for t in (-1, 0, 1, 2):
            Y = shift(X, t)
            assert rep_oracle.vertex_diffs(Y) == {
                d - t: {v: rep_oracle.mat_scale((-1) ** t, m) for v, m in f.items()}
                for d, f in base.items()}, (X, t)
            dense = rep_oracle.dense_complex(Y)     # raises unless morphisms with d∘d = 0
            assert cohomology_dims(Y) == rep_oracle.dense_cohomology(dense), (X, t)


def test_presentation_path_builds_no_module_matrices(algebras, monkeypatch):
    # unfolding, suspension, minimization, Hom, the combinatorial bases, the
    # isomorphism test, cohomology and the wire form read presentations
    # only: every builder of a module or of a vertex matrix refuses
    import gentle.complexes
    from gentle import HomPair, alp_basis
    from gentle.hom import complex_json

    def refuse(*args, **kwargs):
        raise AssertionError("module layer built on the presentation path")
    for name in ("_sum_of_projectives", "_block_morphism", "make_representation",
                 "projective", "check_morphism"):
        monkeypatch.setattr(gentle.complexes, name, refuse)
    for name, band, mu in (("pent", "band: d^-1, e^-1, f^-1, c, b, a", 1),
                           ("kronecker", "band: b^-1, a", 2)):
        a = algebras[name]
        strings = [unfold_string(a, w, 0) for w in enumerate_strings(a, 2)]
        bands = [unfold_band(a, parse_word(a, band), 0, mu)]
        for X in strings + bands:
            for Y in (shift(X, 1), shift(X, -2), minimize(X)):
                HomPair(X, Y).profile()
                assert iso_indecomposable(X, Y) == (Y.support() == X.support()), (X, Y)
            cohomology_dims(X)
            complex_json(X)
        for X in strings:
            for Y in strings[:6]:
                alp_basis(X, Y)
                iso_indecomposable(X, Y)


def test_unfold_with_base_index_suspends(algebras):
    a = algebras["a2"]
    X0 = unfold_string(a, parse_word(a, "a"), 0)
    X2 = unfold_string(a, parse_word(a, "a"), 2)
    assert X2.support() == (X0.support()[0] + 2, X0.support()[1] + 2)


def test_nakayama_stalk(algebras):
    a = algebras["a2"]
    X = unfold_string(a, trivial_string(a, "2"), 0)
    N = nakayama_on_projectives(X)
    assert dims_of(N.terms[0]) == dims_of(injective(a, "2"))


def test_nakayama_identity_component_stays_identity(algebras):
    a = algebras["a2"]
    triv = a.trivial_path("1")
    C = _assemble_projective_complex(
        a, {0: ("1",), 1: ("1",)}, {0: ((((triv, Fraction(1)),),),)})
    N = nakayama_on_projectives(C)
    n = N.terms[0].dim("1")
    assert N.diffs[0]["1"] == tuple(tuple(1 if i == j else 0 for j in range(n))
                                    for i in range(n))


def test_nakayama_a2_arrow_complex(algebras):
    a = algebras["a2"]
    X = unfold_string(a, parse_word(a, "a"), 0)
    N = nakayama_on_projectives(X)
    assert dims_of(N.terms[-1]) == dims_of(injective(a, "2"))
    assert dims_of(N.terms[0]) == dims_of(injective(a, "1"))
    assert cohomology_dims(N) == {-1: {"2": 1}}    # kernel is the simple at the sink


def test_nakayama_needs_presentation(algebras):
    a = algebras["a2"]
    X = unfold_string(a, parse_word(a, "a"), 0)
    bare = rep_oracle.dense_complex(X)
    with pytest.raises(ValueError):
        nakayama_on_projectives(bare)


def test_replacement_of_projective_complex_is_isomorphic(algebras):
    a = algebras["dual_numbers"]
    X = unfold_string(a, parse_word(a, "x, x"), 0)
    R = perfect_replacement(rep_oracle.dense_complex(X))
    assert iso_indecomposable(minimize(R), X)


def test_replacement_simple_at_source_a2(algebras):
    a = algebras["a2"]
    # the one-dimensional module at the source has the arrow complex as its
    # resolution: P(2) -> P(1) in degrees -1, 0
    S1 = unfold_string(a, trivial_string(a, "1"), 0)
    N = nakayama_on_projectives(S1)      # the stalk I(1), which is that simple
    R = minimize(perfect_replacement(N))
    assert R.proj_terms == {-1: ("2",), 0: ("1",)}


def test_replacement_injective_stalk_already_projective(algebras):
    a = algebras["a2"]
    P2 = unfold_string(a, trivial_string(a, "2"), 0)
    N = nakayama_on_projectives(P2)      # I(2) is isomorphic to P(1)
    R = minimize(perfect_replacement(N))
    assert R.proj_terms == {0: ("1",)}


def test_replacement_preserves_cohomology(algebras):
    for name in ["a2", "pent", "a3_relation"]:
        a = algebras[name]
        for v in a.vertices:
            X = unfold_string(a, trivial_string(a, v), 0)
            N = nakayama_on_projectives(X)
            R = perfect_replacement(N)
            assert cohomology_dims(R) == cohomology_dims(N)


def test_replacement_of_a_minimal_complex_keeps_its_summands(algebras, acceptance_corpus):
    # the cover of each degree is a projective cover, so a minimal complex of
    # projectives comes back with its own summands, without minimizing
    cases = [unfold_string(a, w, 0)
             for a in acceptance_corpus[:20] for w in enumerate_strings(a, 2)]
    k = algebras["kronecker"]
    cases.append(unfold_band(k, parse_word(k, "band: b^-1, a"), 0, 2))
    assert len(cases) == 953
    for X in cases:
        R = perfect_replacement(rep_oracle.dense_complex(X))
        assert _summand_signature(R) == _summand_signature(X), X


def test_top_generators_of_a_projective_and_a_non_closed_submodule(algebras):
    a = algebras["a2"]                  # a: 1 -> 2
    P1, zero = projective(a, "1"), _sum_of_projectives(a, ())
    assert _top_generators(a, P1, zero, {"1": [(ONE,)], "2": [(ONE,)]}) == [("1", (ONE,))]
    # the top of P(1) alone is not closed: its image under a lies outside
    with pytest.raises(InternalCheckError, match="action-closed"):
        _top_generators(a, P1, zero, {"1": [(ONE,)], "2": []})


def test_replacement_of_a_non_perfect_complex_stops(algebras):
    # the simple over the dual numbers has an infinite projective resolution
    a = algebras["dual_numbers"]
    with pytest.raises(InternalCheckError, match="did not terminate"):
        perfect_replacement(ModuleComplex(a, {0: rep_oracle.simple(a, "1")}, {}))


def test_replacement_checks_cohomology(algebras, monkeypatch):
    # a cover by no projectives at all loses the cohomology of the input
    import gentle.complexes
    monkeypatch.setattr(gentle.complexes, "_top_generators", lambda *args: [])
    a = algebras["a2"]
    with pytest.raises(InternalCheckError, match="changed cohomology"):
        perfect_replacement(rep_oracle.dense_complex(unfold_string(a, parse_word(a, "a"), 0)))


def test_unfold_string_and_inverse_isomorphic(algebras):
    a = algebras["pent"]
    for expr in ["a*f", "d, a^-1", "b"]:
        w = parse_word(a, expr)
        X = unfold_string(a, w, 0)
        Y = unfold_string(a, w.inverse(), 0)
        assert iso_indecomposable(X, Y)


def test_minimize_kills_contractible_complex(algebras):
    a = algebras["a2"]
    triv = a.trivial_path("1")
    C = _assemble_projective_complex(
        a, {0: ("1",), 1: ("1",)}, {0: ((((triv, Fraction(1)),),),)})
    M = minimize(C)
    assert M.is_zero()


def test_minimize_keeps_minimal_complex(algebras):
    a = algebras["pent"]
    X = unfold_string(a, parse_word(a, "d, a^-1"), 0)
    M = minimize(X)
    assert M.proj_terms == X.proj_terms


def test_every_construction_checks_d_squared(algebras):
    # constructors validate; exercise a mix of words on every fixture
    for a in algebras.values():
        for v in a.vertices:
            unfold_string(a, trivial_string(a, v), 0)
        for q in a.path_basis:
            if not q.is_trivial:
                from gentle.words import HomotopyLetter, make_string
                unfold_string(a, make_string(a, [HomotopyLetter(q, True)]), 0)


# --- the d∘d check on presentations against the dense check --------------------

def _verdicts(a, proj_terms, proj_diffs):
    """Whether the presentation check and the dense check of the derived
    vertex matrices accept the complex."""
    try:
        _assemble_projective_complex(a, proj_terms, proj_diffs)
        on_paths = True
    except InternalCheckError:
        on_paths = False
    try:
        rep_oracle.dense_complex(RepComplex(a, proj_terms, proj_diffs))
        dense = True
    except InternalCheckError:
        dense = False
    return on_paths, dense


def _one(p, x=1):
    return ((p, Fraction(x)),)


def test_d_squared_rejects_a_non_complex(algebras):
    # P(3) -> P(2) -> P(1) by b then a: d∘d is multiplication by ba != 0
    a = algebras["a3_hereditary"]
    pb, pa = a.arrow_path("b"), a.arrow_path("a")
    terms = {0: ("3",), 1: ("2",), 2: ("1",)}
    assert _verdicts(a, terms, {0: ((_one(pb),),), 1: ((_one(pa),),)}) == (False, False)
    with pytest.raises(InternalCheckError, match="d∘d"):
        _assemble_projective_complex(a, terms, {0: ((_one(pb),),), 1: ((_one(pa),),)})


def test_d_squared_on_paths_matches_the_dense_check(algebras, acceptance_corpus):
    # every pair of composable arrows-or-longer paths as a three-term
    # complex, and every path of length three or more split at two points into
    # a square whose signs cancel (accepted) or add up (rejected)
    seen = set()
    for a in list(algebras.values()) + acceptance_corpus:
        nontrivial = [p for p in a.path_basis if not p.is_trivial]
        for outer in nontrivial:          # P(m) -> P(z), runs z -> m
            for inner in nontrivial:      # P(x) -> P(m), runs m -> x
                if outer.target != inner.source:
                    continue
                terms = {0: (inner.target,), 1: (inner.source,), 2: (outer.source,)}
                diffs = {0: ((_one(inner),),), 1: ((_one(outer),),)}
                on_paths, dense = _verdicts(a, terms, diffs)
                assert on_paths == dense, (a, inner, outer)
                seen.add(on_paths)
        for r in nontrivial:
            for i, j in [(1, k) for k in range(2, len(r))]:
                heads = [a.make_path(r.arrows[:cut]) for cut in (i, j)]
                tails = [a.make_path(r.arrows[cut:]) for cut in (i, j)]
                terms = {0: (r.target,), 1: (heads[0].target, heads[1].target),
                         2: (r.source,)}
                for sign in (1, -1):
                    diffs = {0: ((_one(tails[0]),), (_one(tails[1], sign),)),
                             1: ((_one(heads[0]), _one(heads[1])),)}
                    on_paths, dense = _verdicts(a, terms, diffs)
                    assert on_paths == dense == (sign == -1), (a, r, i, j, sign)
    assert seen == {True, False}
