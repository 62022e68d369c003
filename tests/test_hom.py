"""The exact Hom engine: chain maps, homotopies, graded profiles, the
isomorphism test and Serre duality at the oracle level."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import rep_oracle
from conftest import fixture_text
from duality import dual_complex, opposite
from gentle import (HomPair, chain_map_dim, cohomology_dims, graded_profile,
                    iso_indecomposable, linalg, nakayama_on_projectives, minimize,
                    parse_word, perfect_replacement, shift, trivial_string,
                    unfold_band, unfold_string)
from gentle.complexes import _assemble_projective_complex
from gentle.exceptional import (_member_profile_of, default_search_bounds, enumerate_strings,
                                mouth_objects, serre_image)
from gentle.hom import complex_json
from gentle.presentation import InternalCheckError, load_algebra
from gentle.randomgen import random_gentle


def _identity(X):
    """The identity of X on its presentation."""
    return {(d, k, k): ((X.a.trivial_path(u), Fraction(1)),)
            for d, vs in X.proj_terms.items() for k, u in enumerate(vs)}


def test_identity_is_a_chain_map(algebras):
    a = algebras["pent"]
    X = unfold_string(a, parse_word(a, "d, a^-1"), 0)
    one = _identity(X)
    dense = rep_oracle.dense_chain_map(X, X, one)
    terms = rep_oracle.dense_complex(X).terms
    assert all(dense[d][v] == rep_oracle.identity(terms[d].dim(v))
               for d in X.proj_terms for v in a.vertices)
    assert rep_oracle.RepHomPair(X, X).is_chain_map(dense)
    assert not HomPair(X, X).is_null_homotopic(one)
    assert chain_map_dim(X, X) >= 1
    assert HomPair(X, X).hom_dim(0) >= 1


def test_disjoint_supports_no_maps(algebras):
    a = algebras["a2"]
    X = unfold_string(a, parse_word(a, "a"), 0)
    assert chain_map_dim(X, shift(X, 5)) == 0
    assert HomPair(X, shift(X, 5)).hom_dim(0) == 0


def test_contractible_target_everything_null_homotopic(algebras):
    # every level of the window: at level 0 the only chain map is zero, at
    # level 1 the stalk maps onto the top of the cone, through its bottom
    a = algebras["a2"]
    triv = a.trivial_path("1")
    C = _assemble_projective_complex(
        a, {0: ("1",), 1: ("1",)}, {0: ((((triv, Fraction(1)),),),)})
    X = unfold_string(a, trivial_string(a, "1"), 0)
    pair, oracle = HomPair(X, C), rep_oracle.RepHomPair(X, C)
    lo, hi = pair.window
    maps = [(n, f) for n in range(lo, hi + 1) for f in pair.path_chain_maps(n)]
    assert maps
    for n, f in maps:
        assert pair.is_null_homotopic(f, n)
        assert oracle.is_null_homotopic(rep_oracle.dense_chain_map(X, C, f, n), n)
    assert HomPair(X, C).hom_dim(0) == 0
    assert graded_profile(X, C).nonzero() == {}


def _alternating_identity_map(X):
    """Components (-1)^d e_v from each summand of X^d to the same summand
    of X^{d+1}, a chain map to the suspension on a tower of equal terms."""
    lo, hi = X.support()
    return {(d, k, k): ((X.a.trivial_path(u), Fraction(1) if d % 2 == 0 else Fraction(-1)),)
            for d in range(lo, hi) for k, u in enumerate(X.proj_terms[d])}


def test_dual_numbers_tower_map_not_null_homotopic(algebras):
    a = algebras["dual_numbers"]
    for length in (1, 2, 3):
        w = parse_word(a, ", ".join(["x"] * length))
        X = unfold_string(a, w, 0)
        f = _alternating_identity_map(X)
        pair = HomPair(X, X)
        coords = pair._path_coords(1, f)
        assert pair._path_map(1, coords) == f          # f lies in the level basis
        boundary = rep_oracle.dense_boundary(pair, 1)
        image = [sum(boundary[i][j] * coords[j] for j in range(len(coords)))
                 for i in range(len(boundary))]
        assert all(x == 0 for x in image)          # a genuine map to the suspension
        assert not pair.is_null_homotopic(f, 1)
        assert pair.hom_dim(1) >= 1
        oracle, dense = rep_oracle.RepHomPair(X, X), rep_oracle.dense_chain_map(X, X, f, 1)
        assert oracle.is_chain_map(dense, 1) and not oracle.is_null_homotopic(dense, 1)


def test_component_outside_the_level_is_a_value_error(algebras):
    # pent: Hom(P(1), P(3)) has the one basis path f then a, Hom(P(1), P(4)) none
    a = algebras["pent"]
    X = unfold_string(a, trivial_string(a, "1"), 0)
    Y = unfold_string(a, trivial_string(a, "3"), 0)
    Z = unfold_string(a, trivial_string(a, "4"), 0)
    fa = ((a.make_path(("f", "a")), Fraction(1)),)
    pair = HomPair(X, Y)
    assert not pair.is_null_homotopic({(0, 0, 0): fa})
    e3 = ((a.trivial_path("3"), Fraction(1)),)      # not a map P(1) -> P(3)
    for bad in ({(1, 0, 0): fa}, {(0, 1, 0): fa}, {(0, 0, 1): fa}, {(0, 0, 0): e3}):
        with pytest.raises(ValueError):
            pair.is_null_homotopic(bad)
    with pytest.raises(ValueError):
        pair.is_null_homotopic({(0, 0, 0): fa}, 1)     # no level-1 blocks
    with pytest.raises(ValueError):
        HomPair(X, Z).is_null_homotopic({(0, 0, 0): fa})


def test_mouth_end_dimensions(algebras):
    dn = algebras["dual_numbers"]
    stalk = unfold_string(dn, trivial_string(dn, "1"), 0)
    assert HomPair(stalk, stalk).hom_dim(0) == 2       # the stalk meets its twist
    kr = algebras["kronecker"]
    Xa = unfold_string(kr, parse_word(kr, "a"), 0)
    assert HomPair(Xa, Xa).hom_dim(0) == 1
    assert HomPair(Xa, shift(Xa, 1)).hom_dim(0) == 1   # the twist sits one step up


def test_graded_profile_band_kronecker(algebras):
    a = algebras["kronecker"]
    E = unfold_band(a, parse_word(a, "band: b^-1, a"), 0, 1)
    assert graded_profile(E, E).nonzero() == {0: 1, 1: 1}


def test_graded_profile_band_pent(algebras):
    a = algebras["pent"]
    E = unfold_band(a, parse_word(a, "band: d^-1, e^-1, f^-1, c, b, a"), 0, 1)
    prof = graded_profile(E, E)
    assert prof.dim(3) >= 1


def test_stalk_homs_are_path_spaces(algebras):
    # maps between projective stalks in degree zero only, of path-count rank
    a = algebras["pent"]
    for u in a.vertices:
        for v in a.vertices:
            X = unfold_string(a, trivial_string(a, u), 0)
            Y = unfold_string(a, trivial_string(a, v), 0)
            paths = [q for q in a.path_basis if q.source == v and q.target == u]
            prof = graded_profile(X, Y)
            assert prof.nonzero() == ({0: len(paths)} if paths else {})


def test_window_bounds_profile(algebras):
    a = algebras["pent"]
    X = unfold_string(a, parse_word(a, "d, a^-1"), 0)
    Y = unfold_string(a, parse_word(a, "b"), 0)
    prof = graded_profile(X, Y)
    sx, sy = X.support(), Y.support()
    assert prof.window == (sy[0] - sx[1], sy[1] - sx[0])


def test_iso_reflexive_and_shift_sensitive(algebras):
    a = algebras["pent"]
    X = unfold_string(a, parse_word(a, "a*f"), 0)
    assert iso_indecomposable(X, shift(X, 0))
    assert not iso_indecomposable(X, shift(X, 1))


def test_iso_rejects_different_stalks(algebras):
    a = algebras["a2"]
    P1 = unfold_string(a, trivial_string(a, "1"), 0)
    P2 = unfold_string(a, trivial_string(a, "2"), 0)
    assert not iso_indecomposable(P1, P2)


def test_hom_dims_shift_equivariant(algebras):
    a = algebras["pent"]
    X = unfold_string(a, parse_word(a, "a*f"), 0)
    Y = unfold_string(a, trivial_string(a, "1"), 0)
    for t in (-2, 1, 3):
        assert HomPair(shift(X, t), shift(Y, t)).hom_dim(0) == \
            HomPair(X, Y).hom_dim(0)
        assert chain_map_dim(shift(X, t), shift(Y, t)) == chain_map_dim(X, Y)


def test_homotopy_dim_bounded_by_chain_dim(algebras):
    a = algebras["dual_numbers"]
    X = unfold_string(a, parse_word(a, "x, x"), 0)
    assert HomPair(X, X).image_dim_into(0) <= chain_map_dim(X, X)


def test_serre_duality_on_mouth_pairs(algebras):
    # pairing dimensions: maps X -> Y match maps Y -> twist of X
    for name in ["a2", "kronecker", "pent"]:
        a = algebras[name]
        mouths = [m for m in mouth_objects(a) if not m.flagged]
        for M in mouths:
            twist = serre_image(a, M.complex)
            for N in mouths:
                assert HomPair(M.complex, N.complex).hom_dim(0) == \
                    HomPair(N.complex, twist).hom_dim(0)


def test_block_and_generic_paths_agree(algebras):
    # the module complexes of the presentations, which the reference engine
    # reads, give the same graded dimensions, and the path engine refuses
    # module complexes
    a = algebras["pent"]
    pairs = [
        (unfold_string(a, parse_word(a, "d, a^-1"), 0),
         unfold_string(a, parse_word(a, "a*f"), 0)),
        (unfold_band(a, parse_word(a, "band: d^-1, e^-1, f^-1, c, b, a"), 0, 1),
         unfold_string(a, trivial_string(a, "1"), 0)),
    ]
    for X, Y in pairs:
        bare_x, bare_y = rep_oracle.dense_complex(X), rep_oracle.dense_complex(Y)
        fast = graded_profile(X, Y)
        slow = rep_oracle.RepHomPair(bare_x, bare_y)
        assert fast.nonzero() == slow.profile()
        assert chain_map_dim(X, Y) == slow.cycle_dim(0)
        with pytest.raises(ValueError):
            graded_profile(bare_x, bare_y)


def test_path_basis_spans_projective_homs(acceptance_corpus):
    # Hom(P(u), P(v)) is spanned by right multiplication with the paths
    # v ~> u: as many as the nullspace of the commutation constraints has
    # dimensions, each inside it, independent
    from gentle import linalg, projective
    from gentle.hom import _pair_space
    for a in acceptance_corpus:
        for u in a.vertices:
            for v in a.vertices:
                pu, pv = projective(a, u), projective(a, v)
                space = rep_oracle.hom_space(a, pu, pv)
                paths = list(_pair_space(a, u, v))
                assert len(paths) == len(space.basis), (a, u, v)
                mults = [rep_oracle.right_multiplication(a, ((p, Fraction(1)),), u, v)
                         for p in paths]
                vecs = [rep_oracle.morphism_vector(a, pu, pv, f) for f in mults]
                assert all(space.coords(vec) is not None for vec in vecs), (a, u, v)
                assert not vecs or linalg.rank(tuple(vecs)) == len(vecs)


def test_composite_outside_the_path_space_is_an_internal_error(algebras):
    from gentle.hom import _compose_table_left, _compose_table_right
    a = algebras["a3_hereditary"]       # a: 1 -> 2, b: 2 -> 3
    mult_a = ((a.arrow_path("a"), Fraction(1)),)
    mult_b = ((a.arrow_path("b"), Fraction(1)),)
    # multiplication by a maps P(2) -> P(1); claimed to map into P(3), the
    # composite ba with the basis path b of Hom(P(3), P(2)) is no map P(3) -> P(3)
    with pytest.raises(InternalCheckError):
        _compose_table_left(a, mult_a, "3", "2", "3")
    # multiplication by b maps P(3) -> P(2); claimed to start at P(2), the
    # composite ba with the basis path a of Hom(P(2), P(1)) is no map P(2) -> P(1)
    with pytest.raises(InternalCheckError):
        _compose_table_right(a, mult_b, "2", "2", "1")


def test_nilpotent_endomorphism_is_not_invertible(algebras):
    # multiplication by x on the stalk P(1) over the dual numbers is not
    # null-homotopic but squares to zero; the identity is a unit
    from gentle.hom import _is_invertible_endo
    a = algebras["dual_numbers"]
    Y = unfold_string(a, trivial_string(a, "1"), 0)
    pair = HomPair(Y, Y)
    assert pair.hom_dim(0) == 2
    x = {(0, 0, 0): ((a.arrow_path("x"), Fraction(1)),)}
    one = {(0, 0, 0): ((a.trivial_path("1"), Fraction(1)),)}
    assert not _is_invertible_endo(pair, x, 2)
    assert _is_invertible_endo(pair, one, 2)


def test_iso_verdicts_match_the_dense_oracle():
    # the path-level test and the dense one agree on Serre images against
    # the string complexes with the same summand content, tops aligned, and
    # on band complexes at different scalars (equal terms and cohomology)
    import random
    from gentle.exceptional import _summand_signature, enumerate_strings
    verdicts = []
    algebras = [load_algebra(fixture_text(name)) for name in ("pent", "kronecker", "dual_numbers")]
    algebras += [random_gentle(3002, max_vertices=5), random_gentle(3005, max_vertices=5)]
    for seed, a in enumerate(algebras):
        by_signature = {}
        words = enumerate_strings(a, 3)
        for w in words:
            X = unfold_string(a, w, 0)
            by_signature.setdefault(_summand_signature(X), []).append(X)
        for i in random.Random(seed).sample(range(len(words)), min(8, len(words))):
            Y = serre_image(a, unfold_string(a, words[i], 0))
            top = max(Y.proj_terms)
            for Z in by_signature.get(_summand_signature(Y), [])[:3]:
                Yt = shift(Y, top)
                verdict = iso_indecomposable(Yt, Z)
                assert verdict == rep_oracle.iso_indecomposable(Yt, Z), (a, words[i], Z)
                verdicts.append(verdict)
    for name, expr in [("kronecker", "band: b^-1, a"),
                       ("pent", "band: d^-1, e^-1, f^-1, c, b, a")]:
        a = load_algebra(fixture_text(name))
        w = parse_word(a, expr)
        for mu in (1, 2, -1):
            for nu in (1, -1):
                X, Y = unfold_band(a, w, 0, mu), unfold_band(a, w, 0, nu)
                verdict = iso_indecomposable(X, Y)
                assert verdict == rep_oracle.iso_indecomposable(X, Y), (name, mu, nu)
                verdicts.append(verdict)
    # the two string pairs of at most 3 letters on 3002 with the same summand
    # content and different cohomology
    a = algebras[3]
    for x, y in [("b*c^-1", "e^-1"), ("b*c^-1, e, b*c^-1", "e^-1, b*c, e^-1")]:
        X, Y = unfold_string(a, parse_word(a, x), 0), unfold_string(a, parse_word(a, y), 0)
        assert _summand_signature(X) == _summand_signature(Y)
        assert cohomology_dims(X) != cohomology_dims(Y)
        for P, Q in ((X, Y), (Y, X)):
            assert not iso_indecomposable(P, Q) and not rep_oracle.iso_indecomposable(P, Q)
    assert True in verdicts and False in verdicts


def test_wire_form_and_cohomology_match_the_dense_oracle(algebras):
    # complex_json and cohomology_dims read a complex at each vertex u as
    # Hom(P(u), X); the oracle reads its dense vertex matrices
    cases = []
    for a in algebras.values():
        for w in enumerate_strings(a, 3):
            X = unfold_string(a, w, 0)
            cases += [shift(X, t) for t in (0, 1, -1, 2)]
    k = algebras["kronecker"]
    band = parse_word(k, "band: b^-1, a")
    cases += [shift(unfold_band(k, band, 0, mu), t)
              for mu in (1, 2, Fraction(-3, 2)) for t in (0, 1)]
    assert len(cases) == 286
    for X in cases:
        assert complex_json(X) == rep_oracle.dense_complex_json(X), X
        assert cohomology_dims(X) == rep_oracle.dense_cohomology(rep_oracle.dense_complex(X)), X


def test_zero_complex_homs(algebras):
    from gentle.complexes import zero_complex
    a = algebras["a2"]
    Z = zero_complex(a)
    X = unfold_string(a, parse_word(a, "a"), 0)
    assert HomPair(X, Z).hom_dim(0) == 0 and HomPair(Z, X).hom_dim(0) == 0
    assert graded_profile(Z, Z).nonzero() == {}


def test_nakayama_route_respects_hom_dims(algebras):
    a = algebras["a2"]
    X = unfold_string(a, parse_word(a, "a"), 0)
    Y = unfold_string(a, trivial_string(a, "1"), 0)
    SX = minimize(perfect_replacement(nakayama_on_projectives(X)))
    assert HomPair(X, Y).hom_dim(0) == HomPair(Y, SX).hom_dim(0)


def test_serre_duality_on_random_word_pairs(random_corpus_small):
    import random
    from gentle.exceptional import enumerate_strings
    rng = random.Random(5)
    for a in random_corpus_small[:3]:
        words = enumerate_strings(a, 3)
        sample = rng.sample(words, min(5, len(words)))
        cxs = [unfold_string(a, w, 0) for w in sample]
        twists = [serre_image(a, X) for X in cxs]
        for i, X in enumerate(cxs):
            for Y in cxs:
                assert HomPair(X, Y).hom_dim(0) == HomPair(Y, twists[i]).hom_dim(0)


def test_band_twist_is_suspension(algebras):
    # band complexes sit at mouths of one-parameter tubes: the translate
    # fixes them, so the twist is the suspension by one
    for name, expr in [("kronecker", "band: b^-1, a"),
                       ("pent", "band: d^-1, e^-1, f^-1, c, b, a")]:
        a = algebras[name]
        for mu in (1, 2):
            E = unfold_band(a, parse_word(a, expr), 0, mu)
            assert iso_indecomposable(serre_image(a, E), shift(E, 1))


def _count_rankings(monkeypatch):
    """Record every echelon form the Hom engine builds and every boundary
    level it asks for, as (pair, level)."""
    built, asked = [], []

    class Counting(linalg.Echelon):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    columns = HomPair.boundary_columns

    def recording(self, n):
        asked.append((self, n))
        return columns(self, n)

    monkeypatch.setattr(linalg, "Echelon", Counting)
    monkeypatch.setattr(HomPair, "boundary_columns", recording)
    return built, asked


def test_profile_ranks_each_boundary_level_once(algebras, monkeypatch):
    built, asked = _count_rankings(monkeypatch)
    for name, expr in [("pent", "d, a^-1"), ("pent", "band: d^-1, e^-1, f^-1, c, b, a"),
                       ("dual_numbers", "x, x, x"), ("kronecker", "a")]:
        a = algebras[name]
        w = parse_word(a, expr)
        X = unfold_band(a, w, 0, 1) if expr.startswith("band") else unfold_string(a, w, 0)
        pair = HomPair(X, X)
        lo, hi = pair.window
        before = len(built)
        profile = pair.profile()
        assert len(built) - before == hi - lo + 2        # levels lo-1 .. hi
        assert [pair.hom_dim(n) for n in range(lo, hi + 1)] == [d for _, d in profile.dims]
        assert len(built) - before == hi - lo + 2
    assert len(built) == len({(id(pair), n) for pair, n in asked})


def test_member_screen_ranks_no_level_twice(algebras, monkeypatch):
    a = algebras["pent"]
    words = enumerate_strings(a, default_search_bounds(a)[0])
    built, asked = _count_rankings(monkeypatch)
    members = [w for w in words if _member_profile_of(a, unfold_string(a, w, 0)) is not None]
    assert members and len(asked) > len(words)
    assert len(built) == len({(id(pair), n) for pair, n in asked})


def test_hom_duality_with_the_opposite_algebra(acceptance_corpus):
    # dim Hom_A(X, Y[i]) = dim Hom_{A^op}(DY, DX[i]) for every i, on string
    # complexes; bands stay out until their scalar convention under D is pinned
    rng = random.Random(1303)
    ops, strings = {}, {}
    nonzero = 0
    for _ in range(300):
        a = rng.choice(acceptance_corpus)
        if id(a) not in ops:
            ops[id(a)], strings[id(a)] = opposite(a), enumerate_strings(a, 3)
        X, Y = (unfold_string(a, rng.choice(strings[id(a)]), 0) for _ in range(2))
        lhs = graded_profile(X, Y).nonzero()
        assert lhs == graded_profile(dual_complex(Y, ops[id(a)]),
                                     dual_complex(X, ops[id(a)])).nonzero(), (a, X, Y)
        nonzero += bool(lhs)
    assert nonzero > 30
