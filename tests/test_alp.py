"""Combinatorial chain-map bases versus the linear-algebra dimension."""

from __future__ import annotations

import random

import pytest

import rep_oracle
from gentle import (HomPair, alp_basis, chain_map_dim, comb_map_to_path_map,
                    double_maps, enumerate_threads, graph_maps, load_algebra,
                    parse_word, single_maps, shift, thread_string,
                    trivial_string, unfold_string)
from gentle.exceptional import mouth_objects, serre_of_mouth
from gentle.randomgen import random_gentle


def _thread_complexes(a):
    t = enumerate_threads(a)
    return [unfold_string(a, thread_string(a, x), 0) for x in t.permitted + t.forbidden]


def test_single_map_between_pent_stalks(algebras):
    a = algebras["pent"]
    X = unfold_string(a, trivial_string(a, "1"), 0)
    Y = unfold_string(a, trivial_string(a, "3"), 0)
    singles = single_maps(X, Y)
    assert len(singles) == 1
    [(i, j, path)] = singles[0].components
    assert path.arrows == ("f", "a")
    assert not graph_maps(X, Y) and not double_maps(X, Y)


def test_dual_numbers_stalk_basis(algebras):
    a = algebras["dual_numbers"]
    X = unfold_string(a, trivial_string(a, "1"), 0)
    singles = single_maps(X, X)
    graphs = graph_maps(X, X)
    assert len(singles) == 1           # multiplication by the loop
    assert len(graphs) == 1            # the identity
    assert len(alp_basis(X, X)) == 2 == chain_map_dim(X, X)


def test_identity_graph_map_present(algebras):
    a = algebras["pent"]
    X = unfold_string(a, parse_word(a, "d, a^-1"), 0)
    graphs = graph_maps(X, X)
    full = [g for g in graphs if len(g.components) == len(X.shape.positions)
            and all(p.is_trivial for _, _, p in g.components)]
    assert len(full) == 1


def test_empty_basis_matches_zero_dimension(algebras):
    a = algebras["pent"]
    X = unfold_string(a, trivial_string(a, "1"), 0)
    Y = unfold_string(a, trivial_string(a, "4"), 0)
    assert alp_basis(X, Y) == []
    assert chain_map_dim(X, Y) == 0


def test_doubles_between_mouth_complexes_null_homotopic(algebras):
    # coupled two-component maps between maximal ideal chains die in homotopy
    found = 0
    for name in ["pent", "a3_relation", "dual_numbers"]:
        a = algebras[name]
        t = enumerate_threads(a)
        cxs = [unfold_string(a, thread_string(a, x), 0) for x in t.forbidden]
        for X in cxs:
            for Y in cxs:
                for m in double_maps(X, Y):
                    f = comb_map_to_path_map(X, Y, m)
                    dense = rep_oracle.dense_chain_map(X, Y, f)
                    assert rep_oracle.RepHomPair(X, Y).is_chain_map(dense)
                    assert HomPair(X, Y).is_null_homotopic(f)
                    found += 1
    assert found > 0


def test_graph_maps_at_most_one_between_forbidden_threads(algebras, random_corpus_small):
    for a in list(algebras.values()) + random_corpus_small[:6]:
        t = enumerate_threads(a)
        cxs = [unfold_string(a, thread_string(a, x), 0) for x in t.forbidden]
        for X in cxs:
            for Y in cxs:
                assert len(graph_maps(X, Y)) <= 1


def test_basis_counts_on_fixtures(algebras):
    for a in algebras.values():
        for X in _thread_complexes(a):
            for Y in _thread_complexes(a):
                alp_basis(X, Y)     # raises on any count mismatch


def test_basis_counts_on_random_algebras(random_corpus_small):
    for a in random_corpus_small[:6]:
        cxs = _thread_complexes(a)
        for X in cxs:
            for Y in cxs:
                alp_basis(X, Y)


def test_basis_maps_are_chain_maps(algebras, random_corpus_small):
    # every chain-map basis map of the engine and every combinatorial map,
    # expanded into module morphisms, commutes with the differentials, and
    # the engine's null-homotopy verdict on it is the dense one; thread
    # complexes, plus mixed-orientation words, whose degrees hold several
    # summands
    from gentle.exceptional import enumerate_strings
    groups = [(a, _thread_complexes(a)) for a in list(algebras.values()) + random_corpus_small[:6]]
    for name in ["pent", "a3_hereditary", "kronecker"]:
        a = algebras[name]
        groups.append((a, [unfold_string(a, w, 0) for w in enumerate_strings(a, 3)[:12]]))
    verdicts = set()
    for a, cxs in groups:
        for X in cxs:
            for Y in cxs:
                pair, oracle = HomPair(X, Y), rep_oracle.RepHomPair(X, Y)
                maps = pair.path_chain_maps(0)
                maps += [comb_map_to_path_map(X, Y, m) for m in alp_basis(X, Y)]
                for f in maps:
                    dense = rep_oracle.dense_chain_map(X, Y, f)
                    assert oracle.is_chain_map(dense), (a, X, Y, f)
                    verdict = pair.is_null_homotopic(f)
                    assert verdict == oracle.is_null_homotopic(dense), (a, X, Y, f)
                    verdicts.add(verdict)
    assert verdicts == {True, False}


def test_mouth_twist_spanned_by_sign_matched_thread(algebras):
    # the one surviving map from a mouth object to its twist is carried by
    # the permitted thread matching both boundary conditions
    a = algebras["a2"]
    tables = enumerate_threads(a)
    for M in mouth_objects(a):
        thread, s = serre_of_mouth(a, M)
        target = unfold_string(a, thread_string(a, thread), 0)
        shifted = shift(target, s)
        basis = alp_basis(M.complex, shifted)
        pair = HomPair(M.complex, shifted)
        surviving = [m for m in basis
                     if not pair.is_null_homotopic(comb_map_to_path_map(M.complex, shifted, m))]
        assert len(surviving) >= 1
        paths = [p for m in surviving for _, _, p in m.components]
        carried = []
        for p in paths:
            if p.is_trivial:
                cands = [v for v in tables.permitted
                         if v.is_trivial and v.path.source == p.source]
            else:
                cands = [v for v in tables.permitted if v.path == p]
            carried.extend(cands)
        assert carried, f"no permitted thread carries the twist map for {M}"
        assert any(h.end == M.thread.end and h.e_sign == -M.thread.e_sign
                   and h.start == thread.start and h.s_sign == -thread.s_sign
                   for h in carried)


def test_basis_counts_on_mixed_orientation_words(algebras):
    # words with both direct and inverse letters exercise the couplings
    # that only align when the target is read backwards
    for name in ["pent", "a3_hereditary", "kronecker"]:
        a = algebras[name]
        from gentle.exceptional import enumerate_strings
        words = enumerate_strings(a, 3)[:25]
        cxs = [unfold_string(a, w, 0) for w in words]
        for X in cxs:
            for Y in cxs:
                alp_basis(X, Y)


def test_basis_counts_on_mixed_words_random(random_corpus_small):
    from gentle.exceptional import enumerate_strings
    for a in random_corpus_small[:4]:
        words = enumerate_strings(a, 3)[:20]
        cxs = [unfold_string(a, w, 0) for w in words]
        for X in cxs:
            for Y in cxs:
                alp_basis(X, Y)


def test_alp_rejects_band_complexes(algebras):
    from gentle import unfold_band
    a = algebras["kronecker"]
    E = unfold_band(a, parse_word(a, "band: b^-1, a"), 0, 1)
    X = unfold_string(a, trivial_string(a, "1"), 0)
    with pytest.raises(ValueError):
        single_maps(E, X)


def test_maps_tied_on_positions_sort_by_path():
    # with a loop c at 2 and c*c = 0, two double maps from "a^-1, b^-1" to
    # "a^-1, c, c*a" share the positions 0 -> 2 and differ in the path there
    a = load_algebra("vertex 1 2 3\narrow a : 1 -> 2\narrow b : 2 -> 3\n"
                     "arrow c : 2 -> 2\nrelation b a\nrelation c c\n")
    X = unfold_string(a, parse_word(a, "a^-1, b^-1"), 0)
    Y = unfold_string(a, parse_word(a, "a^-1, c, c*a"), 0)
    doubles = double_maps(X, Y)
    assert [m.components[0][:2] for m in doubles] == [(0, 2), (0, 2)]
    assert doubles == sorted(doubles, key=lambda m: m.components)
    assert len(alp_basis(X, Y)) == chain_map_dim(X, Y) == 3


def test_basis_mirrors_under_reading_both_words_backwards(algebras, random_corpus_small):
    # inverting both words sends position i to n - i on each side, so the
    # basis of (w^-1, y^-1) is the basis of (w, y) with (i, j) -> (n_w - i, n_y - j)
    from gentle.exceptional import enumerate_strings
    rng = random.Random(2602)
    pool = [(a, enumerate_strings(a, 3)) for a in list(algebras.values()) + random_corpus_small]
    doubles = graphs = 0
    for _ in range(200):
        a, words = rng.choice(pool)
        w, y = rng.choice(words), rng.choice(words)
        n_w, n_y = len(w.letters), len(y.letters)
        basis = alp_basis(unfold_string(a, w, 0), unfold_string(a, y, 0))
        mirror = alp_basis(unfold_string(a, w.inverse(), 0), unfold_string(a, y.inverse(), 0))
        assert ({(m.kind, tuple(sorted((n_w - i, n_y - j, p) for i, j, p in m.components)))
                 for m in basis}
                == {(m.kind, tuple(sorted(m.components))) for m in mirror}), (a, w, y)
        doubles += sum(m.kind == "double" for m in basis)
        graphs += sum(m.kind == "graph" and len(m.components) > 1 for m in basis)
    assert doubles > 0 and graphs > 0
