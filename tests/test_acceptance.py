"""Acceptance criteria.

Every criterion runs at its stated tolerance (exact equality throughout;
the quantities are dimensions and certified isomorphisms) and prints one
verdict line.  The random corpora are seed-fixed in conftest: fifty
algebras on up to six vertices for the Hom-table, basis-count, invariant
and orthogonality criteria, ten on up to five vertices (line-of-three
shapes excluded) for the search comparison.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction

import rep_oracle
from conftest import fixture_text

from gentle import (aag_cycles, ag_invariants, alp_basis, brute_force_search,
                    chain_map_dim, check_band_spherical,
                    classify_exceptional_cycles, cohomology_dims, cycle_equiv,
                    enumerate_sign_assignments, enumerate_threads,
                    graded_profile, graph_maps, load_algebra,
                    mouth_objects, nakayama_on_projectives, parse_word,
                    perfect_replacement, serre_of_mouth, shift, thread_string,
                    trivial_string, unfold_band, unfold_string, with_signs)
from gentle.hom import HomPair

TABLE_FIXTURES = ["a2", "kronecker", "a3_hereditary", "a3_relation", "pent"]


def _report(criterion: str) -> None:
    print(f"[{criterion}] PASS")


def _hom_table_holds(a) -> None:
    mouths = mouth_objects(a)
    assert not any(m.flagged for m in mouths), f"flagged mouth objects in {a}"
    serre = {i: serre_of_mouth(a, m) for i, m in enumerate(mouths)}
    for i, M in enumerate(mouths):
        target_thread, target_shift = serre[i]
        for j, N in enumerate(mouths):
            prof = graded_profile(M.complex, N.complex)
            lo, hi = prof.window
            for t in range(lo, hi + 1):
                same = (i == j and t == 0)
                twist = (N.thread == target_thread and t == target_shift)
                expected = 2 if (same and twist) else (1 if (same or twist) else 0)
                assert prof.dim(t) == expected, (
                    f"{a}: pair {M.thread.label()} -> {N.thread.label()}[{t}] "
                    f"has dimension {prof.dim(t)}, table says {expected}")


def test_criterion_1_hom_table(algebras, acceptance_corpus):
    for name in TABLE_FIXTURES:
        _hom_table_holds(algebras[name])
    for a in acceptance_corpus:
        _hom_table_holds(a)
    _report("criterion 1: mouth Hom table (2/1/0, twist branch by Serre scan)")


def _basis_counts_hold(a) -> None:
    tables = enumerate_threads(a)
    threads = tables.permitted + tables.forbidden
    cxs = [unfold_string(a, thread_string(a, t), 0) for t in threads]
    n_forbidden = len(tables.permitted)
    for X in cxs:
        for Y in cxs:
            alp_basis(X, Y)       # hard failure inside on any count mismatch
    forb = cxs[n_forbidden:]
    for X in forb:
        for Y in forb:
            assert len(graph_maps(X, Y)) <= 1


def test_criterion_2_combinatorial_basis(algebras, acceptance_corpus):
    for name in TABLE_FIXTURES:
        _basis_counts_hold(algebras[name])
    for a in acceptance_corpus:
        _basis_counts_hold(a)
    _report("criterion 2: combinatorial basis count = chain-map dimension")


def test_criterion_3_dual_numbers(algebras):
    a = algebras["dual_numbers"]
    assert sorted((o.n, o.m) for o in ag_invariants(a)) == [(1, 0)]
    cycles = classify_exceptional_cycles(a)
    assert len(cycles) == 1
    [c] = cycles
    assert c.n == 1 and c.calabi_yau == 0
    word, s = c.entries[0]
    assert word.is_trivial and s == 0
    for length in (1, 2, 3):
        X = unfold_string(a, parse_word(a, ", ".join(["x"] * length)), 0)
        # the identity of P(1) with sign (-1)^d from each degree to the next
        lo, hi = X.support()
        f = {(d, 0, 0): ((a.trivial_path("1"), Fraction(1) if d % 2 == 0 else Fraction(-1)),)
             for d in range(lo, hi)}
        pair = HomPair(X, X)
        coords = pair._path_coords(1, f)
        assert pair._path_map(1, coords) == f
        boundary = rep_oracle.dense_boundary(pair, 1)
        assert all(sum(row[k] * coords[k] for k in range(len(coords))) == 0
                   for row in boundary)
        assert not pair.is_null_homotopic(f, 1), f"tower of height {length}"
        dense = rep_oracle.dense_chain_map(X, X, f, 1)
        oracle = rep_oracle.RepHomPair(X, X)
        assert oracle.is_chain_map(dense, 1) and not oracle.is_null_homotopic(dense, 1)
    _report("criterion 3: loop-algebra fixture (AG (1,0), stalk cycle, "
            "non-null tower maps)")


def test_criterion_4_band_fixtures(algebras):
    kr = algebras["kronecker"]
    w = parse_word(kr, "band: b^-1, a")
    for lam in (1, 2, -3):
        ok, prof = check_band_spherical(kr, w, lam)
        assert ok and prof.nonzero() == {0: 1, 1: 1}, lam
    pent = algebras["pent"]
    v = parse_word(pent, "band: d^-1, e^-1, f^-1, c, b, a")
    ok, prof = check_band_spherical(pent, v, 1)
    assert not ok and prof.dim(3) >= 1
    _report("criterion 4: band fixtures (two-arrow band spherical, "
            "six-letter band obstructed at twist three)")


def _search_matches_classifier(a) -> None:
    found = brute_force_search(a)
    expected = classify_exceptional_cycles(a)
    assert len(found) == len(expected), (a, found, expected)
    for c in expected:
        assert any(cycle_equiv(c, f) for f in found), (a, c)


def test_criterion_5_search_vs_classifier(algebras, search_corpus):
    _search_matches_classifier(algebras["pent"])
    for a in search_corpus:
        _search_matches_classifier(a)
    for name in ["a3_relation", "a3_hereditary"]:
        found = brute_force_search(algebras[name])
        assert sorted(c.n for c in found) == [2, 4], name
    _report("criterion 5: bounded search reproduces the classifier")


def test_criterion_6_walk_orbit_agreement(algebras, acceptance_corpus):
    # ag_invariants raises internally when the Serre orbit disagrees with
    # the thread walk; the multisets are also compared here explicitly
    for a in list(algebras.values()) + acceptance_corpus:
        orbit_pairs = sorted((o.n, o.m) for o in ag_invariants(a))
        walk_pairs = sorted((c.n, c.m) for c in aag_cycles(enumerate_threads(a)))
        assert orbit_pairs == walk_pairs
    assert sorted((o.n, o.m) for o in ag_invariants(algebras["a2"])) == [(3, 1)]
    assert sorted((o.n, o.m) for o in ag_invariants(algebras["kronecker"])) == [(1, 1), (1, 1)]
    assert sorted((o.n, o.m) for o in ag_invariants(algebras["pent"])) == [(4, 0)]
    _report("criterion 6: walk pairs equal Serre-orbit pairs")


def test_criterion_7_orthogonality(algebras, acceptance_corpus):
    for a in list(algebras.values()) + acceptance_corpus:
        if len(a.vertices) == 1 and not a.arrows:
            continue
        orbits = ag_invariants(a)
        mouths = {m.thread: m for m in mouth_objects(a)}
        for x, ox in enumerate(orbits):
            for y, oy in enumerate(orbits):
                if x == y:
                    continue
                for t1 in ox.threads():
                    for t2 in oy.threads():
                        prof = graded_profile(mouths[t1].complex, mouths[t2].complex)
                        assert prof.nonzero() == {}, (a, t1, t2, prof)
    _report("criterion 7: mouths in distinct components have zero graded maps")


def test_criterion_8_robustness(algebras, acceptance_corpus):
    # (a) sign-assignment independence of threads, orbit pairs, cycles
    for name, a in algebras.items():
        pairs0 = sorted((c.n, c.m) for c in aag_cycles(enumerate_threads(a)))
        cycles0 = classify_exceptional_cycles(a)
        for signs in enumerate_sign_assignments(a)[:8]:
            b = with_signs(a, signs)
            assert sorted((c.n, c.m) for c in aag_cycles(enumerate_threads(b))) == pairs0
            cyc = classify_exceptional_cycles(b)
            assert len(cyc) == len(cycles0)
            for c in cycles0:
                assert any(cycle_equiv(c, d) for d in cyc), (name, c)
    for a in acceptance_corpus[:10]:
        pairs0 = sorted((c.n, c.m) for c in aag_cycles(enumerate_threads(a)))
        for signs in enumerate_sign_assignments(a)[:4]:
            b = with_signs(a, signs)
            assert sorted((c.n, c.m) for c in aag_cycles(enumerate_threads(b))) == pairs0

    # (b) suspension equivariance of Hom dimensions
    pent = algebras["pent"]
    X = unfold_string(pent, parse_word(pent, "a*f"), 0)
    Y = unfold_string(pent, trivial_string(pent, "1"), 0)
    base = (chain_map_dim(X, Y), HomPair(X, Y).hom_dim(0))
    for t in (-3, -1, 2):
        assert (chain_map_dim(shift(X, t), shift(Y, t)),
                HomPair(shift(X, t), shift(Y, t)).hom_dim(0)) == base

    # (c) complexes validate their differentials on construction, and the
    # replacement preserves cohomology (both also assert internally)
    for a in acceptance_corpus[:10]:
        for m in mouth_objects(a)[:3]:
            N = nakayama_on_projectives(m.complex)
            R = perfect_replacement(N)
            assert cohomology_dims(R) == cohomology_dims(N)
    kr = algebras["kronecker"]
    unfold_band(kr, parse_word(kr, "band: b^-1, a"), 2, Fraction(7, 2))

    # (d) byte-identical reruns of the command line
    import os
    fixture_dir = os.path.join(os.path.dirname(__file__), "..", "fixtures")

    def run(*args):
        return subprocess.run([sys.executable, "-m", "gentle.cli", *args],
                              capture_output=True, text=True).stdout
    for args in (("threads", os.path.join(fixture_dir, "pent.gentle"), "--json"),
                 ("cycles", os.path.join(fixture_dir, "a3_relation.gentle"), "--json")):
        assert run(*args) == run(*args)
    _report("criterion 8: robustness (signs, suspension, differentials, reruns)")
