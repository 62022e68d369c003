"""Mouth objects, Serre orbits, the classifier, certificates and search."""

from __future__ import annotations

import random

import pytest

from conftest import fixture_text
from gentle import (ExceptionalCycle, InternalCheckError, ag_invariants,
                    brute_force_search, check_band_spherical, classify_exceptional_cycles,
                    cycle_equiv, exceptional, graded_profile, load_algebra,
                    mouth_objects, parse_word, serre_of_mouth, thread_string,
                    trivial_string, unfold_string, verify_cycle, word_key)
from gentle.complexes import (minimize, nakayama_on_projectives,
                              perfect_replacement, shift)
from gentle.exceptional import (_summand_signature, default_search_bounds,
                                enumerate_strings, identify_shift, serre_image)
from gentle.hom import iso_indecomposable
from gentle.randomgen import random_gentle


def _mouth_by_label(a, label):
    return next(m for m in mouth_objects(a) if m.thread.label() == label)


def test_mouth_objects_fixtures(algebras):
    assert [m.thread.label() for m in mouth_objects(algebras["dual_numbers"])] == ["triv:1"]
    assert sorted(m.thread.label() for m in mouth_objects(algebras["kronecker"])) == ["a", "b"]
    assert sorted(m.thread.label() for m in mouth_objects(algebras["pent"])) == [
        "triv:1", "triv:2", "triv:3", "triv:4"]
    for name in ["dual_numbers", "kronecker", "pent", "a2"]:
        assert not any(m.flagged for m in mouth_objects(algebras[name]))


def test_serre_of_mouth_a2(algebras):
    a = algebras["a2"]
    t, s = serre_of_mouth(a, _mouth_by_label(a, "triv:2"))
    assert (t.label(), s) == ("triv:1", 0)
    t, s = serre_of_mouth(a, _mouth_by_label(a, "a"))
    assert (t.label(), s) == ("triv:2", 1)
    t, s = serre_of_mouth(a, _mouth_by_label(a, "triv:1"))
    assert (t.label(), s) == ("a", 0)


def test_serre_of_mouth_kronecker_and_dual(algebras):
    kr = algebras["kronecker"]
    t, s = serre_of_mouth(kr, _mouth_by_label(kr, "a"))
    assert (t.label(), s) == ("a", 1)
    dn = algebras["dual_numbers"]
    m = _mouth_by_label(dn, "triv:1")
    assert m.end_dim == 2
    assert serre_of_mouth(dn, m) == (m.thread, 0)


def test_ag_invariants_fixtures(algebras):
    expect = {"dual_numbers": [(1, 0)], "a2": [(3, 1)], "pent": [(4, 0)],
              "kronecker": [(1, 1), (1, 1)]}
    for name, pairs in expect.items():
        got = sorted((o.n, o.m) for o in ag_invariants(algebras[name]))
        assert got == pairs, (name, got)


def test_ag_requires_arrows():
    k = load_algebra("vertex 1\n")
    with pytest.raises(ValueError):
        ag_invariants(k)


def test_classifier_dual_numbers(algebras):
    cycles = classify_exceptional_cycles(algebras["dual_numbers"])
    assert len(cycles) == 1
    [c] = cycles
    assert c.n == 1 and c.calabi_yau == 0
    w, s = c.entries[0]
    assert w.is_trivial and s == 0
    assert all(x.n == 1 for x in cycles)     # nothing longer exists


def test_classifier_pent(algebras):
    cycles = classify_exceptional_cycles(algebras["pent"])
    assert len(cycles) == 1
    [c] = cycles
    assert c.n == 4
    assert all(w.is_trivial for w, _ in c.entries)
    assert c.certificate.ok()
    assert sum(c.certificate.shifts) == 0 - 4 + 4     # total twist = m - n + n


def test_classifier_kronecker(algebras):
    cycles = classify_exceptional_cycles(algebras["kronecker"])
    assert sorted(c.n for c in cycles) == [1, 1]
    assert all(c.calabi_yau == 1 for c in cycles)


def test_classifier_ground_field():
    k = load_algebra("vertex 1\n")
    cycles = classify_exceptional_cycles(k)
    assert len(cycles) == 1 and cycles[0].n == 2
    assert cycles[0].certificate.ok()
    w1, w2 = (w for w, _ in cycles[0].entries)
    assert w1 == w2


def test_classifier_a3_shapes(algebras):
    for name in ["a3_relation", "a3_hereditary"]:
        cycles = classify_exceptional_cycles(algebras[name])
        assert sorted(c.n for c in cycles) == [2, 4], name
        assert all(c.certificate.ok() for c in cycles)


def test_verify_kronecker_band_is_one_cycle(algebras):
    a = algebras["kronecker"]
    w = parse_word(a, "band: b^-1, a")
    cert = verify_cycle(a, [(w, 0)])
    assert cert.ok() and cert.calabi_yau == 1


def test_verify_pent_band_fails(algebras):
    a = algebras["pent"]
    w = parse_word(a, "band: d^-1, e^-1, f^-1, c, b, a")
    cert = verify_cycle(a, [(w, 0)])
    assert not cert.e1
    ok, prof = check_band_spherical(a, w, 1)
    assert not ok and prof.dim(3) >= 1


def test_band_spherical_kronecker_scalars(algebras):
    a = algebras["kronecker"]
    w = parse_word(a, "band: b^-1, a")
    for lam in (1, 2, -3):
        ok, prof = check_band_spherical(a, w, lam)
        assert ok and prof.nonzero() == {0: 1, 1: 1}
    with pytest.raises(ValueError):
        check_band_spherical(a, w, 0)


def test_repeated_entry_pair_never_certifies(algebras):
    # a pair (E, E) cannot certify away from the ground field: the twist
    # class forces an extra graded endomorphism that violates the rank-one
    # condition
    kr = algebras["kronecker"]
    w = parse_word(kr, "a")
    cert = verify_cycle(kr, [(w, 0), (w, 0)])
    assert not cert.ok() and not cert.e1
    dn = algebras["dual_numbers"]
    t = trivial_string(dn, "1")
    cert = verify_cycle(dn, [(t, 0), (t, 0)])
    assert not cert.e1


def test_dropping_an_entry_breaks_the_links(algebras):
    a = algebras["pent"]
    [c] = classify_exceptional_cycles(a)
    entries = list(c.entries)
    shorter = entries[:-1]
    cert = verify_cycle(a, shorter)
    assert not cert.e2


def test_search_matches_classifier_on_fixtures(algebras):
    for name in ["pent", "kronecker", "dual_numbers", "a2"]:
        a = algebras[name]
        found = brute_force_search(a)
        expected = classify_exceptional_cycles(a)
        assert len(found) == len(expected), name
        for c in expected:
            assert any(cycle_equiv(c, f) for f in found), (name, c)


def test_search_a3_fixtures(algebras):
    # the paper's A3 exception: besides the mouth 4-cycle of the AG orbit
    # (4, 2), the search finds one 2-cycle whose entries are not at the mouth
    off_mouth = {"a3_hereditary": ("b*a^-1", "triv:2:+1"), "a3_relation": ("a^-1", "b^-1")}
    for name, pair in off_mouth.items():
        a = algebras[name]
        assert [(o.n, o.m) for o in ag_invariants(a)] == [(4, 2)], name
        mouth = {word_key(m.word) for m in mouth_objects(a)}
        found = brute_force_search(a)
        assert sorted(c.n for c in found) == [2, 4], name
        [four] = [c for c in found if c.n == 4]
        [two] = [c for c in found if c.n == 2]
        assert all(word_key(w) in mouth for w, _ in four.entries), (name, four)
        keys = [word_key(w) for w, _ in two.entries]
        assert keys == [word_key(parse_word(a, expr)) for expr in pair], (name, two)
        assert not mouth & set(keys), (name, two)


def test_search_dual_numbers_only_the_stalk(algebras):
    found = brute_force_search(algebras["dual_numbers"])
    assert len(found) == 1 and found[0].n == 1
    w, _ = found[0].entries[0]
    assert w.is_trivial


def test_cycle_equiv_rotation_shift_length(algebras):
    a = algebras["pent"]
    [c] = classify_exceptional_cycles(a)
    rot = ExceptionalCycle(c.entries[1:] + c.entries[:1], c.certificate)
    assert cycle_equiv(c, rot)
    shifted = ExceptionalCycle(tuple((w, s + 5) for w, s in c.entries), c.certificate)
    assert cycle_equiv(c, shifted)
    short = ExceptionalCycle(c.entries[:2], c.certificate)
    assert not cycle_equiv(c, short)


def test_no_repeated_pair_cycles_off_ground_field(algebras):
    for name, a in algebras.items():
        for c in classify_exceptional_cycles(a):
            if c.n == 2:
                k1, k2 = (word_key(w) for w, _ in c.entries)
                assert k1 != k2, name


def test_orthogonality_between_orbits(algebras):
    from gentle import graded_profile
    a = algebras["kronecker"]
    orbits = ag_invariants(a)
    assert len(orbits) == 2
    mouths = {m.thread: m for m in mouth_objects(a)}
    X = mouths[orbits[0].members[0][0]].complex
    Y = mouths[orbits[1].members[0][0]].complex
    assert graded_profile(X, Y).nonzero() == {}
    assert graded_profile(Y, X).nonzero() == {}


def test_ag_invariants_stable_under_relabeling(algebras):
    # permuting vertex and arrow names must not move the orbit pairs
    relabeled = """
    algebra pent_relabeled
    vertex q4 q0 q3 q1 q2
    arrow z2 : q2 -> q0
    arrow z1 : q1 -> q2
    arrow z0 : q0 -> q1
    arrow z5 : q3 -> q0
    arrow z4 : q4 -> q3
    arrow z3 : q0 -> q4
    relation z1 z0
    relation z2 z1
    relation z0 z2
    relation z4 z3
    relation z5 z4
    relation z3 z5
    """
    b = load_algebra(relabeled)
    orig = sorted((o.n, o.m) for o in ag_invariants(algebras["pent"]))
    assert sorted((o.n, o.m) for o in ag_invariants(b)) == orig


def test_long_cycle_members_are_noncritical_mouths(algebras):
    # away from the line-of-three shape, every entry of a longer cycle is
    # the complex of a non-critical forbidden thread
    from gentle import enumerate_threads, canonical_string
    for name in ["pent", "a2", "kronecker", "dual_numbers"]:
        a = algebras[name]
        tables = enumerate_threads(a)
        mouth_keys = {canonical_string(thread_string(a, t))
                      for t in tables.noncritical_forbidden()}
        for c in classify_exceptional_cycles(a):
            if c.n >= 2:
                for w, _ in c.entries:
                    assert canonical_string(w) in mouth_keys


def test_default_bounds_cover_threads(algebras, random_corpus_small):
    # the letter bound clears the longest forbidden thread by a margin
    # whenever a margin of one fits the string budget; otherwise it is the
    # floor, the longest forbidden thread (at least one letter), which
    # random_gentle(510) reaches with 4 against 4; every mouth complex fits
    from itertools import islice
    from gentle import enumerate_threads
    from gentle.exceptional import SEARCH_WORD_BUDGET, _iter_strings
    floor_case = random_gentle(510, max_vertices=8)
    for a in list(algebras.values()) + random_corpus_small + [floor_case]:
        max_letters, window = default_search_bounds(a)
        longest = max((t.length for t in enumerate_threads(a).forbidden), default=0)
        floor = max(longest, 1)
        counted = sum(1 for _ in islice(_iter_strings(a, floor + 1), SEARCH_WORD_BUDGET + 1))
        if counted <= SEARCH_WORD_BUDGET:
            assert max_letters > longest, a
            assert max_letters in (floor + 1, max(floor + 2, 3)), a
        else:
            assert max_letters == floor, a
        assert window >= 2
    assert (max_letters, longest) == (4, 4) and counted > SEARCH_WORD_BUDGET


def test_member_profile_is_none_off_the_member_patterns(algebras):
    # the member screen returns the self-Hom profile exactly for the member
    # patterns and None otherwise; the search funnel counts the non-None
    a = algebras["pent"]
    seen = set()
    for w in enumerate_strings(a, 3):
        X = unfold_string(a, w, 0)
        prof = graded_profile(X, X).nonzero()
        fits = prof in ({0: 1}, {0: 2}) or (len(prof) == 2 and set(prof.values()) == {1})
        assert exceptional._member_profile_of(a, X) == (prof if fits else None), w
        seen.add(fits)
    assert seen == {True, False}


def test_search_certifies_each_cycle_once(algebras, search_corpus, monkeypatch):
    # a closed chain that is a rotation of a chain already certified is not
    # certified again, whether that certificate passed or failed: every
    # passing certificate is one cycle of the result, kept in the rotation
    # that was certified
    failures = 0
    for a in (algebras["pent"], search_corpus[3]):
        calls = []

        def counting(a, entries, verify=exceptional.verify_cycle):
            cert = verify(a, entries)
            calls.append((tuple(entries), cert.ok()))
            return cert
        monkeypatch.setattr(exceptional, "verify_cycle", counting)
        found = brute_force_search(a)
        monkeypatch.undo()
        passed = [entries for entries, ok in calls if ok]
        assert len(passed) == len(found) and {c.entries for c in found} == set(passed)
        for k, (entries, _) in enumerate(calls):
            candidate = ExceptionalCycle(entries, None)
            assert not any(cycle_equiv(candidate, ExceptionalCycle(earlier, None))
                           for earlier, _ in calls[:k]), (a, entries)
        failures += len(calls) - len(passed)
    assert failures > 0


# --- the Serre-image and isomorphism memo against the uncached engine -----------

def _memo_algebras():
    """Fresh algebras, so the memo starts empty: pent, the Kronecker quiver
    (whose arrows give complexes with equal terms and different
    differentials) and two random algebras."""
    return [load_algebra(fixture_text("pent")), load_algebra(fixture_text("kronecker")),
            random_gentle(3002, max_vertices=5), random_gentle(3005, max_vertices=5)]


def _sample_complexes(a, count, seed):
    """Seeded string complexes plus every complex that shares its summand
    content with another one, and the complexes by summand content."""
    words = enumerate_strings(a, 3)
    by_signature = {}
    for w in words:
        X = unfold_string(a, w, 0)
        by_signature.setdefault(_summand_signature(X), []).append(X)
    picked = random.Random(seed).sample(range(len(words)), min(count, len(words)))
    sample = [unfold_string(a, words[i], 0) for i in picked]
    sample += [X for group in by_signature.values() if len(group) > 1 for X in group]
    return sample, by_signature


def _top(c):
    return max(d for d, vs in c.proj_terms.items() if vs)


def _counting(monkeypatch, name, fn):
    """Count the calls the memo makes to ``exceptional.<name>``."""
    calls = []
    monkeypatch.setattr(exceptional, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_serre_memo_matches_uncached_engine(monkeypatch):
    for seed, a in enumerate(_memo_algebras()):
        for X in _sample_complexes(a, 3, seed)[0]:
            serre_image(a, X)
            calls = _counting(monkeypatch, "perfect_replacement", perfect_replacement)
            for t in range(-3, 4):
                Xt = shift(X, t)
                ref = minimize(perfect_replacement(nakayama_on_projectives(Xt)))
                assert iso_indecomposable(serre_image(a, Xt), ref), (a, X, t)
            monkeypatch.undo()
            assert calls == [], "a suspension of a known complex re-ran the replacement"


def test_identify_shift_memo_matches_uncached_engine(monkeypatch):
    verdicts = []
    for seed, a in enumerate(_memo_algebras()):
        sample, by_signature = _sample_complexes(a, 3, seed + 10)
        for X in sample:
            Y = serre_image(a, X)
            for Z in by_signature.get(_summand_signature(Y), [])[:2] + [X]:
                identify_shift(a, Y, Z)
                calls = _counting(monkeypatch, "iso_indecomposable", iso_indecomposable)
                for t in range(-3, 4):
                    Yt, Zt = shift(Y, t), shift(Z, (t * 5) % 3)
                    s = _top(Zt) - _top(Yt)
                    ref = s if iso_indecomposable(Yt, shift(Zt, s)) else None
                    assert identify_shift(a, Yt, Zt) == ref, (a, X, Z, t)
                    verdicts.append(ref)
                monkeypatch.undo()
                assert calls == [], "suspensions of a known pair re-ran the isomorphism test"
    assert None in verdicts and any(v is not None for v in verdicts)


def _e1_rule(prof, n):
    """E1 on the self-Hom profile of entry 0: for one entry rank one in
    degree 0 and one other degree, or rank two in degree 0 alone; for more,
    rank one in degree 0 alone."""
    if n == 1:
        return prof == {0: 2} or (len(prof) == 2 and prof.get(0) == 1
                                  and set(prof.values()) == {1})
    return prof == {0: 1}


def test_e1_is_read_off_the_member_screen(algebras):
    # verify_cycle reads E1 off _member_profile_of; it must agree with the
    # rule on the full graded profile, on members and non-members alike
    rng = random.Random(2401)
    pool = [(a, w) for a in algebras.values() for w in enumerate_strings(a, 3)]
    sample = rng.sample(pool, 60)
    members, seen = 0, set()
    for a, w in sample:
        X = unfold_string(a, w, 0)
        prof = graded_profile(X, X).nonzero()
        members += exceptional._member_profile_of(a, X) is not None
        for entries in ([(w, 0)], [(w, 0), (w, 0)]):
            cert = verify_cycle(a, entries)
            assert cert.e1 == _e1_rule(prof, len(entries)), (w, prof, len(entries))
            assert cert.e1 or f"graded endomorphisms {prof}" in cert.note
            seen.add((len(entries), cert.e1))
    assert 0 < members < len(sample)
    assert seen == {(1, True), (1, False), (2, True), (2, False)}


def test_non_member_serre_successor_is_an_error(algebras, monkeypatch):
    # S is an autoequivalence, so a member's Serre image passes the member
    # screen; a screen that rejects one link of a2's 3-cycle must raise
    # instead of ending the chain silently
    screen = exceptional._member_profile_of

    def rejecting(a, X):
        return None if X.shape.word.render() == "triv:1:+1" else screen(a, X)

    monkeypatch.setattr(exceptional, "_member_profile_of", rejecting)
    with pytest.raises(InternalCheckError, match="fails the member screen"):
        brute_force_search(algebras["a2"])
