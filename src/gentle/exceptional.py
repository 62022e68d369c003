"""Mouth objects, Serre orbits, AG invariants and exceptional cycles.

A mouth object is the complex of a non-critical forbidden thread.  The
Serre functor acts on complexes as the termwise injective replacement
followed by a projective replacement; on mouth objects its effect is also
read off a graded Hom scan, and the two routes cross-check each other.
Orbits of the scan give the AG pair (n, m): n steps return the object
suspended by m.

An exceptional cycle is a sequence of complexes whose graded endomorphism
spaces are one-dimensional, linked cyclically by the Serre functor up to
recorded suspensions, with no other graded maps around the cycle; every
emitted cycle carries a machine-checked certificate of those conditions,
and a bounded brute-force search over homotopy strings independently
reproduces the classification.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (RepComplex, minimize, nakayama_on_projectives,
                        perfect_replacement, shift, shift_presentation,
                        unfold_band, unfold_string)
from .hom import GradedHomProfile, HomPair, graded_profile, iso_indecomposable
from .presentation import GentleAlgebra, InternalCheckError
from .threads import Thread, ThreadTables, aag_cycles, enumerate_threads
from .words import (HomotopyBand, HomotopyLetter, HomotopyString, Word,
                    canonical_string, may_follow, thread_string, trivial_string,
                    word_key)


@dataclass(frozen=True)
class MouthObject:
    thread: Thread
    word: HomotopyString
    complex: RepComplex
    flagged: bool
    end_dim: int
    note: str = ""

    def __repr__(self):
        flag = " FLAGGED" if self.flagged else ""
        return f"<mouth {self.thread.label()}{flag}>"


@dataclass(frozen=True)
class SerreOrbit:
    members: tuple[tuple[Thread, int], ...]   # (thread, accumulated suspension)
    n: int
    m: int

    def threads(self) -> tuple[Thread, ...]:
        return tuple(t for t, _ in self.members)

    def __repr__(self):
        inside = ", ".join(f"{t.label()}@{s}" for t, s in self.members)
        return f"<orbit n={self.n} m={self.m}: {inside}>"


@dataclass(frozen=True)
class CycleCertificate:
    e1: bool
    e2: bool
    e3: bool
    shifts: tuple[int, ...] | None     # the m_i with S(E_i) ≅ E_{i+1}[m_i]
    calabi_yau: int | None
    note: str = ""

    def ok(self) -> bool:
        return self.e1 and self.e2 and self.e3


@dataclass(frozen=True)
class ExceptionalCycle:
    entries: tuple[tuple[Word, int], ...]    # (word, suspension of its base complex)
    certificate: CycleCertificate

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def calabi_yau(self) -> int | None:
        return self.certificate.calabi_yau

    def sort_key(self):
        return (self.n, tuple(sorted(word_key(w) for w, _ in self.entries)))

    def __repr__(self):
        inside = ", ".join(f"({w.render()})@{s}" for w, s in self.entries)
        return f"<{self.n}-cycle {inside}>"


def _normal_form(X: RepComplex) -> tuple[int, tuple]:
    """The top degree of X and the exact projective presentation of X
    shifted so that its top degree is 0, which every suspension of X shares."""
    top = 0 if X.is_zero() else X.support()[1]
    terms, diffs = shift_presentation(X.proj_terms, X.proj_diffs, top)
    return top, (tuple(sorted(terms.items())),
                 tuple(sorted(diffs.items())))


def serre_image(a: GentleAlgebra, X: RepComplex) -> RepComplex:
    """Minimized projective form of the Serre twist of a perfect complex.

    The Serre functor commutes with suspension, so the twist is computed
    by the exact engine once per algebra and complex up to shift: on the
    suspension of X with top degree 0, then shifted back.
    """
    top, key = _normal_form(X)
    images = a._cache.setdefault("serre_images", {})
    if key not in images:
        images[key] = minimize(perfect_replacement(nakayama_on_projectives(shift(X, top))))
    return shift(images[key], -top)


def entry_complex(a: GentleAlgebra, word: Word, sigma: int) -> RepComplex:
    """The complex of a cycle entry (word, sigma): a band at scalar 1 or a
    string, unfolded at base index 0 and suspended by sigma."""
    if isinstance(word, HomotopyBand):
        base = unfold_band(a, word, 0, 1)
    else:
        base = unfold_string(a, word, 0)
    return shift(base, sigma)


def _summand_signature(c: RepComplex) -> tuple:
    """Degreewise projective content, normalized so the top degree is 0."""
    if c.is_zero():
        return ()
    top = c.support()[1]
    return tuple((d - top, tuple(sorted(c.proj_terms[d]))) for d in sorted(c.proj_terms))


def identify_shift(a: GentleAlgebra, Y: RepComplex, Z: RepComplex) -> int | None:
    """The suspension s with Y ≅ Z[s], for minimal Y and Z, or None.

    Minimal complexes are isomorphic only with identical summand content,
    so the candidate s is pinned by the supports and confirmed by the
    linear-algebra engine.  Y ≅ Z[s] exactly when the top-degree-0
    suspensions of Y and Z are isomorphic, so that verdict is computed once
    per algebra and pair of complexes up to shift.
    """
    if Y.is_zero() or Z.is_zero():
        return None
    if _summand_signature(Y) != _summand_signature(Z):
        return None
    top_y, key_y = _normal_form(Y)
    top_z, key_z = _normal_form(Z)
    verdicts = a._cache.setdefault("iso_verdicts", {})
    pair = (key_y, key_z)
    if pair not in verdicts:
        verdicts[pair] = iso_indecomposable(shift(Y, top_y), shift(Z, top_z))
    return top_z - top_y if verdicts[pair] else None


# --- mouth analysis -----------------------------------------------------------

@dataclass
class _MouthAnalysis:
    tables: ThreadTables
    mouths: list[MouthObject]
    profiles: dict[tuple[int, int], GradedHomProfile]
    serre: dict[int, tuple[int, int]]       # index -> (target index, suspension)


def _mouth_analysis(a: GentleAlgebra) -> _MouthAnalysis:
    key = "mouth_analysis"
    if key in a._cache:
        return a._cache[key]
    tables = enumerate_threads(a)
    raw = []
    for t in tables.noncritical_forbidden():
        w = thread_string(a, t)
        raw.append((t, w, unfold_string(a, w, 0)))
    profiles: dict[tuple[int, int], GradedHomProfile] = {}
    for i, (_, _, X) in enumerate(raw):
        for j, (_, _, Y) in enumerate(raw):
            profiles[(i, j)] = graded_profile(X, Y)

    mouths: list[MouthObject] = []
    serre: dict[int, tuple[int, int]] = {}
    for i, (t, w, X) in enumerate(raw):
        end_dim = profiles[(i, i)].dim(0)
        targets = []
        for j in range(len(raw)):
            for s, dim in sorted(profiles[(i, j)].nonzero().items()):
                targets.append((j, s, dim))
        targets.sort()
        flagged, note = False, ""
        if end_dim == 2:
            if targets == [(i, 0, 2)]:
                serre[i] = (i, 0)
            else:
                flagged, note = True, f"two-dimensional endomorphisms with targets {targets}"
        elif end_dim == 1:
            others = [x for x in targets if x != (i, 0, 1)]
            if len(others) == 1 and others[0][2] == 1:
                serre[i] = (others[0][0], others[0][1])
            else:
                flagged, note = True, f"graded maps to mouth candidates at {targets}"
        else:
            flagged, note = True, f"endomorphism dimension {end_dim}"
        mouths.append(MouthObject(t, w, X, flagged, end_dim, note))

    analysis = _MouthAnalysis(tables, mouths, profiles, serre)
    a._cache[key] = analysis
    return analysis


def mouth_objects(a: GentleAlgebra) -> list[MouthObject]:
    """One object per non-critical forbidden thread, screened against the
    two-target graded Hom pattern; failures are flagged, never dropped."""
    return list(_mouth_analysis(a).mouths)


def serre_of_mouth(a: GentleAlgebra, mouth: MouthObject) -> tuple[Thread, int]:
    """Serre target of an unflagged mouth object, as (thread, suspension).

    The graded scan decides the target; the thread-matching walk and the
    explicit replacement route must both agree (checked once per object).
    """
    if mouth.flagged:
        raise ValueError(f"{mouth!r} failed the mouth screen: {mouth.note}")
    analysis = _mouth_analysis(a)
    index = next(i for i, m in enumerate(analysis.mouths) if m.thread == mouth.thread)
    j, s = analysis.serre[index]
    target = analysis.mouths[j]

    checked = a._cache.setdefault("serre_checked", set())
    if index not in checked:
        walk = analysis.tables.phi2_inverse(analysis.tables.phi1_inverse(mouth.thread))
        if walk != target.thread:
            raise InternalCheckError(
                f"scan target {target.thread} disagrees with matching walk {walk}")
        image = serre_image(a, mouth.complex)
        if identify_shift(a, image, target.complex) != s:
            raise InternalCheckError(
                f"replacement route for {mouth!r} does not give {target.thread}[{s}]")
        checked.add(index)
    return (target.thread, s)


def ag_invariants(a: GentleAlgebra) -> list[SerreOrbit]:
    """Serre orbits of the unflagged mouth objects with their (n, m) pairs.

    Each orbit must agree with the thread-walk cycle carrying the same
    forbidden threads, in both members and the pair (n, m).
    """
    if len(a.vertices) == 1 and not a.arrows:
        raise ValueError("the one-vertex algebra with no arrows has no mouth orbits")
    analysis = _mouth_analysis(a)
    mouths = analysis.mouths
    orbits: list[SerreOrbit] = []
    seen: set[int] = set()
    for start, m0 in enumerate(mouths):
        if start in seen or m0.flagged:
            continue
        members: list[tuple[Thread, int]] = []
        i, acc = start, 0
        for _ in range(len(mouths) + 1):
            members.append((mouths[i].thread, acc))
            seen.add(i)
            serre_of_mouth(a, mouths[i])      # runs the route cross-checks
            j, s = analysis.serre[i]
            i, acc = j, acc + s
            if i == start:
                break
        else:
            raise InternalCheckError("Serre orbit failed to close")
        orbits.append(SerreOrbit(tuple(members), len(members), acc))

    walk_cycles = aag_cycles(analysis.tables)
    for orbit in orbits:
        orbit_threads = set(orbit.threads())
        matches = [c for c in walk_cycles if set(c.forbidden) == orbit_threads]
        if len(matches) != 1 or (matches[0].n, matches[0].m) != (orbit.n, orbit.m):
            raise InternalCheckError(
                f"orbit {orbit} does not match the thread walk cycles {walk_cycles}")
    orbits.sort(key=lambda o: min(word_key(thread_string(a, t)) for t in o.threads()))
    return orbits


# --- certificates --------------------------------------------------------------

def verify_cycle(a: GentleAlgebra, entries: list[tuple[Word, int]]) -> CycleCertificate:
    """Check the cycle conditions on explicit complexes.

    For length one the conditions collapse to: graded endomorphisms of
    rank one in degree 0 and one other degree d (rank two in degree 0 when
    d = 0), and the Serre twist matching the suspension by d.  E1 is read
    off the member screen ``_member_profile_of``: for length one it holds
    on every member profile but {0: 1}, for longer cycles entry 0 needs
    exactly {0: 1}.  The full graded profile is computed only for the note
    of a failure.
    """
    n = len(entries)
    if n == 0:
        raise ValueError("empty candidate")
    cxs = [entry_complex(a, w, s) for w, s in entries]
    member = _member_profile_of(a, cxs[0])
    if n == 1:
        E = cxs[0]
        e1 = member is not None and member != {0: 1}
        d = next((t for t in member if t), 0) if e1 else None
        e2 = e1 and identify_shift(a, serre_image(a, E), E) == d
        note = "" if e1 else f"graded endomorphisms {graded_profile(E, E).nonzero()}"
        return CycleCertificate(e1, e2, True, None, d if (e1 and e2) else None, note)

    e1 = member == {0: 1}
    notes = [] if e1 else [f"graded endomorphisms {graded_profile(cxs[0], cxs[0]).nonzero()}"]
    shifts: list[int] = []
    e2 = True
    for i in range(n):
        s = identify_shift(a, serre_image(a, cxs[i]), cxs[(i + 1) % n])
        if s is None:
            e2 = False
            notes.append(f"Serre twist of entry {i} is not the next entry up to suspension")
            break
        shifts.append(s)
    e3 = True
    for j in range(2, n):
        prof = graded_profile(cxs[0], cxs[j]).nonzero()
        if prof:
            e3 = False
            notes.append(f"nonzero graded maps to entry {j}: {prof}")
    return CycleCertificate(e1, e2, e3, tuple(shifts) if e2 else None, None,
                            "; ".join(notes))


def check_band_spherical(a: GentleAlgebra, w: HomotopyBand, mu) -> tuple[bool, GradedHomProfile]:
    """Whether the band complex with scalar mu has the one-cycle profile.

    Band complexes are fixed by the translate, so their Serre twist is the
    suspension by one; the question reduces to the self-Hom profile being
    concentrated in degrees 0 and 1 with rank one each.
    """
    E = unfold_band(a, w, 0, mu)
    prof = graded_profile(E, E)
    return (prof.nonzero() == {0: 1, 1: 1}, prof)


def cycle_equiv(c1: ExceptionalCycle, c2: ExceptionalCycle) -> bool:
    """Equality up to rotation and independent suspension of each entry."""
    if c1.n != c2.n:
        return False
    keys1 = [word_key(w) for w, _ in c1.entries]
    keys2 = [word_key(w) for w, _ in c2.entries]
    n = c1.n
    return any(all(keys1[(i + r) % n] == keys2[i] for i in range(n)) for r in range(n))


# --- the classifier -------------------------------------------------------------

def _is_a3_graph(a: GentleAlgebra) -> bool:
    """Three vertices joined in a line by the two arrows, any orientation."""
    if len(a.vertices) != 3 or len(a.arrows) != 2:
        return False
    e1, e2 = [frozenset((arr.source, arr.target)) for arr in a.arrows]
    if len(e1) != 2 or len(e2) != 2 or e1 == e2:
        return False
    return len(e1 | e2) == 3


def classify_exceptional_cycles(a: GentleAlgebra) -> list[ExceptionalCycle]:
    """All exceptional cycles built from string complexes, certified.

    The generic route reads them off Serre orbits at the mouth: an orbit of
    length one gives a Calabi-Yau object, a longer orbit gives the cycle of
    its translates.  The ground field alone and line-of-three quivers are
    degenerate shapes, handled by the direct definition and by the bounded
    search.  Band complexes are only checked pointwise in their scalar.
    """
    if len(a.vertices) == 1 and not a.arrows:
        w = trivial_string(a, a.vertices[0])
        entries = ((w, 0), (w, 0))
        cert = verify_cycle(a, list(entries))
        if not cert.ok():
            raise InternalCheckError(f"ground-field pair failed its certificate: {cert}")
        return [ExceptionalCycle(entries, cert)]
    if _is_a3_graph(a):
        return brute_force_search(a, *default_search_bounds(a))

    out: list[ExceptionalCycle] = []
    for orbit in ag_invariants(a):
        if orbit.n == 1:
            entries = ((thread_string(a, orbit.members[0][0]), 0),)
        else:
            entries = tuple((thread_string(a, thread), acc - idx)
                            for idx, (thread, acc) in enumerate(orbit.members))
        cert = verify_cycle(a, list(entries))
        if not cert.ok():
            raise InternalCheckError(f"orbit {orbit} failed its cycle certificate: {cert}")
        if orbit.n == 1 and cert.calabi_yau != orbit.m:
            raise InternalCheckError(
                f"orbit {orbit} certified with twist degree {cert.calabi_yau}")
        out.append(ExceptionalCycle(entries, cert))
    out.sort(key=lambda c: c.sort_key())
    return out


# --- bounded search --------------------------------------------------------------

SEARCH_WORD_BUDGET = 2500


def default_search_bounds(a: GentleAlgebra) -> tuple[int, int]:
    """(max letters, suspension window) for the bounded search.

    Letters reach two beyond the longest forbidden thread (at least three),
    or one beyond it when that would give more than ``SEARCH_WORD_BUDGET``
    strings.  The budget picks the margin and does not cap the scan: when
    even a margin of one passes it, the bound falls back to the longest
    forbidden thread (at least one letter) whatever the string count.
    Every mouth complex always fits.  The window follows the arrow count
    plus the longest thread.  Both are heuristics and can be overridden.
    """
    tables = enumerate_threads(a)
    longest_f = max((t.length for t in tables.forbidden), default=0)
    longest = max((t.length for t in tables.forbidden + tables.permitted), default=0)
    window = len(a.arrows) + longest + 2
    floor = max(longest_f, 1)
    for margin in (2, 1):
        if _string_count_within(a, floor + margin, SEARCH_WORD_BUDGET):
            return floor + margin, window
    return floor, window


def _string_count_within(a: GentleAlgebra, max_letters: int, budget: int) -> bool:
    count = 0
    for _ in _iter_strings(a, max_letters):
        count += 1
        if count > budget:
            return False
    return True


def _iter_strings(a: GentleAlgebra, max_letters: int):
    """Homotopy strings up to the letter bound, one per inversion class."""
    letters: list[HomotopyLetter] = []
    for p in a.path_basis:
        if not p.is_trivial:
            letters.append(HomotopyLetter(p, True))
            letters.append(HomotopyLetter(p, False))
    by_start: dict[str, list[HomotopyLetter]] = {}
    for l in letters:
        by_start.setdefault(l.start, []).append(l)

    seen: set = set()
    for v in a.vertices:
        w = trivial_string(a, v)
        k = canonical_string(w)
        if k not in seen:
            seen.add(k)
            yield w
    stack = [(l,) for l in letters] if max_letters > 0 else []
    while stack:
        word = stack.pop()
        ws = HomotopyString(word)
        k = canonical_string(ws)
        if k not in seen:
            seen.add(k)
            yield ws
        if len(word) < max_letters:
            last = word[-1]
            for nxt in by_start.get(last.end, ()):
                if may_follow(a, last, nxt):
                    stack.append(word + (nxt,))


def enumerate_strings(a: GentleAlgebra, max_letters: int) -> list[HomotopyString]:
    """All homotopy strings with at most the given number of letters, one
    representative per inversion class."""
    return sorted(_iter_strings(a, max_letters), key=canonical_string)


def _member_profile_of(a: GentleAlgebra, X: RepComplex) -> dict[int, int] | None:
    """The self-Hom profile when it fits a cycle member, else None.

    Member patterns: rank one in degree zero alone, rank two in degree zero
    alone, or rank one in degree zero and one other degree.  Degree zero is
    ranked first, then the other degrees outward from zero with early exit.
    """
    pair = HomPair(X, X)
    end = pair.hom_dim(0)
    if end not in (1, 2):
        return None
    lo, hi = pair.window
    extras: dict[int, int] = {}
    for t in sorted((t for t in range(lo, hi + 1) if t != 0), key=abs):
        d = pair.hom_dim(t)
        if d == 0:
            continue
        if d > 1 or extras or end == 2:
            return None
        extras[t] = d
    return {0: end, **extras}


def search_bounds(a: GentleAlgebra, max_letters: int | None = None,
                  shift_window: int | None = None) -> tuple[int, int]:
    """The (max letters, suspension window) a search runs with: the given
    values, with ``default_search_bounds`` filling those that are None."""
    for name, value in (("max_letters", max_letters), ("shift_window", shift_window)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    if max_letters is None or shift_window is None:
        default_letters, default_window = default_search_bounds(a)
        if max_letters is None:
            max_letters = default_letters
        if shift_window is None:
            shift_window = default_window
    return max_letters, shift_window


def brute_force_search(a: GentleAlgebra, max_letters: int | None = None,
                       shift_window: int | None = None) -> list[ExceptionalCycle]:
    """Certified cycles found by scanning all strings within the bounds.

    Candidates are the strings whose graded endomorphisms fit a cycle
    member; Serre twists link candidates into chains, and every closed
    chain within the suspension window gets its own certificate unless it
    is a rotation of a chain already certified, whether that certificate
    passed or failed.  The verdict does not depend on the rotation: E2
    holds on every closed chain, since its links are Serre twists up to
    suspension, and the Serre functor, an autoequivalence, then carries
    E_i to E_{i+1} up to suspension, so the graded Hom spaces tested by E1
    and E3 are the same from every starting entry.  Serre images and
    isomorphism verdicts are computed once per algebra by the exact engine
    and shared by the linking step and the certificates.
    """
    max_letters, shift_window = search_bounds(a, max_letters, shift_window)

    words = enumerate_strings(a, max_letters)
    complexes = []
    index: dict[tuple, list[int]] = {}
    for i, w in enumerate(words):
        X = unfold_string(a, w, 0)
        complexes.append(X)
        index.setdefault(_summand_signature(X), []).append(i)

    members: set[int] = set()
    for i, X in enumerate(complexes):
        if _member_profile_of(a, X) is not None:
            members.add(i)

    successor: dict[int, tuple[int, int]] = {}
    for i in sorted(members):
        image = serre_image(a, complexes[i])
        for j in index.get(_summand_signature(image), []):
            s = identify_shift(a, image, complexes[j])
            if s is not None:
                if abs(s) <= shift_window:
                    successor[i] = (j, s)
                break

    found: list[ExceptionalCycle] = []
    failed: list[ExceptionalCycle] = []
    for start in sorted(members):
        i, sigma = start, 0
        entries: list[tuple[Word, int]] = []
        closed = False
        for _ in range(len(members) + 1):
            entries.append((words[i], sigma))
            if i not in successor:
                break
            j, s = successor[i]
            if j == start:
                closed = True
                break
            if j not in members:
                break
            i, sigma = j, sigma + s - 1
        if not closed:
            continue
        # each chain class is certified once, in its first rotation
        candidate = ExceptionalCycle(tuple(entries), None)
        if any(cycle_equiv(candidate, c) for c in found + failed):
            continue
        cert = verify_cycle(a, entries)
        (found if cert.ok() else failed).append(ExceptionalCycle(tuple(entries), cert))
    found.sort(key=lambda c: c.sort_key())
    return found
