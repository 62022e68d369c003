"""Combinatorial bases of chain-map spaces between string complexes.

Maps between unfolded words come in three kinds: one-component maps given
by a nonzero path, two-component maps coupled through a commuting square
over same-direction middle letters, and overlap maps that are identities
along a maximal common subword with induced components at the two ends.
Together they span the chain maps at the complex level; the count is
cross-checked against the rank computed by the linear-algebra engine.

The end conditions are exactly the vanishing statements forced by the
differentials: whenever a composite of a candidate component with a
neighbouring letter stays nonzero and unmatched, the candidate is not a
chain map.  Each position i has a high side, its letter towards i + 1,
and a low side, its letter towards i - 1.  Reading a word backwards
inverts every letter and sends position i to n - i, so the low side of a
position is the high side of the mirrored position with the letters
inverted.  Each end condition is therefore written once, for the high
side, and read on the low side with the letter directions flipped.  The
same mirror reads the target backwards to collect the double and graph
maps whose middle letters point opposite ways: mirroring both words sends
the basis of (w, y) to the basis of (w^-1, y^-1), with (i, j) going to
(n_w - i, n_y - j).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import RepComplex, _pair_space
from .hom import PathMap, chain_map_dim
from .linalg import ONE
from .presentation import GentleAlgebra, InternalCheckError, Path
from .words import HomotopyLetter, HomotopyString

SINGLE = "single"
DOUBLE = "double"
GRAPH = "graph"


@dataclass(frozen=True)
class CombMap:
    kind: str
    components: tuple[tuple[int, int, Path], ...]   # (source position, target position, path)

    def __repr__(self):
        inside = ", ".join(f"{i}->{j}:{p}" for i, j, p in self.components)
        return f"<{self.kind} {inside}>"


@dataclass(frozen=True)
class _Unfolded:
    positions: tuple[tuple[str, int, int], ...]   # (vertex, degree, slot within degree)
    letters: tuple[HomotopyLetter, ...]

    def vertex(self, i: int) -> str:
        return self.positions[i][0]

    def degree(self, i: int) -> int:
        return self.positions[i][1]

    def letter(self, i: int, high: bool) -> HomotopyLetter | None:
        """The letter on the high side of position i, or on its low side."""
        k = i if high else i - 1
        return self.letters[k] if 0 <= k < len(self.letters) else None

    def reversed(self) -> _Unfolded:
        """The same word read backwards."""
        return _Unfolded(self.positions[::-1],
                         tuple(l.inverse() for l in reversed(self.letters)))


def _unfolded(c: RepComplex) -> _Unfolded:
    if c.shape is None:
        raise ValueError("complex does not record an unfolded word")
    if c.shape.cyclic:
        raise ValueError("combinatorial bases are implemented for string complexes only")
    w = c.shape.word
    letters = () if (isinstance(w, HomotopyString) and w.is_trivial) else w.letters
    return _Unfolded(c.shape.positions, letters)


def _after(p: Path, z: Path | None) -> Path | None:
    """The nontrivial r with z = r∘p, if p starts z."""
    n = len(p)
    if z is None or len(z) <= n or z.arrows[:n] != p.arrows:
        return None
    return Path(p.target, z.arrows[n:], z.target)


def _before(p: Path, z: Path) -> Path | None:
    """The nontrivial r with z = p∘r, if p ends z."""
    n = len(p)
    if len(z) <= n or z.arrows[len(z) - n:] != p.arrows:
        return None
    return Path(z.source, z.arrows[:len(z) - n], p.source)


def _ok(a: GentleAlgebra, A: HomotopyLetter | None, B: HomotopyLetter | None,
        f: Path, high: bool) -> bool:
    """Whether a component f, from a source position with letter A on one
    side to a target position with letter B on the same side, meets the
    differentials there: A∘f must vanish where A points into the source
    position, and f∘B where B points out of the target position."""
    if A is not None and A.direct == high and a.compose(A.path, f) is not None:
        return False
    return not (B is not None and B.direct != high and a.compose(f, B.path) is not None)


def single_maps(v: RepComplex, w: RepComplex) -> list[CombMap]:
    """All one-component chain maps given by a nonzero path."""
    a = v.a
    uv, uw = _unfolded(v), _unfolded(w)
    out = []
    for i in range(len(uv.positions)):
        A_high, A_low = uv.letter(i, True), uv.letter(i, False)
        for j in range(len(uw.positions)):
            if uv.degree(i) != uw.degree(j):
                continue
            B_high, B_low = uw.letter(j, True), uw.letter(j, False)
            for f in _pair_space(a, uv.vertex(i), uw.vertex(j)):
                if (not f.is_trivial and _ok(a, A_high, B_high, f, True)
                        and _ok(a, A_low, B_low, f, False)):
                    out.append(CombMap(SINGLE, ((i, j, f),)))
    return out


def _aligned_doubles(a: GentleAlgebra, uv: _Unfolded, uw: _Unfolded):
    """Coupled two-component maps in the given reading of the target.

    The coupling equation A∘f = g∘B lives over a pair of same-direction
    middle letters A from position i to i + 1 of the source and B from j
    to j + 1 of the target; f sits where A starts (i for a direct letter,
    i + 1 for an inverse one) and g at the other end.  Components
    connecting across mixed-direction middles appear as aligned couplings
    of the reversed reading and are collected by the caller from both
    orientations.
    """
    out = []
    for i in range(len(uv.positions) - 1):
        A = uv.letter(i, True)
        for j in range(len(uw.positions) - 1):
            B = uw.letter(j, True)
            if uv.degree(i) != uw.degree(j) or A.direct != B.direct:
                continue
            k = 0 if A.direct else 1
            for f in _pair_space(a, uv.vertex(i + k), uw.vertex(j + k)):
                g = _after(B.path, a.compose(A.path, f))
                if f.is_trivial or g is None:
                    continue
                f_low, f_high = (f, g) if A.direct else (g, f)
                if (_ok(a, uv.letter(i + 1, True), uw.letter(j + 1, True), f_high, True)
                        and _ok(a, uv.letter(i, False), uw.letter(j, False), f_low, False)):
                    out.append(((i, j, f_low), (i + 1, j + 1, f_high)))
    return out


def _flank(A: HomotopyLetter | None, B: HomotopyLetter | None,
           high: bool) -> tuple[Path, ...] | None:
    """The end component of an overlap window past its last common letters
    on one side, where the source has letter A and the target letter B:
    () when the window needs none, None when no chain map ends there."""
    if A is not None and B is not None and A.direct == B.direct:
        g = _after(B.path, A.path) if A.direct == high else _before(A.path, B.path)
        return None if g is None else (g,)
    if (A is not None and A.direct == high) or (B is not None and B.direct != high):
        return None
    return ()


def _graph_windows(a: GentleAlgebra, uv: _Unfolded, uw: _Unfolded
                   ) -> list[tuple[tuple[int, int, Path], ...]]:
    out = []
    for i in range(len(uv.positions)):
        for j in range(len(uw.positions)):
            if uv.vertex(i) != uw.vertex(j) or uv.degree(i) != uw.degree(j):
                continue
            # maximality on the low side: the window must start here
            low = uv.letter(i, False)
            if low is not None and low == uw.letter(j, False):
                continue
            p = 0
            while (A := uv.letter(i + p, True)) is not None and A == uw.letter(j + p, True):
                p += 1
            high_end = _flank(uv.letter(i + p, True), uw.letter(j + p, True), True)
            low_end = _flank(low, uw.letter(j, False), False)
            if high_end is None or low_end is None:
                continue
            out.append(tuple([(i - 1, j - 1, f) for f in low_end]
                             + [(i + t, j + t, a.trivial_path(uv.vertex(i + t)))
                                for t in range(p + 1)]
                             + [(i + p + 1, j + p + 1, f) for f in high_end]))
    return out


def _both_readings(v: RepComplex, w: RepComplex, kind: str, collect) -> list[CombMap]:
    """The maps ``collect`` finds with the target read forwards and read
    backwards, the latter translated back by j -> n_w - j; repeats are
    dropped and the maps sorted by their components."""
    uv, uw = _unfolded(v), _unfolded(w)
    n_w = len(uw.letters)
    found = {tuple(sorted(comps)) for comps in collect(v.a, uv, uw)}
    found |= {tuple(sorted((i, n_w - j, p) for i, j, p in comps))
              for comps in collect(v.a, uv, uw.reversed())}
    return [CombMap(kind, comps) for comps in sorted(found)]


def double_maps(v: RepComplex, w: RepComplex) -> list[CombMap]:
    """Two-component coupled maps, in both readings of the target."""
    return _both_readings(v, w, DOUBLE, _aligned_doubles)


def graph_maps(v: RepComplex, w: RepComplex) -> list[CombMap]:
    """Maximal-overlap maps, in both readings of the target."""
    return _both_readings(v, w, GRAPH, _graph_windows)


def alp_basis(v: RepComplex, w: RepComplex) -> list[CombMap]:
    """Single, double and graph maps together; the count must equal the
    chain-map space dimension computed independently by the solver."""
    basis = single_maps(v, w) + double_maps(v, w) + graph_maps(v, w)
    expected = chain_map_dim(v, w)
    if len(basis) != expected:
        raise InternalCheckError(
            f"combinatorial basis has {len(basis)} maps but the chain-map "
            f"space has dimension {expected} ({v!r} -> {w!r}: {basis})")
    return basis


def comb_map_to_path_map(v: RepComplex, w: RepComplex, m: CombMap) -> PathMap:
    """The components of a combinatorial map on the presentations."""
    uv, uw = _unfolded(v), _unfolded(w)
    return {(uv.degree(i), uv.positions[i][2], uw.positions[j][2]): ((p, ONE),)
            for i, j, p in m.components}
