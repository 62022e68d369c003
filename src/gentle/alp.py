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
chain map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import RepComplex, WordShape
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


@dataclass
class _Unfolded:
    complex: RepComplex
    shape: WordShape
    letters: tuple[HomotopyLetter, ...]

    @property
    def n_pos(self) -> int:
        return len(self.shape.positions)

    def vertex(self, i: int) -> str:
        return self.shape.vertex(i)

    def degree(self, i: int) -> int:
        return self.shape.degree(i)

    def high_letter(self, i: int) -> HomotopyLetter | None:
        return self.letters[i] if i < len(self.letters) else None

    def low_letter(self, i: int) -> HomotopyLetter | None:
        return self.letters[i - 1] if i >= 1 else None


def _unfolded(c: RepComplex) -> _Unfolded:
    if c.shape is None:
        raise ValueError("complex does not record an unfolded word")
    if c.shape.cyclic:
        raise ValueError("combinatorial bases are implemented for string complexes only")
    w = c.shape.word
    letters = () if (isinstance(w, HomotopyString) and w.is_trivial) else w.letters
    return _Unfolded(c, c.shape, letters)


def _paths_between(a: GentleAlgebra, src: str, tgt: str) -> list[Path]:
    """Nonzero paths usable as a component P(src) -> P(tgt): run tgt -> src."""
    return [p for p in a.paths_from[tgt] if p.target == src and not p.is_trivial]


def _ok_left(a: GentleAlgebra, uv: _Unfolded, uw: _Unfolded, i: int, j: int,
             f: Path) -> bool:
    A = uv.high_letter(i)
    if A is not None and A.direct and a.compose(A.path, f) is not None:
        return False
    B = uw.high_letter(j)
    if B is not None and not B.direct and a.compose(f, B.path) is not None:
        return False
    return True


def _ok_right(a: GentleAlgebra, uv: _Unfolded, uw: _Unfolded, i: int, j: int,
              f: Path) -> bool:
    A = uv.low_letter(i)
    if A is not None and not A.direct and a.compose(A.path, f) is not None:
        return False
    B = uw.low_letter(j)
    if B is not None and B.direct and a.compose(f, B.path) is not None:
        return False
    return True


def single_maps(v: RepComplex, w: RepComplex) -> list[CombMap]:
    """All one-component chain maps given by a nonzero path."""
    a = v.a
    uv, uw = _unfolded(v), _unfolded(w)
    out = []
    for i in range(uv.n_pos):
        for j in range(uw.n_pos):
            if uv.degree(i) != uw.degree(j):
                continue
            for f in _paths_between(a, uv.vertex(i), uw.vertex(j)):
                if _ok_left(a, uv, uw, i, j, f) and _ok_right(a, uv, uw, i, j, f):
                    out.append(CombMap(SINGLE, ((i, j, f),)))
    return out


def _reversed_unfolded(u: _Unfolded) -> _Unfolded:
    """The same complex with its word read backwards."""
    shape = WordShape(u.shape.word, u.shape.base,
                      tuple(reversed(u.shape.positions)), False, None)
    return _Unfolded(u.complex, shape, tuple(l.inverse() for l in reversed(u.letters)))


def _aligned_doubles(a: GentleAlgebra, uv: _Unfolded, uw: _Unfolded):
    """Coupled two-component maps in the given reading of the target.

    The coupling equation lives over a pair of same-direction middle
    letters; components connecting across mixed-direction middles appear
    as aligned couplings of the reversed reading and are collected by the
    caller from both orientations.
    """
    out = []
    for i in range(uv.n_pos - 1):
        A = uv.high_letter(i)
        for j in range(uw.n_pos - 1):
            if uv.degree(i) != uw.degree(j):
                continue
            B = uw.high_letter(j)
            if A is None or B is None or A.direct != B.direct:
                continue
            if A.direct:
                # equation: A∘f_R == f_L∘B with B applied first
                for f_r in _paths_between(a, uv.vertex(i), uw.vertex(j)):
                    z = a.compose(A.path, f_r)
                    if z is None:
                        continue
                    nb = len(B.path.arrows)
                    if len(z.arrows) <= nb or z.arrows[:nb] != B.path.arrows:
                        continue
                    f_l = Path(B.path.target, z.arrows[nb:], z.target)
                    if not _ok_left(a, uv, uw, i + 1, j + 1, f_l):
                        continue
                    if not _ok_right(a, uv, uw, i, j, f_r):
                        continue
                    out.append(((i + 1, j + 1, f_l), (i, j, f_r)))
            else:
                # inverse middles: f_L then A.path == B.path then f_R
                for f_l in _paths_between(a, uv.vertex(i + 1), uw.vertex(j + 1)):
                    z = a.compose(A.path, f_l)
                    if z is None:
                        continue
                    nb = len(B.path.arrows)
                    if len(z.arrows) <= nb or z.arrows[:nb] != B.path.arrows:
                        continue
                    f_r = Path(B.path.target, z.arrows[nb:], z.target)
                    if not _ok_left(a, uv, uw, i + 1, j + 1, f_l):
                        continue
                    if not _ok_right(a, uv, uw, i, j, f_r):
                        continue
                    out.append(((i + 1, j + 1, f_l), (i, j, f_r)))
    return out


def double_maps(v: RepComplex, w: RepComplex) -> list[CombMap]:
    """Two-component coupled maps, in both readings of the target."""
    a = v.a
    uv, uw = _unfolded(v), _unfolded(w)
    found: dict[tuple, CombMap] = {}
    for comps in _aligned_doubles(a, uv, uw):
        key = tuple(sorted(comps))
        found.setdefault(key, CombMap(DOUBLE, key))
    n_w = len(uw.letters)
    for comps in _aligned_doubles(a, uv, _reversed_unfolded(uw)):
        key = tuple(sorted((i, n_w - j, p) for i, j, p in comps))
        found.setdefault(key, CombMap(DOUBLE, key))
    return [found[k] for k in sorted(found)]


def _letters_equal(x: HomotopyLetter | None, y: HomotopyLetter | None) -> bool:
    return x is not None and y is not None and x == y


def _graph_windows(a: GentleAlgebra, uv: _Unfolded, uw: _Unfolded
                   ) -> list[tuple[tuple[int, int, Path], ...]]:
    out = []
    for i in range(uv.n_pos):
        for j in range(uw.n_pos):
            if uv.vertex(i) != uw.vertex(j) or uv.degree(i) != uw.degree(j):
                continue
            # maximality on the low side: the window must start here
            if _letters_equal(uv.low_letter(i), uw.low_letter(j)):
                continue
            p = 0
            while _letters_equal(uv.high_letter(i + p), uw.high_letter(j + p)):
                p += 1
            components = [(i + t, j + t, a.trivial_path(uv.vertex(i + t)))
                          for t in range(p + 1)]
            # left flank, high side
            A, B = uv.high_letter(i + p), uw.high_letter(j + p)
            if A is not None and B is not None and A.direct == B.direct:
                if A.direct:
                    nb = len(B.path.arrows)
                    if len(A.path.arrows) <= nb or B.path.arrows != A.path.arrows[:nb]:
                        continue
                    f_l = Path(B.path.target, A.path.arrows[nb:], A.path.target)
                else:
                    na = len(A.path.arrows)
                    if len(B.path.arrows) <= na or B.path.arrows[-na:] != A.path.arrows:
                        continue
                    f_l = Path(B.path.source, B.path.arrows[:-na], A.path.source)
                components.append((i + p + 1, j + p + 1, f_l))
            else:
                if A is not None and A.direct:
                    continue
                if B is not None and not B.direct:
                    continue
            # right flank, low side
            A2, B2 = uv.low_letter(i), uw.low_letter(j)
            if A2 is not None and B2 is not None and A2.direct == B2.direct:
                if A2.direct:
                    na = len(A2.path.arrows)
                    if len(B2.path.arrows) <= na or B2.path.arrows[-na:] != A2.path.arrows:
                        continue
                    f_r = Path(B2.path.source, B2.path.arrows[:-na], A2.path.source)
                else:
                    nb = len(B2.path.arrows)
                    if len(A2.path.arrows) <= nb or A2.path.arrows[:nb] != B2.path.arrows:
                        continue
                    f_r = Path(B2.path.target, A2.path.arrows[nb:], A2.path.target)
                components.append((i - 1, j - 1, f_r))
            else:
                if A2 is not None and not A2.direct:
                    continue
                if B2 is not None and B2.direct:
                    continue
            out.append(tuple(sorted(components)))
    return out


def graph_maps(v: RepComplex, w: RepComplex) -> list[CombMap]:
    """Maximal-overlap maps, in both readings of the target."""
    a = v.a
    uv, uw = _unfolded(v), _unfolded(w)
    found: dict[tuple, CombMap] = {}
    for comps in _graph_windows(a, uv, uw):
        found.setdefault(comps, CombMap(GRAPH, comps))
    n_w = len(uw.letters)
    for comps in _graph_windows(a, uv, _reversed_unfolded(uw)):
        translated = tuple(sorted((i, n_w - j, p) for i, j, p in comps))
        found.setdefault(translated, CombMap(GRAPH, translated))
    return [found[k] for k in sorted(found)]


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
    return {(uv.degree(i), uv.shape.slot(i), uw.shape.slot(j)): ((p, ONE),)
            for i, j, p in m.components}
