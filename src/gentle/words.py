"""Homotopy letters, strings and bands over a gentle algebra.

A letter is a nonzero path taken directly or inverted.  Words are stored
with the first-applied letter first, so the displayed word reads
right-to-left like path composition.  Sign rules govern which letters may
sit next to each other: equal boundary signs for same-direction pairs,
opposite for mixed pairs.

Trivial strings carry a vertex and an explicit sign so the boundary-sign
bookkeeping stays representable; inverting a trivial string flips the sign.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import GentleAlgebra, Path
from .threads import Thread


class WordError(ValueError):
    """A word expression that does not validate over the algebra."""


@dataclass(frozen=True)
class HomotopyLetter:
    path: Path
    direct: bool

    @property
    def start(self) -> str:
        return self.path.source if self.direct else self.path.target

    @property
    def end(self) -> str:
        return self.path.target if self.direct else self.path.source

    def s_sign(self, a: GentleAlgebra) -> int:
        return a.s_prime(self.path) if self.direct else a.e_prime(self.path)

    def e_sign(self, a: GentleAlgebra) -> int:
        return a.e_prime(self.path) if self.direct else a.s_prime(self.path)

    def inverse(self) -> "HomotopyLetter":
        return HomotopyLetter(self.path, not self.direct)

    def render(self) -> str:
        text = "*".join(reversed(self.path.arrows))
        return text if self.direct else text + "^-1"

    def __repr__(self):
        return self.render()


def may_follow(a: GentleAlgebra, prev: HomotopyLetter, nxt: HomotopyLetter) -> bool:
    """Whether ``nxt`` may follow ``prev``: they meet at a vertex, with equal
    boundary signs there for letters of the same direction and opposite
    signs for mixed directions."""
    if prev.end != nxt.start:
        return False
    if prev.direct == nxt.direct:
        return prev.e_sign(a) == nxt.s_sign(a)
    return prev.e_sign(a) == -nxt.s_sign(a)


def _check_pair(a: GentleAlgebra, prev: HomotopyLetter, nxt: HomotopyLetter) -> str | None:
    """Why ``nxt`` may not follow ``prev``; None when composable."""
    if may_follow(a, prev, nxt):
        return None
    if prev.end != nxt.start:
        return f"endpoint mismatch: {prev.render()} ends at {prev.end}, {nxt.render()} starts at {nxt.start}"
    if prev.direct == nxt.direct:
        return (f"same-direction letters {nxt.render()}·{prev.render()} need equal "
                f"boundary signs, got {prev.e_sign(a)} then {nxt.s_sign(a)}")
    return (f"mixed-direction letters {nxt.render()}·{prev.render()} need opposite "
            f"boundary signs, got {prev.e_sign(a)} then {nxt.s_sign(a)}")


@dataclass(frozen=True)
class HomotopyString:
    letters: tuple[HomotopyLetter, ...]
    vertex: str | None = None      # trivial strings only
    eps: int = 1                   # sign of a trivial string

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    @property
    def start(self) -> str:
        return self.vertex if self.is_trivial else self.letters[0].start

    @property
    def end(self) -> str:
        return self.vertex if self.is_trivial else self.letters[-1].end

    def degree(self) -> int:
        return sum(1 if l.direct else -1 for l in self.letters)

    def degree_profile(self) -> tuple[int, ...]:
        """Relative degree at each of the len+1 positions, position 0 first."""
        degs = [0]
        for l in self.letters:
            degs.append(degs[-1] - 1 if l.direct else degs[-1] + 1)
        return tuple(degs)

    def inverse(self) -> "HomotopyString":
        if self.is_trivial:
            return HomotopyString((), self.vertex, -self.eps)
        return HomotopyString(tuple(l.inverse() for l in reversed(self.letters)))

    def render(self) -> str:
        if self.is_trivial:
            return f"triv:{self.vertex}:{'+1' if self.eps > 0 else '-1'}"
        return ", ".join(l.render() for l in reversed(self.letters))

    def __repr__(self):
        return f"<string {self.render()}>"


@dataclass(frozen=True)
class HomotopyBand:
    letters: tuple[HomotopyLetter, ...]

    @property
    def start(self) -> str:
        return self.letters[0].start

    def degree(self) -> int:
        return sum(1 if l.direct else -1 for l in self.letters)

    def degree_profile(self) -> tuple[int, ...]:
        degs = [0]
        for l in self.letters:
            degs.append(degs[-1] - 1 if l.direct else degs[-1] + 1)
        return tuple(degs)

    def inverse(self) -> "HomotopyBand":
        return HomotopyBand(tuple(l.inverse() for l in reversed(self.letters)))

    def rotate(self, k: int) -> "HomotopyBand":
        k %= len(self.letters)
        return HomotopyBand(self.letters[k:] + self.letters[:k])

    def render(self) -> str:
        return "band: " + ", ".join(l.render() for l in reversed(self.letters))

    def __repr__(self):
        return f"<band {self.render()}>"


Word = HomotopyString | HomotopyBand


def validate_string(a: GentleAlgebra, letters: tuple[HomotopyLetter, ...]) -> None:
    for l in letters:
        if l.path.is_trivial:
            raise WordError("letters must be nonzero paths of length >= 1")
        if a.make_path(l.path.arrows) is None:
            raise WordError(f"letter {l.render()} is zero in the algebra")
    for i, (prev, nxt) in enumerate(zip(letters, letters[1:])):
        why = _check_pair(a, prev, nxt)
        if why:
            raise WordError(f"letters {i + 1},{i + 2}: {why}")


def validate_band(a: GentleAlgebra, letters: tuple[HomotopyLetter, ...]) -> None:
    validate_string(a, letters)
    if not letters:
        raise WordError("a band has at least one letter")
    first, last = letters[0], letters[-1]
    why = _check_pair(a, last, first)
    if why:
        raise WordError(f"wrap pair: {why}")
    deg = sum(1 if l.direct else -1 for l in letters)
    if deg != 0:
        raise WordError(f"a band has degree 0, got {deg}")
    if first.direct == last.direct:
        raise WordError("one of the outer letters must be direct and the other inverse")
    n = len(letters)
    for d in range(1, n):
        if n % d == 0 and letters == letters[:d] * (n // d):
            raise WordError(f"proper power of a length-{d} word")


def make_string(a: GentleAlgebra, letters) -> HomotopyString:
    letters = tuple(letters)
    validate_string(a, letters)
    return HomotopyString(letters)


def trivial_string(a: GentleAlgebra, vertex: str, eps: int = 1) -> HomotopyString:
    if vertex not in a.vertices:
        raise WordError(f"unknown vertex {vertex!r}")
    if eps not in (1, -1):
        raise WordError("trivial string sign must be +1 or -1")
    return HomotopyString((), vertex, eps)


def make_band(a: GentleAlgebra, letters) -> HomotopyBand:
    letters = tuple(letters)
    validate_band(a, letters)
    return HomotopyBand(letters)


def parse_word(a: GentleAlgebra, expr: str) -> Word:
    """Parse a word expression.

    Letters are comma separated and written left to right in composition
    order (the last letter is applied first).  A letter is ``a`` or
    ``c*b*a`` (composite path, rightmost arrow applied first), with ``^-1``
    for the inverse.  ``triv:<vertex>:<sign>`` is a trivial string and the
    prefix ``band:`` requests a band.
    """
    text = expr.strip()
    is_band = False
    if text.startswith("band:"):
        is_band = True
        text = text[len("band:"):].strip()
    if text.startswith("triv:"):
        if is_band:
            raise WordError("a trivial word cannot be a band")
        parts = text.split(":")
        if len(parts) != 3 or parts[2] not in ("+1", "-1", "1"):
            raise WordError("trivial string syntax: triv:<vertex>:<+1|-1>")
        return trivial_string(a, parts[1], 1 if parts[2] in ("+1", "1") else -1)
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise WordError("empty word expression")
    letters = []
    for item in reversed(items):      # rightmost letter is applied first
        direct = True
        if item.endswith("^-1"):
            direct = False
            item = item[: -len("^-1")].strip()
        names = [x.strip() for x in item.split("*")]
        if not all(names):
            raise WordError(f"bad letter syntax {item!r}")
        for x in names:
            if x not in a.arrow_map:
                raise WordError(f"unknown arrow {x!r}")
        path = a.make_path(tuple(reversed(names)))  # rightmost arrow applied first
        if path is None:
            raise WordError(f"letter {item!r} is zero or non-composable")
        letters.append(HomotopyLetter(path, direct))
    if is_band:
        return make_band(a, letters)
    return make_string(a, letters)


# --- canonical keys ---------------------------------------------------------

def _letter_key(l: HomotopyLetter):
    return (l.path.arrows, 1 if l.direct else 0)


def _string_encoding(w: HomotopyString):
    if w.is_trivial:
        return ("triv", w.vertex)
    return ("string",) + tuple(_letter_key(l) for l in w.letters)


def canonical_string(w: HomotopyString):
    """Key identifying a string with its inverse (same complex either way)."""
    return min(_string_encoding(w), _string_encoding(w.inverse()))


def canonical_band(w: HomotopyBand):
    """Key invariant under rotations that keep the outer letters mixed, and
    under inversion."""
    n = len(w.letters)
    candidates = []
    for word in (w, w.inverse()):
        for k in range(n):
            rot = word.rotate(k)
            if rot.letters[0].direct != rot.letters[-1].direct:
                candidates.append(("band",) + tuple(_letter_key(l) for l in rot.letters))
    return min(candidates)


def word_key(w: Word):
    return canonical_band(w) if isinstance(w, HomotopyBand) else canonical_string(w)


# --- threads as words --------------------------------------------------------

def thread_string(a: GentleAlgebra, t: Thread) -> HomotopyString:
    """The homotopy string carried by a thread.

    A permitted thread is a single direct letter; a forbidden thread splits
    into one direct letter per arrow (consecutive products vanish, so the
    arrows cannot merge into one path letter).
    """
    if t.is_trivial:
        return trivial_string(a, t.path.source)
    if t.kind == "permitted":
        return make_string(a, [HomotopyLetter(t.path, True)])
    letters = [HomotopyLetter(a.arrow_path(x), True) for x in t.path.arrows]
    return make_string(a, letters)
