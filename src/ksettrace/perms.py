"""Exact permutation arithmetic on n points.

Points are 0-based internally; all text I/O is 1-based.
"""

from __future__ import annotations

import math
import re
from itertools import permutations as _itertools_permutations
from typing import Iterator, Sequence


class DegreeMismatchError(ValueError):
    """Raised when two permutations of different degrees are combined."""


class Permutation:
    """A permutation of {0..n-1}, stored as a tuple of images.  Being
    immutable, it keeps the cycles its first `cycles()` call walks."""

    __slots__ = ("images", "_cycles")

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        n = len(imgs)
        if n < 1:
            raise ValueError("degree must be at least 1")
        seen = [False] * n
        for x in imgs:
            if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise ValueError(f"images {imgs!r} are not a bijection on 0..{n - 1}")
            seen[x] = True
        object.__setattr__(self, "images", imgs)

    @classmethod
    def _trusted(cls, images: Sequence[int]) -> "Permutation":
        """Unchecked, for images that are a bijection on 0..n-1 by construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", tuple(images))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    def __reduce__(self):
        # rebuilt through the checking constructor; the cycles are not sent
        return Permutation, (self.images,)

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Build from 0-based cycles; unmentioned points are fixed."""
        images = list(range(n))
        touched = [False] * n
        for cyc in cycles:
            if not cyc:
                raise ValueError("empty cycle in cycles")
            for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
                if not (0 <= a < n) or touched[a]:
                    raise ValueError(f"invalid or repeated point {a} in cycles")
                touched[a] = True
                images[a] = b
        return cls(images)

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "Permutation":
        """Parse 1-based text: one-line form ``[2,3,1]`` or cycle form ``(1 2 3)(4)``.

        For cycle form, ``n`` may be given to fix the degree; otherwise the
        largest mentioned point is used.
        """
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError(f"malformed one-line permutation {text!r}")
            body = text[1:-1].strip()
            if not body:
                raise ValueError("empty image list")
            try:
                vals = [int(tok) for tok in body.split(",")]
            except ValueError as exc:
                raise ValueError(f"malformed one-line permutation {text!r}") from exc
            if n is not None and n != len(vals):
                raise ValueError(f"degree {len(vals)} does not match requested {n}")
            return cls([v - 1 for v in vals])
        if text.startswith("("):
            groups = re.findall(r"\(([^()]*)\)", text)
            if not groups or re.sub(r"\([^()]*\)|\s", "", text):
                raise ValueError(f"malformed cycle-form permutation {text!r}")
            cycles = []
            for grp in groups:
                toks = grp.replace(",", " ").split()
                if not toks:
                    raise ValueError(f"empty cycle in {text!r}")
                cycles.append([int(t) - 1 for t in toks])
            maxpt = max(max(c) for c in cycles)
            degree = n if n is not None else maxpt + 1
            if maxpt >= degree:
                raise ValueError(f"point {maxpt + 1} exceeds degree {degree}")
            return cls.from_cycles(degree, cycles)
        raise ValueError(f"unrecognized permutation text {text!r}")

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)!r})"

    def cycle_str(self) -> str:
        """1-based cycle form, fixed points included, e.g. ``(1 2 3)(4)``."""
        return "".join(
            "(" + " ".join(str(x + 1) for x in cyc) + ")" for cyc in self.cycles()
        )

    def __mul__(self, other: "Permutation") -> "Permutation":
        """The permutation i -> other(self(i))."""
        if self.n != other.n:
            raise DegreeMismatchError(
                f"cannot multiply degree {self.n} by degree {other.n}"
            )
        oi = other.images
        return Permutation._trusted([oi[x] for x in self.images])

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation._trusted(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles covering all points, sorted by minimum element.

        Each cycle starts at its minimum and follows images.  The walk runs
        once per permutation; every call returns a fresh list.
        """
        cached = getattr(self, "_cycles", None)
        if cached is not None:
            return list(cached)
        imgs = self.images
        seen = [False] * len(imgs)
        out = []
        for start in range(len(imgs)):
            if seen[start]:
                continue
            cyc = [start]
            x = imgs[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = imgs[x]
            out.append(tuple(cyc))
        object.__setattr__(self, "_cycles", tuple(out))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths in non-increasing order, summing to n."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def __pow__(self, e: int) -> "Permutation":
        """p^e via per-cycle index shifts: O(n) for any exponent size, any sign."""
        images = [0] * self.n
        for cyc in self.cycles():
            t = len(cyc)
            shift = e % t
            for i, pt in enumerate(cyc):
                images[pt] = cyc[(i + shift) % t]
        return Permutation._trusted(images)

    def order(self) -> int:
        """lcm of the cycle lengths."""
        return math.lcm(*(len(c) for c in self.cycles()))

    def is_even(self) -> bool:
        """Even iff n minus the number of cycles is even."""
        return (self.n - len(self.cycles())) % 2 == 0


SYM = "Sym"
ALT = "Alt"

_ENUM_LIMIT = 10


def check_group(group: str, n: int) -> None:
    """Raise ValueError unless group is Sym or Alt and n is a degree it has:
    n >= 1 for Sym, n >= 2 for Alt."""
    if group not in (SYM, ALT):
        raise ValueError(f"unknown group {group!r}")
    least = 2 if group == ALT else 1
    if n < least:
        raise ValueError(f"{group} requires n >= {least}")


def random_element(group: str, n: int, rng) -> Permutation:
    """Uniform element of Sym(n) or Alt(n).

    Sym: unbiased Fisher-Yates shuffle, position i = n-1 .. 1 swapped with
    j uniform on 0..i.  Alt: the same, then the images of positions 0 and 1
    swapped if the result is odd; this is a bijection from odd to even
    permutations, so uniformity is preserved.  Each swap with j != i is a
    transposition, so their count gives the parity without a cycle walk.

    The rng contract: only `getrandbits` of `random.Random` is called.  j is
    drawn by CPython's rule for `Random.randrange(i + 1)`: r =
    getrandbits((i + 1).bit_length()), redrawn while r > i.  So the element,
    and the generator state it leaves, equal those of `rng.shuffle` on
    list(range(n)).
    """
    check_group(group, n)
    getrandbits = rng.getrandbits
    images = list(range(n))
    swaps = 0
    b = n.bit_length()
    low = (1 << (b - 1)) - 1  # the least i with (i + 1).bit_length() == b
    for i in range(n - 1, 0, -1):
        if i < low:
            b -= 1
            low >>= 1
        j = getrandbits(b)
        while j > i:
            j = getrandbits(b)
        if j != i:
            images[i], images[j] = images[j], images[i]
            swaps += 1
    if group == ALT and swaps & 1:
        images[0], images[1] = images[1], images[0]
    return Permutation._trusted(images)


def enumerate_group(group: str, n: int) -> Iterator[Permutation]:
    """Yield every element of Sym(n) or Alt(n) exactly once.  Requires n <= 10."""
    check_group(group, n)
    if n > _ENUM_LIMIT:
        raise ValueError(f"enumeration limited to n <= {_ENUM_LIMIT}, got {n}")
    for images in _itertools_permutations(range(n)):
        p = Permutation(images)
        if group == SYM or p.is_even():
            yield p
