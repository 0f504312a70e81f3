"""Words over adjacent transpositions, permutations, and their boundaries.

Permutations of {1..n} are stored in one-line notation under a *right*
action: ``k . p == p.images[k-1]``, and words act on the right as well,
so ``k . (u v) == (k . u) . v``.  All the displayed formulas downstream
(faces of permuted cells, boundaries of block permutations) are
right-action formulas; no silent transposition happens anywhere.

A ``TWord`` is a word in the free monoid on the generators T_1..T_{n-1}
of the symmetric group S_n.  A ``BCWord`` additionally allows the sign
flips R_1..R_n generating the hyperoctahedral group; those are
evaluation-only.  Words parse from compact text such as ``"T1 T2 T1"``
or ``"R2 T1"`` (whitespace-separated, case-insensitive).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .indices import lower, raise_


@dataclass(frozen=True)
class Perm:
    """A permutation of {1..n} in one-line notation (right action)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int) -> "Perm":
        """tau_i in S_n, swapping i and i+1."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"tau_{i} does not live in S_{n}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    def apply(self, k: int) -> int:
        """k . p (1-based)."""
        return self.images[k - 1]

    def then(self, other: "Perm") -> "Perm":
        """The product p . q: first apply p, then q.

        >>> t1, t2 = Perm.transposition(3, 1), Perm.transposition(3, 2)
        >>> t1.then(t2).images
        (3, 1, 2)
        """
        if other.n != self.n:
            raise ValueError("ambient mismatch")
        return Perm(tuple(other.images[m - 1] for m in self.images))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for k, m in enumerate(self.images, start=1):
            inv[m - 1] = k
        return Perm(tuple(inv))

    def is_identity(self) -> bool:
        return all(m == k for k, m in enumerate(self.images, start=1))


@dataclass(frozen=True)
class TWord:
    """A word over T_1..T_{n-1}; ``letters`` holds the generator indices."""

    ambient: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        for i in self.letters:
            if not 1 <= i <= self.ambient - 1:
                raise ValueError(f"letter T_{i} out of range for ambient {self.ambient}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(f"T{i}" for i in self.letters)


@dataclass(frozen=True)
class BCWord:
    """A word over T_1..T_{n-1} and R_1..R_n (hyperoctahedral generators)."""

    ambient: int
    letters: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        for tag, i in self.letters:
            if tag == "T" and 1 <= i <= self.ambient - 1:
                continue
            if tag == "R" and 1 <= i <= self.ambient:
                continue
            raise ValueError(f"letter {tag}{i} out of range for ambient {self.ambient}")

    def __str__(self) -> str:
        return " ".join(f"{tag}{i}" for tag, i in self.letters)


@dataclass(frozen=True)
class SignedPerm:
    """A signed permutation: k maps to images[k-1], a signed value in +-{1..n}."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(abs(m) for m in self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a signed permutation: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def perm(self) -> Perm:
        """Forget the signs."""
        return Perm(tuple(abs(m) for m in self.images))

    def signs(self) -> tuple[int, ...]:
        return tuple(1 if m > 0 else -1 for m in self.images)

    def is_identity(self) -> bool:
        return all(m == k for k, m in enumerate(self.images, start=1))


_TOKEN = re.compile(r"^([TtRr])(\d+)$")


def parse_word(text: str, ambient: int | None = None) -> TWord | BCWord:
    """Parse ``"T1 T2 T1"`` or ``"R2 T1"``; returns a BCWord iff R occurs.

    >>> parse_word("t1 T2 t1")
    TWord(ambient=3, letters=(1, 2, 1))
    """
    letters: list[tuple[str, int]] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"cannot parse generator {token!r}")
        letters.append((m.group(1).upper(), int(m.group(2))))
    has_r = any(tag == "R" for tag, _ in letters)
    if ambient is None:
        need = [i + 1 if tag == "T" else i for tag, i in letters]
        ambient = max(need, default=1)
    if has_r:
        return BCWord(ambient, tuple(letters))
    return TWord(ambient, tuple(i for _, i in letters))


def eval_word(w: TWord) -> Perm:
    """Evaluate a word in S_n, applying letters left to right.

    >>> eval_word(TWord(2, (1, 1))).is_identity()
    True
    """
    p = Perm.identity(w.ambient)
    for i in w.letters:
        p = p.then(Perm.transposition(w.ambient, i))
    return p


def length(p: Perm) -> int:
    """The Coxeter length of p, i.e. its inversion count."""
    return sum(
        1
        for a in range(1, p.n + 1)
        for b in range(a + 1, p.n + 1)
        if p.apply(a) > p.apply(b)
    )


def min_rep(p: Perm) -> TWord:
    """A canonical reduced word for p.

    At each step, emit the smallest descent of the remaining permutation
    (a position i with images[i-1] > images[i]); left-multiplying by that
    transposition removes exactly one inversion, so the result has length
    ``length(p)``.

    >>> str(min_rep(Perm((3, 2, 1))))
    'T1 T2 T1'
    """
    letters = []
    images = list(p.images)
    while True:
        i = next((k for k in range(1, len(images)) if images[k - 1] > images[k]), None)
        if i is None:
            break
        letters.append(i)
        images[i - 1], images[i] = images[i], images[i - 1]
    return TWord(p.n, tuple(letters))


def boundary_word(w: TWord, i: int) -> TWord:
    """The boundary of a word in direction i (ambient drops by one).

    Letters are consumed left to right: each T_j dies if the running
    index sits on one of its strands ({j, j+1}) and is renumbered to
    T_{j_i} otherwise, while the running index is displaced by the
    letter just read.
    """
    if not 1 <= i <= w.ambient:
        raise ValueError(f"direction {i} out of range for ambient {w.ambient}")
    cur = i
    out = []
    for j in w.letters:
        if cur not in (j, j + 1):
            out.append(lower(j, cur))
        if cur == j:
            cur = j + 1
        elif cur == j + 1:
            cur = j
    return TWord(w.ambient - 1, tuple(out))


def boundary_perm(p: Perm, i: int) -> Perm:
    """The boundary of a permutation: the unique q with j.q = (j^i . p)_{i.p}."""
    if not 1 <= i <= p.n:
        raise ValueError(f"direction {i} out of range for S_{p.n}")
    pivot = p.apply(i)
    return Perm(tuple(lower(p.apply(raise_(j, i)), pivot) for j in range(1, p.n)))


def rho(n: int, m: int) -> Perm:
    """The block swap in S_{n+m}: i -> i+m for i <= n, i -> i-n for i > n.

    This is the unique reading of the block transposition that is a
    bijection for all n, m and satisfies rho(m, n) . rho(n, m) = id.

    >>> rho(2, 1).images
    (2, 3, 1)
    """
    if n < 0 or m < 0:
        raise ValueError(f"block sizes must be >= 0, got n={n}, m={m}")
    return Perm(tuple(i + m if i <= n else i - n for i in range(1, n + m + 1)))


def _bc_generator(tag: str, i: int, n: int) -> SignedPerm:
    images = list(range(1, n + 1))
    if tag == "T":
        images[i - 1], images[i] = images[i], images[i - 1]
    else:
        images[i - 1] = -images[i - 1]
    return SignedPerm(tuple(images))


def eval_bc_word(w: BCWord) -> SignedPerm:
    """Evaluate a hyperoctahedral word (letters left to right, right action)."""
    images = list(range(1, w.ambient + 1))
    for tag, i in w.letters:
        gen = _bc_generator(tag, i, w.ambient)
        images = [
            gen.images[m - 1] if m > 0 else -gen.images[-m - 1] for m in images
        ]
    return SignedPerm(tuple(images))
