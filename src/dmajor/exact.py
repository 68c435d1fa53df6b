"""Exact rational scalars, vectors, permutations and dense matrices.

Every quantity in this package is a :class:`fractions.Fraction`; no floating
point enters any decision procedure.  Vectors and matrices are immutable and
safe to share between threads.  :func:`eliminate` is the one exact
Gauss-Jordan step: :class:`RMatrix` and the simplex in :mod:`dmajor.lp` both
pivot through it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as _itertools_permutations
from typing import Iterable, Iterator, Sequence, Union

RationalLike = Union[Fraction, int, str]

# Largest decimal exponent magnitude parse_rational accepts ("1e1000").
MAX_EXPONENT = 1000
# Largest mantissa digit count plus exponent magnitude of a decimal literal; below
# Python's 4,300-digit int<->str limit, so a parsed value can be written back out.
MAX_DECIMAL_DIGITS = 4000
_EXPONENT = re.compile(r"[eE]([-+]?[0-9][0-9_]*)$")


class DimensionMismatch(ValueError):
    """Operands have incompatible lengths or shapes."""


class NonPositiveWeight(ValueError):
    """A weight vector contains a zero or negative entry."""


class ZeroDenominator(ValueError, ZeroDivisionError):
    """A "p/0" literal: malformed input, not an arithmetic fault."""


def parse_rational(value: RationalLike) -> Fraction:
    """Parse an integer, a "p/q" string or a finite decimal, exactly.

    A zero denominator, an exponent beyond ``MAX_EXPONENT``, or a decimal
    whose mantissa digits plus exponent magnitude exceed ``MAX_DECIMAL_DIGITS``
    is a ValueError.

    >>> parse_rational("0.3")
    Fraction(3, 10)
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"a boolean is not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        exponent = _EXPONENT.search(text)
        power = abs(int(exponent.group(1).replace("_", ""))) if exponent else 0
        if power > MAX_EXPONENT:
            raise ValueError(f"exponent of {text!r} exceeds {MAX_EXPONENT} in magnitude")
        mantissa = text[: exponent.start()] if exponent else text
        if "/" not in text and sum(c.isdigit() for c in mantissa) + power > MAX_DECIMAL_DIGITS:
            raise ValueError(f"decimal literal {text!r} needs over {MAX_DECIMAL_DIGITS} digits")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ZeroDenominator(f"zero denominator in {text!r}") from None
    raise TypeError(f"cannot parse {value!r} as an exact rational")


@dataclass(frozen=True)
class RVec:
    """Immutable vector of exact rationals."""

    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 1:
            raise ValueError("vectors must have length >= 1")
        if not all(isinstance(e, Fraction) for e in self.entries):
            raise TypeError("RVec entries must be Fractions; use RVec.of to coerce")

    @staticmethod
    def of(*values: RationalLike) -> "RVec":
        return RVec(tuple(parse_rational(v) for v in values))

    @staticmethod
    def parse(values: Iterable[RationalLike]) -> "RVec":
        return RVec(tuple(parse_rational(v) for v in values))

    @staticmethod
    def zeros(n: int) -> "RVec":
        return RVec((Fraction(0),) * n)

    @staticmethod
    def ones(n: int) -> "RVec":
        return RVec((Fraction(1),) * n)

    @staticmethod
    def unit(n: int, k: int) -> "RVec":
        """Standard basis vector e_k (0-based k)."""
        return RVec(tuple(Fraction(1 if i == k else 0) for i in range(n)))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def _check_len(self, other: "RVec") -> None:
        if len(self) != len(other):
            raise DimensionMismatch(f"length {len(self)} vs {len(other)}")

    def __add__(self, other: "RVec") -> "RVec":
        self._check_len(other)
        return RVec(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "RVec") -> "RVec":
        self._check_len(other)
        return RVec(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "RVec":
        return RVec(tuple(-a for a in self.entries))

    def __mul__(self, t: RationalLike) -> "RVec":
        t = parse_rational(t)
        return RVec(tuple(a * t for a in self.entries))

    __rmul__ = __mul__

    def total(self) -> Fraction:
        """Sum of entries (the trace functional)."""
        return sum(self.entries, Fraction(0))

    def dot(self, other: "RVec") -> Fraction:
        self._check_len(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def one_norm(self) -> Fraction:
        return sum((abs(a) for a in self.entries), Fraction(0))

    def pos_part(self) -> "RVec":
        return RVec(tuple(max(a, Fraction(0)) for a in self.entries))

    def neg_part(self) -> "RVec":
        return RVec(tuple(max(-a, Fraction(0)) for a in self.entries))

    def sort_descending(self) -> tuple["RVec", "Permutation"]:
        """Sorted copy and the permutation tau with sorted[j] == self[tau(j)].

        Ties keep the smaller original index first.
        """
        order = sorted(range(len(self)), key=lambda i: (-self.entries[i], i))
        tau = Permutation(tuple(order))
        return tau.apply(self), tau

    def is_positive(self) -> bool:
        return all(a > 0 for a in self.entries)

    def is_nonnegative(self) -> bool:
        return all(a >= 0 for a in self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.entries) + ")"


def require_weights(d: RVec) -> RVec:
    """Validate a weight vector: strictly positive entries."""
    if not d.is_positive():
        raise NonPositiveWeight(f"weight vector must be strictly positive, got {d}")
    return d


@dataclass(frozen=True)
class Permutation:
    """Bijection of {0, ..., n-1}; acts on vectors by (sigma . x)_j = x[sigma(j)]."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if sorted(self.image) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.image}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, j: int) -> int:
        return self.image[j]

    def apply(self, v: RVec) -> RVec:
        if len(v) != self.n:
            raise DimensionMismatch(f"permutation on {self.n} points, vector length {len(v)}")
        return RVec(tuple(v.entries[j] for j in self.image))

    def compose(self, other: "Permutation") -> "Permutation":
        """(self compose other)(j) = self(other(j))."""
        if self.n != other.n:
            raise DimensionMismatch("permutations of different sizes")
        return Permutation(tuple(self.image[other.image[j]] for j in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for j, k in enumerate(self.image):
            inv[k] = j
        return Permutation(tuple(inv))

    def matrix(self) -> "RMatrix":
        """Matrix P with P[i][sigma(i)] = 1, so that P @ x == self.apply(x)."""
        rows = [[Fraction(0)] * self.n for _ in range(self.n)]
        for i in range(self.n):
            rows[i][self.image[i]] = Fraction(1)
        return RMatrix(tuple(tuple(r) for r in rows))

    def one_based(self) -> tuple[int, ...]:
        return tuple(j + 1 for j in self.image)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations in lexicographic image order."""
    for image in _itertools_permutations(range(n)):
        yield Permutation(image)


def eliminate(rows: list[list[Fraction]], prow: int, pcol: int) -> None:
    """Scale row ``prow`` to a 1 at ``pcol``, then clear ``pcol`` elsewhere.

    The one exact Gauss-Jordan step, in place; zero factors and zero entries
    of the pivot row are skipped.
    """
    lead = rows[prow][pcol]
    pivot = rows[prow] = [a / lead for a in rows[prow]]
    for r, row in enumerate(rows):
        factor = row[pcol]
        if r == prow or factor == 0:
            continue
        rows[r] = [a - factor * b if b else a for a, b in zip(row, pivot)]


@dataclass(frozen=True)
class RMatrix:
    """Dense matrix of exact rationals, stored row-major."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("matrix must have at least one row")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("ragged rows")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[RationalLike]]) -> "RMatrix":
        return RMatrix(tuple(tuple(parse_rational(v) for v in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "RMatrix":
        return RMatrix(
            tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))
        )

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def row(self, i: int) -> RVec:
        return RVec(self.rows[i])

    def col(self, j: int) -> RVec:
        return RVec(tuple(r[j] for r in self.rows))

    def matvec(self, v: RVec) -> RVec:
        if len(v) != self.ncols:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} matrix times length-{len(v)} vector")
        return RVec(tuple(self.row(i).dot(v) for i in range(self.nrows)))

    def matmul(self, other: "RMatrix") -> "RMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch("inner dimensions differ")
        cols = [other.col(j) for j in range(other.ncols)]
        return RMatrix(
            tuple(tuple(self.row(i).dot(c) for c in cols) for i in range(self.nrows))
        )

    def _reduced(self, extra: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], int]:
        """Reduced row echelon form of [A | extra] by exact Gauss-Jordan.

        Pivots are taken in the columns of A only, so ``extra`` (one tail
        per row) is carried along.  Returns the rows and the rank of A.
        """
        m, n = self.nrows, self.ncols
        work = [list(row) + list(tail) for row, tail in zip(self.rows, extra)]
        rank = 0
        for col in range(n):
            pivot = next((r for r in range(rank, m) if work[r][col] != 0), None)
            if pivot is None:
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            eliminate(work, rank, col)
            rank += 1
            if rank == m:
                break
        return work, rank

    def rank(self) -> int:
        return self._reduced([()] * self.nrows)[1]

    def solve(self, rhs: RVec) -> RVec | None:
        """Exact solution of a square system; None if singular."""
        n = self.nrows
        if self.ncols != n or len(rhs) != n:
            raise DimensionMismatch("solve requires a square system with a matching rhs")
        work, rank = self._reduced([(b,) for b in rhs])
        if rank < n:
            return None
        return RVec(tuple(row[n] for row in work))

    def inverse(self) -> "RMatrix | None":
        """Exact inverse; None if singular."""
        n = self.nrows
        if self.ncols != n:
            raise DimensionMismatch("only square matrices can be inverted")
        work, rank = self._reduced(RMatrix.identity(n).rows)
        if rank < n:
            return None
        return RMatrix(tuple(tuple(row[n:]) for row in work))

    def one_to_one_norm(self) -> Fraction:
        """Operator norm on (R^n, ||.||_1): the maximum absolute column sum."""
        return max(self.col(j).one_norm() for j in range(self.ncols))

    def __str__(self) -> str:
        return "\n".join("[" + "  ".join(str(a) for a in row) + "]" for row in self.rows)
