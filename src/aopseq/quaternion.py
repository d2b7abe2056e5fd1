"""The eight unit quaternions and sequence correlation over them.

Units are indexed 0..7 as [1, -1, i, -i, j, -j, k, -k]: basis = index >> 1,
sign bit = index & 1.  Products are precomputed into an 8x8 table from the
basis rules i*i = j*j = k*k = -1, i*j = k, j*k = i, k*i = j, with reversal
flipping the sign (i*j = -j*i and cyclically).  Every structural fact the
table encodes is re-checkable against independent 4-vector arithmetic via
`structure_check`.

Multiplication does not commute, so a sequence has two autocorrelations:

    right:  theta(tau) = sum_i s[i] * conj(s[i + tau])
    left:   theta(tau) = sum_i conj(s[i]) * s[i + tau]

Each value is a sum of units, the products read from one table per
convention (`PAIR_PRODUCT`), kept as an exact integer 4-vector.  A sequence
is perfect under a convention when every off-peak value is the zero vector;
the peak is always (L, 0, 0, 0) because q * conj(q) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import getitem
from typing import Iterable, Sequence

__all__ = [
    "UNIT_SYMBOLS",
    "MUL",
    "CONJ",
    "NEG",
    "VEC",
    "PAIR_PRODUCT",
    "QuatUnit",
    "QuaternionSequence",
    "vector_mul",
    "quat_autocorrelate",
    "quat_is_perfect",
    "structure_check",
]

UNIT_SYMBOLS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")

# Basis products e_a * e_b -> (basis, sign bit), bases 0..3 = 1, i, j, k.
_BASIS_MUL = (
    ((0, 0), (1, 0), (2, 0), (3, 0)),
    ((1, 0), (0, 1), (3, 0), (2, 1)),  # i*i=-1, i*j=k, i*k=-j
    ((2, 0), (3, 1), (0, 1), (1, 0)),  # j*i=-k, j*j=-1, j*k=i
    ((3, 0), (2, 0), (1, 1), (0, 1)),  # k*i=j, k*j=-i, k*k=-1
)


def _build_mul() -> tuple[tuple[int, ...], ...]:
    table = []
    for u in range(8):
        row = []
        for v in range(8):
            basis, flip = _BASIS_MUL[u >> 1][v >> 1]
            row.append(basis * 2 + ((u & 1) ^ (v & 1) ^ flip))
        table.append(tuple(row))
    return tuple(table)


MUL = _build_mul()

# conj fixes +-1 and flips the sign of i, j, k.
CONJ = tuple(u if u >> 1 == 0 else u ^ 1 for u in range(8))

NEG = tuple(u ^ 1 for u in range(8))

# Per convention, the unit that the pair (s[i], s[i + tau]) contributes to
# theta(tau): row a, column b holds a * conj(b) (right) or conj(a) * b (left).
PAIR_PRODUCT = {
    "right": tuple(tuple(MUL[a][CONJ[b]] for b in range(8)) for a in range(8)),
    "left": tuple(tuple(MUL[CONJ[a]][b] for b in range(8)) for a in range(8)),
}

# 4-vector (w, x, y, z) form of each unit, the independent representation.
VEC = tuple(
    tuple((1 if u & 1 == 0 else -1) if axis == u >> 1 else 0 for axis in range(4))
    for u in range(8)
)


def vector_mul(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int, int]:
    """Hamilton product of two integer 4-vectors."""
    w1, x1, y1, z1 = u
    w2, x2, y2, z2 = v
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


@dataclass(frozen=True)
class QuatUnit:
    """One of the eight units, wrapped for readable client code."""

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index <= 7:
            raise ValueError(f"unit index must be in 0..7, got {self.index}")

    @classmethod
    def from_symbol(cls, symbol: str) -> "QuatUnit":
        try:
            return cls(UNIT_SYMBOLS.index(symbol))
        except ValueError:
            raise ValueError(f"unknown unit symbol {symbol!r}") from None

    @property
    def symbol(self) -> str:
        return UNIT_SYMBOLS[self.index]

    def __mul__(self, other: "QuatUnit") -> "QuatUnit":
        return QuatUnit(MUL[self.index][other.index])

    def __neg__(self) -> "QuatUnit":
        return QuatUnit(NEG[self.index])

    def conjugate(self) -> "QuatUnit":
        return QuatUnit(CONJ[self.index])


@dataclass(frozen=True)
class QuaternionSequence:
    """Periodic sequence of unit indices."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.indices:
            raise ValueError("sequence must be non-empty")
        for u in self.indices:
            if not 0 <= u <= 7:
                raise ValueError(f"unit index must be in 0..7, got {u}")
        object.__setattr__(self, "indices", tuple(self.indices))

    @classmethod
    def from_symbols(cls, symbols: Iterable[str]) -> "QuaternionSequence":
        return cls(tuple(QuatUnit.from_symbol(s).index for s in symbols))

    @property
    def length(self) -> int:
        return len(self.indices)

    def symbols(self) -> tuple[str, ...]:
        return tuple(UNIT_SYMBOLS[u] for u in self.indices)


def _product_rows(seq: QuaternionSequence, convention: str) -> list:
    """The `PAIR_PRODUCT` row of each unit of the sequence."""
    if convention not in PAIR_PRODUCT:
        raise ValueError(f"convention must be 'right' or 'left', got {convention!r}")
    return [PAIR_PRODUCT[convention][a] for a in seq.indices]


def _product_counts(rows: list, s: tuple[int, ...], tau: int) -> list[int]:
    """How often each unit occurs among the L products at shift tau, where
    rows[i] is the product row of s[i]."""
    count = [0] * 8
    for p in map(getitem, rows, s[tau:] + s[:tau]):
        count[p] += 1
    return count


def quat_autocorrelate(
    seq: QuaternionSequence, convention: str = "right"
) -> tuple[tuple[int, int, int, int], ...]:
    """All L periodic autocorrelation values as integer 4-vectors.

    convention "right" pairs s[i] with conj(s[i+tau]) on the right,
    "left" puts the conjugate on the first factor instead.  Component c of
    a value is the number of products equal to unit 2c less the number
    equal to unit 2c + 1, its negative.
    """
    rows = _product_rows(seq, convention)
    s = seq.indices
    values = []
    for tau in range(len(s)):
        count = _product_counts(rows, s, tau)
        values.append(tuple(count[2 * c] - count[2 * c + 1] for c in range(4)))
    return tuple(values)


def quat_is_perfect(seq: QuaternionSequence, convention: str = "right") -> bool:
    """True when every off-peak autocorrelation value is the zero 4-vector,
    decided shift by shift and stopping at the first nonzero one."""
    rows = _product_rows(seq, convention)
    s = seq.indices
    for tau in range(1, len(s)):
        count = _product_counts(rows, s, tau)
        # a value is zero when each unit occurs as often as its negative
        if count[0::2] != count[1::2]:
            return False
    return True


def structure_check() -> dict[str, int]:
    """Re-derive the unit tables from 4-vector arithmetic and confirm the
    group structure: table vs Hamilton product on all 64 pairs, conj as an
    anti-automorphism, q*conj(q) = 1, anticommutation of distinct imaginary
    bases, and associativity over all 512 triples.  Raises on any mismatch.
    """
    counts = {"pairs": 0, "conj_pairs": 0, "norms": 0, "anticommute": 0, "triples": 0}
    vec_to_unit = {VEC[u]: u for u in range(8)}
    for a in range(8):
        for b in range(8):
            expected = vec_to_unit[vector_mul(VEC[a], VEC[b])]
            if MUL[a][b] != expected:
                raise AssertionError(
                    f"table product {UNIT_SYMBOLS[a]}*{UNIT_SYMBOLS[b]} = "
                    f"{UNIT_SYMBOLS[MUL[a][b]]}, 4-vector gives {UNIT_SYMBOLS[expected]}"
                )
            counts["pairs"] += 1
            if CONJ[MUL[a][b]] != MUL[CONJ[b]][CONJ[a]]:
                raise AssertionError(
                    f"conj({UNIT_SYMBOLS[a]}*{UNIT_SYMBOLS[b]}) != "
                    f"conj({UNIT_SYMBOLS[b]})*conj({UNIT_SYMBOLS[a]})"
                )
            counts["conj_pairs"] += 1
    for a in range(8):
        if MUL[a][CONJ[a]] != 0 or MUL[CONJ[a]][a] != 0:
            raise AssertionError(f"{UNIT_SYMBOLS[a]} * its conjugate is not 1")
        counts["norms"] += 1
    # Distinct imaginary bases anticommute: ab = -(ba).
    for a in (2, 4, 6):
        for b in (2, 4, 6):
            if a == b:
                continue
            if MUL[a][b] != NEG[MUL[b][a]]:
                raise AssertionError(
                    f"{UNIT_SYMBOLS[a]} and {UNIT_SYMBOLS[b]} do not anticommute"
                )
            counts["anticommute"] += 1
    for a in range(8):
        for b in range(8):
            ab = MUL[a][b]
            for c in range(8):
                if MUL[ab][c] != MUL[a][MUL[b][c]]:
                    raise AssertionError(
                        f"associativity fails at "
                        f"({UNIT_SYMBOLS[a]}, {UNIT_SYMBOLS[b]}, {UNIT_SYMBOLS[c]})"
                    )
                counts["triples"] += 1
    return counts
