"""Bivariate polynomial index functions and their floored-rational variant.

A polynomial index function assigns cell (i, j) the exponent p(i, j) mod m.
Integer-coefficient polynomials satisfy p(i+m, j) = p(i, j) mod m (binomial
expansion: every correction term carries a factor of m), so generated arrays
repeat with period m along both axes.  Coefficients are therefore stored
reduced mod m; only residues can matter.

The floored form divides by n before exponentiating in a base alphabet of
order K: the entry is floor(p(i,j)/n) mod K with p taken mod n*K.  The
canonical representative of p in [0, n*K) is fixed before flooring so that
generation is deterministic; any shift by a multiple of n*K moves the floor by
a multiple of K and leaves the entry unchanged, which expands the repeat
period to n*K along both axes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from .seqmodel import PhaseArray, PhaseSequence, flatten

__all__ = [
    "PolyIndex",
    "FlooredIndex",
    "poly_eval",
    "index_periodicity_check",
    "generate_poly_array",
    "generate_floored_array",
    "column_duplication_witness",
    "index_entry",
    "frank_index",
    "frank_array",
    "frank_sequence",
]


@dataclass(frozen=True)
class PolyIndex:
    """p(x, y) with integer coefficients reduced mod `modulus`.

    `coeffs` maps monomial degree pairs (a, b) to coefficients in [0, m);
    zero coefficients are dropped.  `max_degree` is the enumeration cap, at
    least the largest stored degree in each variable.
    """

    modulus: int
    coeffs: Mapping[tuple[int, int], int]
    max_degree: tuple[int, int] = field(default=(-1, -1))

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        reduced = {}
        for (a, b), c in self.coeffs.items():
            if a < 0 or b < 0:
                raise ValueError(f"monomial degrees must be non-negative, got {(a, b)}")
            c %= self.modulus
            if c:
                reduced[(a, b)] = c
        object.__setattr__(self, "coeffs", reduced)
        deg_x = max((a for a, _ in reduced), default=0)
        deg_y = max((b for _, b in reduced), default=0)
        cap = self.max_degree
        if cap == (-1, -1):
            cap = (deg_x, deg_y)
        if cap[0] < deg_x or cap[1] < deg_y:
            raise ValueError(f"degree cap {cap} below stored degrees {(deg_x, deg_y)}")
        object.__setattr__(self, "max_degree", cap)

    @classmethod
    def from_coeff_vector(
        cls, modulus: int, deg_x: int, deg_y: int, vector
    ) -> "PolyIndex":
        """Build from coefficients listed lexicographically by (a, b):
        (0,0), (0,1), ..., (0,deg_y), (1,0), ..., (deg_x,deg_y)."""
        vector = list(vector)
        width = deg_y + 1
        if len(vector) != (deg_x + 1) * width:
            raise ValueError(
                f"need {(deg_x + 1) * width} coefficients for degree caps "
                f"({deg_x}, {deg_y}), got {len(vector)}"
            )
        coeffs = {
            (a, b): vector[a * width + b]
            for a in range(deg_x + 1)
            for b in range(deg_y + 1)
        }
        return cls(modulus, coeffs, (deg_x, deg_y))

    def coeff_vector(self) -> list[int]:
        deg_x, deg_y = self.max_degree
        width = deg_y + 1
        vec = [0] * ((deg_x + 1) * width)
        for (a, b), c in self.coeffs.items():
            vec[a * width + b] = c
        return vec


def _coeff_rows(p: PolyIndex) -> list[list[int]]:
    """The coefficients as rows in y, highest power of x first and, within a
    row, highest power of y first: the order the Horner evaluation reads."""
    deg_x, deg_y = p.max_degree
    return [
        [p.coeffs.get((a, b), 0) for b in range(deg_y, -1, -1)]
        for a in range(deg_x, -1, -1)
    ]


def _horner(rows: list[list[int]], m: int, i: int, j: int) -> int:
    total = 0
    for coeffs in rows:
        row = 0
        for c in coeffs:
            row = (row * j + c) % m
        total = (total * i + row) % m
    return total


def poly_eval(p: PolyIndex, i: int, j: int) -> int:
    """Evaluate p(i, j) reduced into [0, modulus), Horner style in both
    variables with intermediate mod reduction."""
    return _horner(_coeff_rows(p), p.modulus, i, j)


@dataclass(frozen=True)
class FlooredIndex:
    """Floored-rational index function: entry exponent floor(p(i,j)/n) mod K,
    with p reduced into [0, n*K) first.  The polynomial modulus must be n*K."""

    poly: PolyIndex
    divisor: int
    base_order: int

    def __post_init__(self) -> None:
        if self.divisor < 1 or self.base_order < 1:
            raise ValueError("divisor and base order must be positive")
        if self.poly.modulus != self.divisor * self.base_order:
            raise ValueError(
                f"polynomial modulus {self.poly.modulus} != "
                f"divisor*base_order {self.divisor * self.base_order}"
            )


IndexFunction = Union[PolyIndex, FlooredIndex]


def index_entry(fn: IndexFunction, i: int, j: int) -> int:
    """Exponent generated at cell (i, j) by either kind of index function."""
    if isinstance(fn, FlooredIndex):
        return (poly_eval(fn.poly, i, j) // fn.divisor) % fn.base_order
    return poly_eval(fn, i, j)


def index_periodicity_check(
    p: PolyIndex, trials: int, rng: Optional[random.Random] = None
) -> bool:
    """Check p(i+m, j) = p(i, j) = p(i, j+m) mod m at `trials` random points.

    This always holds for integer-coefficient polynomials; a False return
    means the evaluator is broken, which is the point of the check.
    """
    rng = rng or random.Random(0)
    m = p.modulus
    span = 10 * m + 10
    for _ in range(trials):
        i = rng.randrange(-span, span)
        j = rng.randrange(-span, span)
        base = poly_eval(p, i, j)
        if poly_eval(p, i + m, j) != base or poly_eval(p, i, j + m) != base:
            return False
    return True


def _exponents(p: PolyIndex, rows: int, cols: int, divisor: int) -> tuple[int, ...]:
    """Row-major (p(i, j) mod m) // divisor of the R x C array, each from the
    exact integer p(i, j): column j holds the x-power rows' y-polynomials at
    j, and each of its cells one Horner pass in i over them."""
    m = p.modulus
    coeffs = _coeff_rows(p)
    columns = []
    for j in range(cols):
        ys = []
        for row in coeffs:
            acc = 0
            for c in row:
                acc = acc * j + c
            ys.append(acc)
        values = [ys[0]] * rows
        for y in ys[1:]:
            values = [v * i + y for i, v in enumerate(values)]
        columns.append([v % m // divisor for v in values])
    return tuple(itertools.chain.from_iterable(zip(*columns)))


def generate_poly_array(p: PolyIndex, rows: int, cols: int) -> PhaseArray:
    """R x C array with entry (i, j) carrying exponent p(i, j) mod m; the
    alphabet order is the polynomial modulus.  Each column evaluates its
    y-polynomials once at its own j and each cell one Horner pass in i, on
    unreduced i and j, so the array's periodicity is never assumed."""
    return PhaseArray(p.modulus, rows, cols, _exponents(p, rows, cols, 1))


def generate_floored_array(f: FlooredIndex, rows: int, cols: int) -> PhaseArray:
    """R x C array over the base alphabet K with entry floor(p(i,j)/n) mod K,
    from the same column-by-column evaluation as `generate_poly_array`."""
    return PhaseArray(f.base_order, rows, cols, _exponents(f.poly, rows, cols, f.divisor))


def column_duplication_witness(
    fn: IndexFunction, period: int, rows: int
) -> tuple[int, int]:
    """Materialise columns j = 0 and j = period and verify they are equal
    entrywise, returning the duplicated pair (0, period).

    `period` is the generation period along j: the modulus for a plain
    polynomial, n*K for a floored index.  Inequality would contradict the
    modular periodicity of polynomial evaluation and raises.
    """
    expected = fn.modulus if isinstance(fn, PolyIndex) else fn.divisor * fn.base_order
    if period != expected:
        raise ValueError(f"period {period} does not match index function period {expected}")
    for i in range(rows):
        left = index_entry(fn, i, 0)
        right = index_entry(fn, i, period)
        if left != right:
            raise AssertionError(
                f"columns 0 and {period} differ at row {i}: {left} != {right}"
            )
    return (0, period)


def frank_index(n: int) -> PolyIndex:
    """Index function of the classical n-phase construction: p(x, y) = x*y."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    return PolyIndex(n, {(1, 1): 1})


def frank_array(n: int) -> PhaseArray:
    """The n x n array with entry (i, j) carrying exponent i*j mod n."""
    return generate_poly_array(frank_index(n), n, n)


def frank_sequence(n: int) -> PhaseSequence:
    """Length n^2 row-major flattening of the Frank array."""
    return flatten(frank_array(n))
