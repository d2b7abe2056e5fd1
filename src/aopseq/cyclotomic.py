"""Exact arithmetic over the cyclotomic integers Z[w], w a primitive n-th root
of unity.

Elements use the group-ring representation: a vector of n integer
coefficients, entry e counting occurrences of w^e.  This keeps correlation
accumulation allocation-light (adding a root of unity is a single counter
increment) and defers all reduction to the zero test, which decides by the
structure of vanishing sums (Lam & Leung, "On vanishing sums of roots of
unity", J. Algebra 2000):

- For a prime power n = p^k with s = n/p, the sum vanishes iff every coset
  of the order-p subgroup {w^(ts)} carries one constant count, i.e. iff
  c[e] == c[e + s] for every e < n - s.  The minimal polynomial of w is
  Phi_p(X^s), of degree n - s, and the map c -> (c[e] - c[e + s]) for
  e < n - s is onto Z^(n - s) with the same kernel as evaluation at w.
- For n = q_1 ... q_k, k >= 2 pairwise coprime prime powers, e -> (e mod q_i)
  identifies Z[w_n] with the tensor product of the Z[w_(q_i)], whose power
  bases multiply to a Z-basis.  Evaluation at w is then the tensor product
  of the prime-power maps above, so the sum vanishes iff its k-fold mixed
  difference (coordinate i shifted by s_i = q_i/p_i) is 0 at every point x
  with x_i < q_i - s_i.

Both tests are integer comparisons, so every orthogonality verdict in this
package is an integer computation, never a floating-point guess.
`reduction_rows` (division by the cyclotomic polynomial) stays as the
independent reference the tests compare the structural test against.

Coefficients are plain Python integers and therefore cannot overflow or wrap.

A float view (`complex(value)`) exists for cross-checks and CSV output; it
never decides a verdict.  When the module-level audit is enabled, every exact
zero test is additionally evaluated numerically and exact/float disagreements
are counted (see `ConcordanceAudit`).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import product
from operator import itemgetter, mul, sub

__all__ = [
    "CyclotomicInt",
    "CyclotomicPolynomial",
    "cyclotomic_polynomial",
    "counts_is_zero",
    "counts_to_complex",
    "root_table",
    "reduction_rows",
    "ConcordanceAudit",
    "audit",
    "FLOAT_ZERO_TOLERANCE",
]

# Relative magnitude below which the float view of a value is judged "zero";
# scaled by the sum of absolute coefficients because worst-case rounding grows
# with the number of accumulated terms.
FLOAT_ZERO_TOLERANCE = 1e-9


class ConcordanceAudit:
    """Tally of exact-vs-float zero-verdict comparisons.

    Enabled around a block of work, each exact zero test also evaluates the
    value numerically and compares the verdicts; `disagreements` must stay 0.
    Process-local: parallel search workers enable their own audit and return
    the counters with their results.
    """

    __slots__ = ("enabled", "checked", "disagreements")

    def __init__(self) -> None:
        self.enabled = False
        self.checked = 0
        self.disagreements = 0

    def start(self) -> None:
        self.enabled = True
        self.checked = 0
        self.disagreements = 0

    def stop(self) -> tuple[int, int]:
        self.enabled = False
        return self.checked, self.disagreements

    def record(self, exact_zero: bool, coeffs, order: int) -> None:
        mass = sum(map(abs, coeffs))
        value = counts_to_complex(coeffs, order)
        float_zero = abs(value) < FLOAT_ZERO_TOLERANCE * max(mass, 1)
        self.checked += 1
        if float_zero != exact_zero:
            self.disagreements += 1


audit = ConcordanceAudit()


@dataclass(frozen=True)
class CyclotomicPolynomial:
    """Dense integer coefficients (low to high) of the n-th cyclotomic
    polynomial, the minimal polynomial of a primitive n-th root of unity."""

    order: int
    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # Exact division of integer polynomials; denominator must be monic.
    if den[-1] != 1:
        raise AssertionError(f"divisor {den} is not monic")
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(len(num) - deg_d, 1)
    for k in range(len(num) - 1, deg_d - 1, -1):
        c = num[k]
        if c == 0:
            continue
        quot[k - deg_d] = c
        for e in range(deg_d + 1):
            num[k - deg_d + e] -= c * den[e]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> CyclotomicPolynomial:
    """Compute the cyclotomic polynomial of the given order.

    X^n - 1 is divided exactly by the cyclotomic polynomials of all proper
    divisors of n; the memo table makes repeated zero tests cheap.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    poly = [-1] + [0] * (order - 1) + [1]  # X^n - 1
    for d in range(1, order):
        if order % d == 0:
            phi_d = list(cyclotomic_polynomial(d).coefficients)
            poly, rem = _poly_divmod(poly, phi_d)
            if rem != [0]:
                raise AssertionError(f"non-exact division for order {order} by {d}")
    return CyclotomicPolynomial(order, tuple(poly))


@functools.lru_cache(maxsize=None)
def reduction_rows(order: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the linear map sending a length-n coefficient vector to the
    remainder of its polynomial modulo the cyclotomic polynomial.

    Row d, column e holds the coefficient of X^d in (X^e mod Phi_n).  A value
    is zero in the ring iff every row contracted with its coefficient vector
    vanishes.  This is the division-based reference for `counts_is_zero`;
    it costs phi(n) x n integers per order, so no verdict path uses it.
    """
    phi = cyclotomic_polynomial(order).coefficients
    deg = len(phi) - 1
    columns: list[list[int]] = []
    for e in range(order):
        mono = [0] * e + [1]
        _, rem = _poly_divmod(mono, list(phi))
        rem += [0] * (deg - len(rem))
        columns.append(rem[:deg] if deg > 0 else [])
    rows = tuple(tuple(columns[e][d] for e in range(order)) for d in range(deg))
    return rows


@functools.lru_cache(maxsize=None)
def root_table(order: int) -> tuple[complex, ...]:
    """Powers of the primitive root exp(2*pi*1j/order), indexed by exponent."""
    return tuple(cmath.exp(2j * math.pi * (e / order)) for e in range(order))


def _prime_power_factors(order: int) -> list[tuple[int, int]]:
    """(p, p^a) for each prime p dividing `order` exactly a times."""
    factors, p = [], 2
    while order > 1:
        if p * p > order:
            p = order
        q = 1
        while order % p == 0:
            order //= p
            q *= p
        if q > 1:
            factors.append((p, q))
        p += 1
    return factors


def _zero_plan(order: int) -> tuple:
    """(s, stages) for `counts_is_zero`.

    The axes are the prime-power factors q_i = p_i^a_i of `order`, largest
    prime first; exponent e sits at the point (e mod q_0, e mod q_1, ...).
    Each stage is a pair of `itemgetter` gathers whose difference is the
    difference along one axis i > 0 (shift s_i = q_i/p_i, keeping the box
    x_i < q_i - s_i), laid out row-major.  Axis 0 is outermost, so its
    difference is the slice comparison at offset s.  A prime power has no
    stage and s = q/p; order 1 has s = 0.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    factors = sorted(_prime_power_factors(order), reverse=True)
    if not factors:
        return 0, ()
    # CRT: unit i is 1 mod q_i and 0 mod every other factor
    units = [(order // q) * pow(order // q, -1, q) for _, q in factors]
    sizes = [q for _, q in factors]
    position = {x: sum(map(mul, x, units)) % order for x in product(*map(range, sizes))}
    stages = []
    for i, (p, q) in enumerate(factors[1:], 1):
        step = q // p
        sizes[i] = q - step
        points = list(product(*map(range, sizes)))
        shifted = [x[:i] + (x[i] + step,) + x[i + 1 :] for x in points]
        stages.append((itemgetter(*[position[x] for x in points]),
                       itemgetter(*[position[x] for x in shifted])))
        position = {x: j for j, x in enumerate(points)}
    p, q = factors[0]
    return (q // p) * math.prod(sizes[1:]), tuple(stages)


_zero_plans: dict[int, tuple] = {}


def counts_is_zero(coeffs, order: int) -> bool:
    """Exact zero test on a raw coefficient vector (no object wrapper).

    This is the hot-loop form used by the correlation kernels and the search
    engine; `CyclotomicInt.is_zero` delegates here.  It decides by the
    structural criterion of the module docstring: the mixed difference over
    the coprime prime-power factors of `order` must vanish on its box, which
    at a prime power is one slice comparison.  `coeffs` is a list or tuple
    of `order` integers.
    """
    try:
        s, stages = _zero_plans[order]
    except KeyError:
        s, stages = _zero_plans[order] = _zero_plan(order)
    diff = coeffs
    for plus, minus in stages:
        diff = list(map(sub, plus(diff), minus(diff)))
    result = diff[:-s] == diff[s:] if s else not diff[0]
    if audit.enabled:
        audit.record(result, coeffs, order)
    return result


def counts_to_complex(coeffs, order: int) -> complex:
    # zero terms add +-0 to a sum that starts at +0j and never reaches -0.0,
    # so they leave it bit for bit as if they had been skipped
    return sum(map(mul, coeffs, root_table(order)), 0j)


@dataclass(frozen=True)
class CyclotomicInt:
    """An element of Z[w] with w = exp(2*pi*1j/order).

    `coeffs[e]` counts occurrences of w^e; the vector always has exactly
    `order` entries.  Values are immutable; all operations return new values
    and are safe to call concurrently.

    Note that `==` compares representations.  Two distinct coefficient
    vectors can name the same ring element (their difference is divisible by
    the cyclotomic polynomial); use `equals` for ring equality.
    """

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.order:
            raise ValueError(
                f"coefficient vector has {len(self.coeffs)} entries, "
                f"expected {self.order}"
            )

    @classmethod
    def zero(cls, order: int) -> "CyclotomicInt":
        return cls(order, (0,) * order)

    @classmethod
    def one(cls, order: int) -> "CyclotomicInt":
        return cls.integer(order, 1)

    @classmethod
    def integer(cls, order: int, value: int) -> "CyclotomicInt":
        return cls(order, (value,) + (0,) * (order - 1))

    @classmethod
    def root(cls, order: int, exponent: int) -> "CyclotomicInt":
        coeffs = [0] * order
        coeffs[exponent % order] = 1
        return cls(order, tuple(coeffs))

    def is_zero(self) -> bool:
        """True iff the element is 0 in Z[w], i.e. the represented polynomial
        is divisible by the cyclotomic polynomial of its order."""
        return counts_is_zero(self.coeffs, self.order)

    def equals(self, other: "CyclotomicInt") -> bool:
        """Ring equality: the difference represents zero."""
        return (self - other).is_zero()

    def _same_order(self, other: "CyclotomicInt") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")

    def conjugate(self) -> "CyclotomicInt":
        """Complex conjugation: w^e maps to w^(n-e)."""
        return CyclotomicInt(self.order, (self.coeffs[0],) + self.coeffs[:0:-1])

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._same_order(other)
        return CyclotomicInt(self.order, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._same_order(other)
        return CyclotomicInt(self.order, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.order, tuple(-x for x in self.coeffs))

    def __mul__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        """Full product (cyclic convolution of coefficient vectors)."""
        self._same_order(other)
        n = self.order
        out = [0] * n
        for e1, c1 in enumerate(self.coeffs):
            if c1 == 0:
                continue
            for e2, c2 in enumerate(other.coeffs):
                if c2:
                    out[(e1 + e2) % n] += c1 * c2
        return CyclotomicInt(n, tuple(out))

    def __complex__(self) -> complex:
        """Double-precision value; advisory only, never decides verdicts."""
        return counts_to_complex(self.coeffs, self.order)

