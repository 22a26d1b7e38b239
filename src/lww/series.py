"""Exact truncated power series in z over the rationals.

ZSeries is the arithmetic substrate for every identity check: a tuple of
Fraction coefficients c_0..c_{nmax}, closed under ring ops at fixed
truncation order. SpatialSeries maps lattice points (or finite-graph
vertices) to ZSeries with finite support.

The kernels (product, exp, log1p, reciprocal, sums of many series, spatial
convolution and inverse) are integer-scaled: each operand is scaled once to
integer numerators over one common denominator (the lcm of its
denominators), the recurrence runs on Python ints, and a normalised Fraction
is built only for each output coefficient (the shared ZERO when it
vanishes). Coefficients in and out are normalised Fractions (an int
coefficient is read as n/1), and every result is the same exact rational
the schoolbook Fraction recurrence gives, so serialised outputs cannot
change; there is no knob choosing between the two. Every product of two
series runs this one kernel, whatever the sparsity of its factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from operator import add

from .core import PreconditionError

ZERO = Fraction(0)
ONE = Fraction(1)


def _scaled(coeffs) -> tuple:
    """(nums, den) with coeffs[k] == nums[k] / den, den the lcm of the denominators."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _fractions(nums, dens) -> tuple:
    """Normalised Fraction coefficients nums[k] / dens[k]."""
    return tuple(Fraction(x, d) if x else ZERO for x, d in zip(nums, dens))


def _cauchy(a, b, out: list) -> list:
    """Add into `out` the product of the sparse int rows a, b ((k, value)
    pairs sorted by k), truncated at len(out)."""
    n = len(out)
    for i, ai in a:
        for j, bj in b:
            if i + j >= n:
                break
            out[i + j] += ai * bj
    return out


def _support(nums) -> list:
    return [(k, v) for k, v in enumerate(nums) if v]


@dataclass(frozen=True)
class ZSeries:
    coeffs: tuple  # length nmax+1

    @property
    def nmax(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def zero(nmax: int) -> "ZSeries":
        return ZSeries((ZERO,) * (nmax + 1))

    @staticmethod
    def one(nmax: int) -> "ZSeries":
        return ZSeries((ONE,) + (ZERO,) * nmax)

    @staticmethod
    def const(c, nmax: int) -> "ZSeries":
        return ZSeries((Fraction(c),) + (ZERO,) * nmax)

    @staticmethod
    def monomial(c, power: int, nmax: int) -> "ZSeries":
        if power > nmax:
            return ZSeries.zero(nmax)
        co = [ZERO] * (nmax + 1)
        co[power] = Fraction(c)
        return ZSeries(tuple(co))

    @staticmethod
    def of(coeffs, nmax: int) -> "ZSeries":
        co = [Fraction(c) for c in coeffs][: nmax + 1]
        co += [ZERO] * (nmax + 1 - len(co))
        return ZSeries(tuple(co))

    @staticmethod
    def sum(series, nmax: int) -> "ZSeries":
        """Sum of an iterable of series at order nmax, each coefficient built once."""
        acc = SeriesSum(nmax)
        for s in series:
            acc.add(s)
        return acc.value()

    def _check(self, other: "ZSeries"):
        if self.nmax != other.nmax:
            raise PreconditionError("mismatched truncation orders")

    def __add__(self, other: "ZSeries") -> "ZSeries":
        self._check(other)
        return ZSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        self._check(other)
        return ZSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "ZSeries":
        return ZSeries(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, ZSeries):
            c = Fraction(other)
            return ZSeries(tuple(c * a for a in self.coeffs))
        self._check(other)
        n = len(self.coeffs)
        (na, da), (nb, db) = _scaled(self.coeffs), _scaled(other.coeffs)
        out = _cauchy(_support(na), _support(nb), [0] * n)
        return ZSeries(_fractions(out, [da * db] * n))

    __rmul__ = __mul__

    def shift(self, k: int) -> "ZSeries":
        """Multiply by z^k."""
        if k == 0:
            return self
        n = self.nmax
        return ZSeries((ZERO,) * min(k, n + 1) + self.coeffs[: max(0, n + 1 - k)])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def leq(self, other: "ZSeries") -> bool:
        """Coefficientwise <=."""
        self._check(other)
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs))

    def nonneg(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def derivative(self) -> "ZSeries":
        """d/dz on coefficients; the top coefficient is lost to truncation."""
        n = self.nmax
        co = [Fraction(k) * self.coeffs[k] for k in range(1, n + 1)] + [ZERO]
        return ZSeries(tuple(co))

    def eval_at(self, z) -> Fraction:
        z = Fraction(z)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def to_json(self) -> list:
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]

    @staticmethod
    def from_json(data, nmax=None) -> "ZSeries":
        co = [Fraction(s) for s in data]
        return ZSeries.of(co, nmax if nmax is not None else len(co) - 1)


class SeriesSum:
    """Running exact sum of series at one order: integer numerators over one
    common denominator, so no Fraction is built before value()."""

    def __init__(self, nmax: int):
        self.nums = [0] * (nmax + 1)
        self.den = 1

    def _widen(self, den: int) -> None:
        """Move to the common denominator den, a multiple of the current one."""
        if den != self.den:
            scale = den // self.den
            self.nums = [x * scale for x in self.nums]
            self.den = den

    def add(self, s: ZSeries) -> None:
        co = s.coeffs
        if len(co) != len(self.nums):
            raise PreconditionError("mismatched truncation orders")
        self._widen(lcm(self.den, *[c.denominator for c in co]))
        nums, den = self.nums, self.den
        for k, c in enumerate(co):
            if c:
                nums[k] += c.numerator * (den // c.denominator)

    def add_term(self, k: int, c) -> None:
        """Add c z^k."""
        self._widen(lcm(self.den, c.denominator))
        self.nums[k] += c.numerator * (self.den // c.denominator)

    def value(self) -> ZSeries:
        return ZSeries(_fractions(self.nums, [self.den] * len(self.nums)))


def exp_series(a: ZSeries) -> ZSeries:
    """Truncated exp(a); a must have zero constant term (keeps coefficients rational).

    With a_j = A_j / D: k e_k = sum_j j a_j e_{k-j}, so e_k = F_k / (k! D^k)
    with integers F_0 = 1, F_k = sum_j j A_j D^{j-1} F_{k-j} (k-1)!/(k-j)!.
    """
    if a.coeffs[0] != 0:
        raise PreconditionError("exp needs zero constant term")
    nums, den = _scaled(a.coeffs)
    n = len(nums)
    fact = [factorial(k) for k in range(n)]
    terms = [(j, j * v * den ** (j - 1)) for j, v in _support(nums)]
    f = [1] + [0] * (n - 1)
    for k in range(1, n):
        f[k] = sum(t * f[k - j] * (fact[k - 1] // fact[k - j]) for j, t in terms if j <= k)
    return ZSeries(_fractions(f, [fact[k] * den**k for k in range(n)]))


def reciprocal(a: ZSeries) -> ZSeries:
    """Truncated 1/a; a must have nonzero constant term.

    With a_j = A_j / D: r_k = D R_k / A_0^{k+1} with integers R_0 = 1,
    R_k = -sum_{j>=1} A_j A_0^{j-1} R_{k-j}.
    """
    if a.coeffs[0] == 0:
        raise PreconditionError("reciprocal needs nonzero constant term")
    nums, den = _scaled(a.coeffs)
    n = len(nums)
    c0 = nums[0]
    terms = [(j, v * c0 ** (j - 1)) for j, v in _support(nums) if j]
    r = [1] + [0] * (n - 1)
    for k in range(1, n):
        r[k] = -sum(t * r[k - j] for j, t in terms if j <= k)
    return ZSeries(_fractions([den * x for x in r], [c0 ** (k + 1) for k in range(n)]))


def log1p_series(a: ZSeries) -> ZSeries:
    """Truncated log(1+a); a must have zero constant term.

    With a_j = A_j / D, (1 + a) l' = a' gives l_k = L_k / (k D^k) with
    integers L_k = k A_k D^{k-1} - sum_{1<=j<k} A_j D^{j-1} L_{k-j}.
    """
    if a.coeffs[0] != 0:
        raise PreconditionError("log1p needs zero constant term")
    nums, den = _scaled(a.coeffs)
    n = len(nums)
    terms = [(j, v * den ** (j - 1)) for j, v in _support(nums)]
    ell = [0] * n
    for k in range(1, n):
        ell[k] = k * nums[k] * den ** (k - 1) - sum(t * ell[k - j] for j, t in terms if j < k)
    return ZSeries(_fractions(ell, [max(k, 1) * den**k for k in range(n)]))


@dataclass(frozen=True)
class SpatialSeries:
    """Finitely supported map point -> ZSeries at a common truncation order."""

    data: tuple  # sorted tuple of (point, ZSeries) with nonzero series
    nmax: int

    @staticmethod
    def build(mapping: dict, nmax: int) -> "SpatialSeries":
        items = []
        for x, s in mapping.items():
            if not isinstance(s, ZSeries):
                s = ZSeries.of(s, nmax)
            if s.nmax != nmax:
                raise PreconditionError("mismatched truncation orders")
            if not s.is_zero():
                items.append((x, s))
        items.sort(key=lambda kv: kv[0])
        return SpatialSeries(tuple(items), nmax)

    @staticmethod
    def delta(origin, nmax: int) -> "SpatialSeries":
        return SpatialSeries.build({origin: ZSeries.one(nmax)}, nmax)

    @cached_property
    def _index(self) -> dict:
        return dict(self.data)

    def at(self, x) -> ZSeries:
        s = self._index.get(x)
        return ZSeries.zero(self.nmax) if s is None else s

    def support(self):
        return [p for p, _ in self.data]

    def __add__(self, other: "SpatialSeries") -> "SpatialSeries":
        out = dict(self.data)
        for x, s in other.data:
            out[x] = out[x] + s if x in out else s
        return SpatialSeries.build(out, self.nmax)

    def __sub__(self, other: "SpatialSeries") -> "SpatialSeries":
        out = dict(self.data)
        for x, s in other.data:
            out[x] = out[x] - s if x in out else -s
        return SpatialSeries.build(out, self.nmax)

    def scale(self, s) -> "SpatialSeries":
        """Each point's series times s, a ZSeries or a scalar."""
        return SpatialSeries.build({x: v * s for x, v in self.data}, self.nmax)

    def sum_over_x(self) -> ZSeries:
        return ZSeries.sum((s for _, s in self.data), self.nmax)

    def to_json(self) -> list:
        return [{"x": list(x), "coeffs": s.to_json()} for x, s in self.data]

    @staticmethod
    def from_json(data, nmax: int) -> "SpatialSeries":
        return SpatialSeries.build(
            {tuple(e["x"]): ZSeries.from_json(e["coeffs"], nmax) for e in data}, nmax
        )


def _scaled_rows(a: SpatialSeries) -> tuple:
    """([(point, sparse int row)], den): a(x)_k == row value at k / den."""
    den = lcm(*[c.denominator for _, s in a.data for c in s.coeffs])
    return [(x, _support([c.numerator * (den // c.denominator) for c in s.coeffs]))
            for x, s in a.data], den


def spatial_convolve(a: SpatialSeries, b: SpatialSeries) -> SpatialSeries:
    """(a*b)(x) = sum_y a(y) b(x-y) on the lattice (points are int tuples)."""
    if a.nmax != b.nmax:
        raise PreconditionError("mismatched truncation orders")
    n = a.nmax + 1
    (rows_a, da), (rows_b, db) = _scaled_rows(a), _scaled_rows(b)
    acc = {}
    for y, ra in rows_a:
        for w, rb in rows_b:
            x = tuple(map(add, y, w))
            row = acc.get(x)
            if row is None:
                row = acc[x] = [0] * n
            _cauchy(ra, rb, row)
    dens = [da * db] * n
    return SpatialSeries.build({x: ZSeries(_fractions(row, dens)) for x, row in acc.items()}, a.nmax)


def spatial_inverse(a: SpatialSeries) -> SpatialSeries:
    """Convolution inverse: a * inv = delta_0, solved order by order.

    Requires a(0) to have nonzero constant term and all other points to
    vanish at order zero. As in `reciprocal`, with a_j(y) = A_j(y) / D and
    c = A_0(0): inv_k(x) = D R_k(x) / c^{k+1} with integers R_0 = delta_0,
    R_k(x) = -sum_{j>=1} sum_y A_j(y) c^{j-1} R_{k-j}(x - y).
    """
    n = a.nmax
    d = len(a.data[0][0]) if a.data else 0
    origin = (0,) * d
    a0 = a.at(origin)
    if a0.coeffs[0] == 0:
        raise PreconditionError("a(0) needs nonzero constant term")
    for x, s in a.data:
        if x != origin and s.coeffs[0] != 0:
            raise PreconditionError("off-origin constant terms must vanish")
    rows, den = _scaled_rows(a)
    c0 = a0.coeffs[0].numerator * (den // a0.coeffs[0].denominator)
    terms = sorted(((j, y, v * c0 ** (j - 1)) for y, row in rows for j, v in row if j),
                   key=lambda t: t[0])
    inv = [{origin: 1}]
    for k in range(1, n + 1):
        rk = {}
        for j, y, t in terms:
            if j > k:
                break
            for xz, r in inv[k - j].items():
                x = tuple(map(add, y, xz))
                rk[x] = rk.get(x, 0) - t * r
        inv.append({x: r for x, r in rk.items() if r})
    dens = [c0 ** (k + 1) for k in range(n + 1)]
    support = set().union(*inv)
    return SpatialSeries.build(
        {x: ZSeries(_fractions([den * row.get(x, 0) for row in inv], dens)) for x in support}, n
    )
