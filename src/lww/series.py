"""Exact truncated power series in z over the rationals.

ZSeries is the arithmetic substrate for every identity check: coefficients
c_0..c_{nmax}, closed under ring ops at fixed truncation order. SpatialSeries
maps lattice points (or finite-graph vertices) to ZSeries with finite
support.

A series is held in integer form: numerators over their least common
denominator, kept positive, so each series has one such form and `==` and
`hash` read it. Every kernel (sum, difference, negation, scalar and series
product, shift, exp, log1p, reciprocal, sums of many series, spatial
convolution and inverse) reads and writes that form: its recurrence runs on
Python ints, and one `gcd(den, *nums)` call reduces its output. A series
built from int or Fraction coefficients (`ZSeries(coeffs)`, `of`, `const`,
`from_json`) is converted to that form when it is built; it is the only form
a series holds. `.coeffs`, the tuple of normalised Fractions (the shared
ZERO for 0), is a view built only when read and then kept. Every running sum
of series coefficients goes through `SeriesSum`. Every result is the same
exact rational the schoolbook Fraction recurrence gives, so serialised
outputs cannot change.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import add

from .core import PreconditionError

ZERO = Fraction(0)


def _scaled(coeffs) -> tuple:
    """(nums, den) with coeffs[k] == nums[k] / den, den the lcm of the denominators."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _ratio(c) -> tuple:
    """(numerator, denominator) of a rational scalar, building no Fraction
    for an int or a Fraction."""
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    return c.numerator, c.denominator


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


class ZSeries:
    """c_0 + c_1 z + ... + c_nmax z^nmax in integer form (see the module
    docstring); coeffs are ints or Fractions, length nmax+1."""

    __slots__ = ("_co", "_nums", "_den")

    def __init__(self, coeffs):
        nums, self._den = _scaled(tuple(coeffs))
        self._co, self._nums = None, tuple(nums)

    @staticmethod
    def from_ints(nums, den: int) -> "ZSeries":
        """The series nums[k] / den (den != 0), reduced by one gcd call."""
        if den < 0:
            nums, den = [-x for x in nums], -den
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
        s = object.__new__(ZSeries)
        s._co, s._nums, s._den = None, tuple(nums), den
        return s

    @property
    def coeffs(self) -> tuple:
        co = self._co
        if co is None:
            den = self._den
            co = self._co = tuple(Fraction(x, den) if x else ZERO for x in self._nums)
        return co

    @property
    def nmax(self) -> int:
        return len(self._nums) - 1

    def __eq__(self, other):
        if not isinstance(other, ZSeries):
            return NotImplemented
        return self._nums == other._nums and self._den == other._den

    def __hash__(self):
        return hash((self._nums, self._den))

    def __repr__(self):
        return f"ZSeries(coeffs={self.coeffs!r})"

    @staticmethod
    def zero(nmax: int) -> "ZSeries":
        return ZSeries.from_ints((0,) * (nmax + 1), 1)

    @staticmethod
    def one(nmax: int) -> "ZSeries":
        return ZSeries.from_ints((1,) + (0,) * nmax, 1)

    @staticmethod
    def const(c, nmax: int) -> "ZSeries":
        return ZSeries.monomial(c, 0, nmax)

    @staticmethod
    def monomial(c, power: int, nmax: int) -> "ZSeries":
        if power > nmax:
            return ZSeries.zero(nmax)
        p, q = _ratio(c)
        nums = [0] * (nmax + 1)
        nums[power] = p
        return ZSeries.from_ints(nums, q)

    @staticmethod
    def of(coeffs, nmax: int) -> "ZSeries":
        co = [Fraction(c) for c in coeffs][: nmax + 1]
        return ZSeries(co + [0] * (nmax + 1 - len(co)))

    @staticmethod
    def sum(series, nmax: int) -> "ZSeries":
        """Sum of an iterable of series at order nmax, reduced once."""
        acc = SeriesSum(nmax)
        for s in series:
            acc.add(s)
        return acc.value()

    def to_order(self, nmax: int) -> "ZSeries":
        """The same series truncated, or padded with zeros, to order nmax."""
        nums, den = self._nums, self._den
        return ZSeries.from_ints(nums[: nmax + 1] + (0,) * (nmax + 1 - len(nums)), den)

    def _check(self, other: "ZSeries"):
        if self.nmax != other.nmax:
            raise PreconditionError("mismatched truncation orders")

    def _combine(self, other: "ZSeries", sign: int) -> "ZSeries":
        """self + sign * other over the lcm of the two denominators."""
        self._check(other)
        na, da, nb, db = self._nums, self._den, other._nums, other._den
        den = lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        return ZSeries.from_ints([x * sa + y * sb for x, y in zip(na, nb)], den)

    def __add__(self, other: "ZSeries") -> "ZSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "ZSeries":
        nums, den = self._nums, self._den
        return ZSeries.from_ints([-x for x in nums], den)

    def __mul__(self, other):
        nums, den = self._nums, self._den
        if not isinstance(other, ZSeries):
            p, q = _ratio(other)
            return ZSeries.from_ints([p * x for x in nums], q * den)
        self._check(other)
        nb, db = other._nums, other._den
        out = _cauchy(_support(nums), _support(nb), [0] * len(nums))
        return ZSeries.from_ints(out, den * db)

    __rmul__ = __mul__

    def shift(self, k: int) -> "ZSeries":
        """Multiply by z^k."""
        if k == 0:
            return self
        nums, den = self._nums, self._den
        n = len(nums)
        return ZSeries.from_ints((0,) * min(k, n) + nums[: max(0, n - k)], den)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def leq(self, other: "ZSeries") -> bool:
        """Coefficientwise <=."""
        self._check(other)
        na, da, nb, db = self._nums, self._den, other._nums, other._den
        return all(x * db <= y * da for x, y in zip(na, nb))

    def nonneg(self) -> bool:
        return all(x >= 0 for x in self._nums)

    def derivative(self) -> "ZSeries":
        """d/dz on coefficients; the top coefficient is lost to truncation."""
        nums, den = self._nums, self._den
        return ZSeries.from_ints([k * nums[k] for k in range(1, len(nums))] + [0], den)

    def eval_at(self, z) -> Fraction:
        """sum_k c_k z^k; with z = p/q, Horner on sum_k nums[k] p^k q^(n-k)
        over den q^n, one Fraction built."""
        p, q = _ratio(z)
        nums, den = self._nums, self._den
        acc, qk = 0, 1
        for x in reversed(nums):
            acc = acc * p + x * qk
            qk *= q
        return Fraction(acc, den * qk // q)

    def to_json(self) -> list:
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]

    @staticmethod
    def from_json(data, nmax=None) -> "ZSeries":
        return ZSeries.of(data, nmax if nmax is not None else len(data) - 1)


class SeriesSum:
    """Running exact sum of series at one order: integer numerators over one
    common denominator, reduced once by value()."""

    def __init__(self, nmax: int):
        self.nums = [0] * (nmax + 1)
        self.den = 1

    def _widen(self, den: int) -> None:
        """Move to the common denominator den, a multiple of the current one."""
        if den != self.den:
            scale = den // self.den
            self.nums = [x * scale for x in self.nums]
            self.den = den

    def add(self, s: ZSeries, shift: int = 0, c=1) -> None:
        """Add c z^shift s, where s is truncated at order nmax - shift."""
        nums, den = s._nums, s._den
        if len(nums) + shift != len(self.nums):
            raise PreconditionError("mismatched truncation orders")
        p, q = _ratio(c)
        self._widen(lcm(self.den, den * q))
        scale = p * (self.den // (den * q))
        acc = self.nums
        for k, x in enumerate(nums, shift):
            if x:
                acc[k] += x * scale

    def add_term(self, k: int, c) -> None:
        """Add c z^k."""
        p, q = _ratio(c)
        self._widen(lcm(self.den, q))
        self.nums[k] += p * (self.den // q)

    def value(self) -> ZSeries:
        return ZSeries.from_ints(self.nums, self.den)


def exp_series(a: ZSeries) -> ZSeries:
    """Truncated exp(a); a must have zero constant term (keeps coefficients rational).

    With a_j = A_j / D: k e_k = sum_j j a_j e_{k-j}, so e_k = F_k / (k! D^k)
    with integers F_0 = 1, F_k = sum_j j A_j D^{j-1} F_{k-j} (k-1)!/(k-j)!;
    over the common denominator n! D^n, e_k = F_k (n!/k!) D^{n-k} / (n! D^n).
    """
    nums, den = a._nums, a._den
    if nums[0]:
        raise PreconditionError("exp needs zero constant term")
    n = len(nums)
    fact = [factorial(k) for k in range(n)]
    terms = [(j, j * v * den ** (j - 1)) for j, v in _support(nums)]
    f = [1] + [0] * (n - 1)
    for k in range(1, n):
        f[k] = sum(t * f[k - j] * (fact[k - 1] // fact[k - j]) for j, t in terms if j <= k)
    top = n - 1
    return ZSeries.from_ints(
        [x * (fact[top] // fact[k]) * den ** (top - k) for k, x in enumerate(f)], fact[top] * den**top
    )


def reciprocal(a: ZSeries) -> ZSeries:
    """Truncated 1/a; a must have nonzero constant term.

    With a_j = A_j / D: r_k = D R_k / A_0^{k+1} with integers R_0 = 1,
    R_k = -sum_{j>=1} A_j A_0^{j-1} R_{k-j}; over the common denominator
    A_0^{n+1}, r_k = D R_k A_0^{n-k} / A_0^{n+1}.
    """
    nums, den = a._nums, a._den
    c0 = nums[0]
    if not c0:
        raise PreconditionError("reciprocal needs nonzero constant term")
    n = len(nums)
    terms = [(j, v * c0 ** (j - 1)) for j, v in _support(nums) if j]
    r = [1] + [0] * (n - 1)
    for k in range(1, n):
        r[k] = -sum(t * r[k - j] for j, t in terms if j <= k)
    top = n - 1
    return ZSeries.from_ints([den * x * c0 ** (top - k) for k, x in enumerate(r)], c0**n)


def log1p_series(a: ZSeries) -> ZSeries:
    """Truncated log(1+a); a must have zero constant term.

    With a_j = A_j / D, (1 + a) l' = a' gives l_k = L_k / (k D^k) with
    integers L_k = k A_k D^{k-1} - sum_{1<=j<k} A_j D^{j-1} L_{k-j}; over
    the common denominator M D^n, M = lcm(1..n), l_k = L_k (M/k) D^{n-k} / (M D^n).
    """
    nums, den = a._nums, a._den
    if nums[0]:
        raise PreconditionError("log1p needs zero constant term")
    n = len(nums)
    terms = [(j, v * den ** (j - 1)) for j, v in _support(nums)]
    ell = [0] * n
    for k in range(1, n):
        ell[k] = k * nums[k] * den ** (k - 1) - sum(t * ell[k - j] for j, t in terms if j < k)
    top = n - 1
    m = lcm(*range(1, n))
    return ZSeries.from_ints(
        [x * (m // k) * den ** (top - k) if x else 0 for k, x in enumerate(ell)], m * den**top
    )


@dataclass(frozen=True)
class SpatialSeries:
    """Finitely supported map point -> ZSeries at a common truncation order."""

    data: tuple  # sorted tuple of (point, ZSeries) with nonzero series
    nmax: int

    @staticmethod
    def build(mapping: dict, nmax: int) -> "SpatialSeries":
        items = []
        for x, s in mapping.items():
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
    forms = [(x, (s._nums, s._den)) for x, s in a.data]
    den = lcm(*[d for _, (_, d) in forms])
    return [(x, [(k, v * (den // d)) for k, v in _support(nums)]) for x, (nums, d) in forms], den


def spatial_convolve(a: SpatialSeries, b: SpatialSeries) -> SpatialSeries:
    """(a*b)(x) = sum_y a(y) b(x-y) on the lattice (points are int tuples).

    b's rows are taken by lowest order, so the pairs whose product starts
    past nmax are never visited."""
    if a.nmax != b.nmax:
        raise PreconditionError("mismatched truncation orders")
    n = a.nmax + 1
    (rows_a, da), (rows_b, db) = _scaled_rows(a), _scaled_rows(b)
    rows_b = sorted(((rb[0][0], w, rb) for w, rb in rows_b if rb), key=lambda t: t[0])
    acc = {}
    for y, ra in rows_a:
        room = n - ra[0][0] if ra else 0  # b's rows below this order meet ra
        for low, w, rb in rows_b:
            if low >= room:
                break
            x = tuple(map(add, y, w))
            row = acc.get(x)
            if row is None:
                row = acc[x] = [0] * n
            _cauchy(ra, rb, row)
    den = da * db
    return SpatialSeries.build({x: ZSeries.from_ints(row, den) for x, row in acc.items()}, a.nmax)


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
    rows, den = _scaled_rows(a)
    consts = {x: row[0][1] for x, row in rows if row[0][0] == 0}
    c0 = consts.pop(origin, 0)
    if not c0:
        raise PreconditionError("a(0) needs nonzero constant term")
    if consts:
        raise PreconditionError("off-origin constant terms must vanish")
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
    scale = [den * c0 ** (n - k) for k in range(n + 1)]
    support = set().union(*inv)
    return SpatialSeries.build(
        {x: ZSeries.from_ints([s * row.get(x, 0) for s, row in zip(scale, inv)], c0 ** (n + 1))
         for x in support}, n
    )
