from fractions import Fraction
from functools import reduce
from math import factorial, gcd
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from lww.core import PreconditionError
from lww.series import (
    ZERO,
    SeriesSum,
    SpatialSeries,
    ZSeries,
    exp_series,
    log1p_series,
    reciprocal,
    spatial_convolve,
    spatial_inverse,
)

NMAX = 6

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def zseries(zero_const=False, nonzero_const=False):
    def build(coeffs):
        c = list(coeffs)
        if zero_const:
            c[0] = Fraction(0)
        if nonzero_const and c[0] == 0:
            c[0] = Fraction(1)
        return ZSeries.of(c, NMAX)

    return st.lists(fractions, min_size=NMAX + 1, max_size=NMAX + 1).map(build)


def test_ring_examples():
    one_plus = ZSeries.of([1, 1], 2)
    one_minus = ZSeries.of([1, -1], 2)
    assert (one_plus * one_minus).coeffs == ZSeries.of([1, 0, -1], 2).coeffs
    a = ZSeries.of([2, 3, 4], 2)
    assert (a * ZSeries.one(2)).coeffs == a.coeffs
    assert (ZSeries.of([0, 1, 1], 2) + ZSeries.of([0, -1], 2)).coeffs == ZSeries.of(
        [0, 0, 1], 2
    ).coeffs


def test_truncation_mismatch():
    with pytest.raises(PreconditionError):
        ZSeries.one(3) + ZSeries.one(4)


def test_exp_examples():
    assert exp_series(ZSeries.zero(4)).coeffs == ZSeries.one(4).coeffs
    # exp(2 z^2) at nmax=4 -> 1 + 2z^2 + 2z^4
    e = exp_series(ZSeries.monomial(2, 2, 4))
    assert e.coeffs == ZSeries.of([1, 0, 2, 0, 2], 4).coeffs
    with pytest.raises(PreconditionError):
        exp_series(ZSeries.one(4))


@settings(max_examples=100, deadline=None)
@given(zseries(zero_const=True))
def test_exp_group_law(a):
    prod = exp_series(a) * exp_series(-a)
    assert prod.coeffs == ZSeries.one(NMAX).coeffs


@settings(max_examples=100, deadline=None)
@given(zseries(zero_const=True))
def test_exp_log_inverse(a):
    assert log1p_series(exp_series(a) - ZSeries.one(NMAX)).coeffs == a.coeffs


def test_reciprocal_examples():
    geom = reciprocal(ZSeries.of([1, -1], 4))
    assert geom.coeffs == tuple(Fraction(1) for _ in range(5))
    assert reciprocal(ZSeries.one(4)).coeffs == ZSeries.one(4).coeffs
    with pytest.raises(PreconditionError):
        reciprocal(ZSeries.zero(4))


@settings(max_examples=100, deadline=None)
@given(zseries(nonzero_const=True))
def test_reciprocal_involution(a):
    assert reciprocal(reciprocal(a)).coeffs == a.coeffs
    assert (a * reciprocal(a)).coeffs == ZSeries.one(NMAX).coeffs


@settings(max_examples=60, deadline=None)
@given(zseries(), zseries(), zseries())
def test_ring_axioms(a, b, c):
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
    assert (a * b).coeffs == (b * a).coeffs


def test_derivative_and_eval():
    a = ZSeries.of([1, 2, 3], 3)
    assert a.derivative().coeffs == ZSeries.of([2, 6, 0], 3).coeffs
    assert a.eval_at(Fraction(1, 2)) == 1 + 1 + Fraction(3, 4)


def test_json_round_trip():
    a = ZSeries.of([Fraction(1, 3), Fraction(-2, 7)], 3)
    assert ZSeries.from_json(a.to_json()).coeffs == a.coeffs
    s = SpatialSeries.build({(1, 0): a, (0, 0): ZSeries.one(3)}, 3)
    assert SpatialSeries.from_json(s.to_json(), 3).data == s.data


def test_spatial_at():
    a = ZSeries.of([Fraction(1, 3), Fraction(-2, 7)], 3)
    s = SpatialSeries.build({(1, 0): a, (0, 0): ZSeries.one(3)}, 3)
    twin = SpatialSeries.build({(0, 0): ZSeries.one(3), (1, 0): a}, 3)
    assert s.at((1, 0)) is s.data[1][1] and s.at((0, 0)) == ZSeries.one(3)
    for outside in [(2, 0), (0, 1), (-1, 0), (1,), (1, 0, 0), ()]:
        assert s.at(outside) == ZSeries.zero(3)
    # the lookup index is not part of the value
    assert s == twin and hash(s) == hash(twin) and s.data == twin.data
    assert SpatialSeries.build({}, 2).at((0, 0)) == ZSeries.zero(2)


def _delta():
    return SpatialSeries.delta((0, 0), NMAX)


def test_spatial_identity():
    a = SpatialSeries.build(
        {(0, 0): ZSeries.of([1, 2], NMAX), (1, 1): ZSeries.of([0, 0, 3], NMAX)}, NMAX
    )
    assert spatial_convolve(_delta(), a).data == a.data


def test_srw_step_convolution():
    # D*D(0) in d=1 at order z^0 is 1/2
    d1 = SpatialSeries.build(
        {(-1,): ZSeries.const(Fraction(1, 2), 2), (1,): ZSeries.const(Fraction(1, 2), 2)},
        2,
    )
    assert spatial_convolve(d1, d1).at((0,)).coeffs[0] == Fraction(1, 2)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=4), st.data())
def test_spatial_commutativity(points, data):
    def draw_table():
        return SpatialSeries.build(
            {p: ZSeries.of(data.draw(st.lists(fractions, min_size=3, max_size=3)), NMAX) for p in points},
            NMAX,
        )

    a, b = draw_table(), draw_table()
    assert spatial_convolve(a, b).data == spatial_convolve(b, a).data


def test_spatial_inverse_geometric():
    # inverse of (delta + z * 2d * D) is the alternating geometric series
    d = 2
    step = {}
    for i in range(d):
        for s in (-1, 1):
            q = [0] * d
            q[i] = s
            step[tuple(q)] = ZSeries.monomial(1, 1, NMAX)
    a = SpatialSeries.build(step, NMAX) + SpatialSeries.delta((0, 0), NMAX)
    inv = spatial_inverse(a)
    assert spatial_convolve(a, inv).data == SpatialSeries.delta((0, 0), NMAX).data
    # geometric check: sum_k (-step)^{*k}
    acc = SpatialSeries.delta((0, 0), NMAX)
    power = SpatialSeries.delta((0, 0), NMAX)
    minus = SpatialSeries.build(step, NMAX).scale(Fraction(-1))
    for _ in range(NMAX):
        power = spatial_convolve(power, minus)
        acc = acc + power
    assert inv.data == acc.data


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_spatial_inverse_property(data):
    pts = data.draw(
        st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)), min_size=0, max_size=3)
    )
    table = {(0, 0): ZSeries.of([1] + data.draw(st.lists(fractions, min_size=2, max_size=2)), NMAX)}
    for p in pts:
        if p == (0, 0):
            continue
        table[p] = ZSeries.of([0] + data.draw(st.lists(fractions, min_size=2, max_size=2)), NMAX)
    a = SpatialSeries.build(table, NMAX)
    inv = spatial_inverse(a)
    assert spatial_convolve(a, inv).data == SpatialSeries.delta((0, 0), NMAX).data


# ---------------------------------------------------------------------------
# slow oracles: the schoolbook Fraction kernels the integer-scaled ones replaced


def _mul_oracle(a, b):
    n = a.nmax
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            if b.coeffs[j] != 0:
                out[i + j] += ai * b.coeffs[j]
    return ZSeries(tuple(out))


def _add_oracle(a, b):
    return ZSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def _exp_oracle(a):
    n = a.nmax
    out = term = ZSeries.one(n)
    for k in range(1, n + 1):
        term = _mul_oracle(term, a)
        out = _add_oracle(out, _mul_oracle(term, ZSeries.const(Fraction(1, factorial(k)), n)))
    return out


def _log1p_oracle(a):
    n = a.nmax
    out, term = ZSeries.zero(n), ZSeries.one(n)
    for k in range(1, n + 1):
        term = _mul_oracle(term, a)
        out = _add_oracle(out, _mul_oracle(term, ZSeries.const(Fraction((-1) ** (k + 1), k), n)))
    return out


def _reciprocal_oracle(a):
    n = a.nmax
    inv0 = 1 / Fraction(a.coeffs[0])
    out = [inv0] + [Fraction(0)] * n
    for k in range(1, n + 1):
        s = Fraction(0)
        for j in range(1, k + 1):
            s += a.coeffs[j] * out[k - j]
        out[k] = -inv0 * s
    return ZSeries(tuple(out))


def _convolve_oracle(a, b):
    out = {}
    for y, sa in a.data:
        for w, sb in b.data:
            x = tuple(p + q for p, q in zip(y, w))
            prod = _mul_oracle(sa, sb)
            out[x] = _add_oracle(out[x], prod) if x in out else prod
    return SpatialSeries.build(out, a.nmax)


def _inverse_oracle(a):
    n = a.nmax
    origin = (0,) * len(a.data[0][0])
    inv0 = 1 / Fraction(a.at(origin).coeffs[0])
    inv = [{origin: inv0}] + [{} for _ in range(n)]
    for k in range(1, n + 1):
        rhs = {}
        for y, s in a.data:
            for j in range(k):
                for xz, c in inv[j].items():
                    x = tuple(p + q for p, q in zip(y, xz))
                    rhs[x] = rhs.get(x, Fraction(0)) + s.coeffs[k - j] * c
        inv[k] = {x: -inv0 * v for x, v in rhs.items() if v != 0}
    support = set().union(*inv)
    return SpatialSeries.build(
        {x: ZSeries(tuple(row.get(x, Fraction(0)) for row in inv)) for x in support}, n
    )


BIG_PRIMES = (1_000_003, 998_244_353, 2_147_483_647, 10**9 + 7, 2**61 - 1)
coefficients = st.one_of(
    fractions,
    st.builds(Fraction, st.integers(-(10**15), 10**15), st.sampled_from(BIG_PRIMES)),
    st.integers(-9, 9),  # a raw int coefficient, read as n/1
    st.just(Fraction(0)),
)


@st.composite
def series(draw, nmax, const=None):
    """Dense, zero, monomial or sparse series; const "zero"/"nonzero" pins c_0."""
    kind = draw(st.sampled_from(["dense", "zero", "monomial", "sparse"]))
    co = [Fraction(0)] * (nmax + 1)
    if kind == "dense":
        co = draw(st.lists(coefficients, min_size=nmax + 1, max_size=nmax + 1))
    elif kind == "monomial":
        co[draw(st.integers(0, nmax))] = draw(coefficients)
    elif kind == "sparse":
        for k in draw(st.sets(st.integers(0, nmax), max_size=3)):
            co[k] = draw(coefficients)
    if const == "zero":
        co[0] = Fraction(0)
    elif const == "nonzero" and co[0] == 0:
        co[0] = draw(st.sampled_from([Fraction(-3, 1_000_003), Fraction(1), 5]))
    return ZSeries(tuple(co))


def _exact(got, want):
    assert all(type(c) is Fraction for c in got.coeffs)
    assert got.coeffs == want.coeffs


orders = st.integers(0, 7)


@settings(max_examples=150, deadline=None)
@given(st.data(), orders)
def test_mul_matches_schoolbook_oracle(data, n):
    a, b = data.draw(series(n)), data.draw(series(n))
    _exact(a * b, _mul_oracle(a, b))
    _exact(b * a, _mul_oracle(a, b))


@settings(max_examples=100, deadline=None)
@given(st.data(), orders)
def test_exp_and_log1p_match_term_by_term_oracles(data, n):
    a = data.draw(series(n, const="zero"))
    _exact(exp_series(a), _exp_oracle(a))
    _exact(log1p_series(a), _log1p_oracle(a))


@settings(max_examples=100, deadline=None)
@given(st.data(), orders)
def test_reciprocal_matches_recurrence_oracle(data, n):
    a = data.draw(series(n, const="nonzero"))
    _exact(reciprocal(a), _reciprocal_oracle(a))


@settings(max_examples=60, deadline=None)
@given(st.data(), orders, st.integers(0, 5))
def test_sum_matches_fold(data, n, count):
    terms = [data.draw(series(n)) for _ in range(count)]
    _exact(ZSeries.sum(terms, n), reduce(_add_oracle, terms, ZSeries.zero(n)))
    acc = SeriesSum(n)
    for t in terms:
        for k, c in enumerate(t.coeffs):
            acc.add_term(k, c)
    _exact(acc.value(), ZSeries.sum(terms, n))
    with pytest.raises(PreconditionError):
        ZSeries.sum(terms + [ZSeries.zero(n + 1)], n)


points = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


def _spatial_exact(got, want):
    assert got.data == want.data
    assert all(type(c) is Fraction for _, s in got.data for c in s.coeffs)


@settings(max_examples=80, deadline=None)
@given(st.data(), orders)
def test_spatial_convolve_matches_oracle(data, n):
    def table():
        pts = data.draw(st.lists(points, max_size=4, unique=True))
        return SpatialSeries.build({p: data.draw(series(n)) for p in pts}, n)

    a, b = table(), table()
    _spatial_exact(spatial_convolve(a, b), _convolve_oracle(a, b))


@settings(max_examples=80, deadline=None)
@given(st.data(), orders)
def test_spatial_convolve_skips_only_pairs_past_nmax(data, n):
    """spatial_convolve visits b's rows by lowest order and stops once a
    pair starts past nmax; it must agree with the plain double loop on rows
    that start at every order, on supports of different shapes and sizes,
    and with zero rows, which a table built directly can hold."""
    def table(size, shape):
        rows = {}
        for p in data.draw(st.lists(shape, max_size=size, unique=True)):
            low = data.draw(st.integers(0, n + 1))  # n + 1: a zero row
            tail = data.draw(st.lists(fractions, min_size=n + 1 - low, max_size=n + 1 - low))
            rows[p] = ZSeries((ZERO,) * low + tuple(tail))
        return SpatialSeries(tuple(sorted(rows.items())), n)

    a = table(6, points)
    b = table(3, st.tuples(st.integers(0, 3), st.integers(-1, 0)))
    _spatial_exact(spatial_convolve(a, b), _convolve_oracle(a, b))
    _spatial_exact(spatial_convolve(b, a), _convolve_oracle(b, a))


@settings(max_examples=80, deadline=None)
@given(st.data(), orders)
def test_spatial_inverse_matches_oracle(data, n):
    table = {(0, 0): data.draw(series(n, const="nonzero"))}
    for p in data.draw(st.lists(points, max_size=3, unique=True)):
        if p != (0, 0):
            table[p] = data.draw(series(n, const="zero"))
    a = SpatialSeries.build(table, n)
    _spatial_exact(spatial_inverse(a), _inverse_oracle(a))


# ---------------------------------------------------------------------------
# the integer form: kernels hold numerators over one denominator, and
# coefficients are built only when read


def _sub_oracle(a, b):
    return _add_oracle(a, _mul_oracle(b, ZSeries.const(-1, b.nmax)))


def _normalised(s):
    """Every coefficient a normalised Fraction with a positive denominator,
    the shared ZERO for 0."""
    for c in s.coeffs:
        assert type(c) is Fraction and c.denominator > 0
        assert gcd(c.numerator, c.denominator) == 1
        assert c is ZERO if c == 0 else True


@settings(max_examples=100, deadline=None)
@given(st.data(), orders)
def test_mixed_chains_match_oracles(data, n):
    a = data.draw(series(n, const="zero"))
    b = data.draw(series(n, const="nonzero"))
    c = data.draw(series(n))
    got = exp_series(a) * reciprocal(b) - a * b
    want = _sub_oracle(_mul_oracle(_exp_oracle(a), _reciprocal_oracle(b)), _mul_oracle(a, b))
    _exact(got, want)
    _normalised(got)
    # kernel outputs fed back with Fraction-built operands
    terms = [got, c, a * c, -b, (c + got).shift(1), b * Fraction(-2, 3), got * 4]
    fold = reduce(_add_oracle, [want, c, _mul_oracle(a, c), _sub_oracle(ZSeries.zero(n), b),
                                _mul_oracle(_add_oracle(c, want), ZSeries.monomial(1, 1, n)),
                                _mul_oracle(b, ZSeries.const(Fraction(-2, 3), n)),
                                _mul_oracle(want, ZSeries.const(4, n))])
    total = ZSeries.sum(terms, n)
    _exact(total, fold)
    _normalised(total)
    acc = SeriesSum(n)
    for t in terms:
        acc.add(t)
    assert acc.value() == total


@settings(max_examples=100, deadline=None)
@given(st.data(), orders)
def test_eq_and_hash_agree_across_forms(data, n):
    a = data.draw(series(n))
    kernel = a * ZSeries.one(n)  # the same series, out of a kernel
    built = ZSeries(tuple(a.coeffs))  # the same series, from its coefficients
    assert kernel == built and built == kernel and hash(kernel) == hash(built)
    assert a + ZSeries.one(n) != a and ZSeries.zero(n + 1) != ZSeries.zero(n)
    zero = a - a
    assert zero == ZSeries.zero(n) and hash(zero) == hash(ZSeries.zero(n))
    assert zero == ZSeries.of([0] * (n + 1), n) and hash(zero) == hash(ZSeries.of([], n))
    assert zero.is_zero() and zero.coeffs == (ZERO,) * (n + 1)
    assert all(c is ZERO for c in zero.coeffs)
    assert {built: 1}[kernel] == 1
    assert (a * 0).coeffs == ZSeries.zero(n).coeffs


@settings(max_examples=100, deadline=None)
@given(st.data(), orders)
def test_every_constructor_builds_the_integer_form(data, n):
    """A series built from int or Fraction coefficients, through of, const
    or from_json equals its kernel twin (a sum of monomials) and hashes
    alike; its coeffs are normalised Fractions with the shared ZERO for 0."""
    ints = data.draw(st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1))
    fracs = data.draw(st.lists(fractions, min_size=n + 1, max_size=n + 1))
    for co in (ints, fracs, ints[:1] + fracs[1:]):
        twin = ZSeries.sum((ZSeries.monomial(c, k, n) for k, c in enumerate(co)), n)
        for built in (ZSeries(co), ZSeries(iter(co)), ZSeries.of(co, n), ZSeries.of(co + [1], n),
                      ZSeries.from_json([str(c) for c in co])):
            assert built == twin and twin == built and hash(built) == hash(twin)
            assert built.coeffs == tuple(Fraction(c) for c in co)
            _normalised(built)
        const = ZSeries.const(co[0], n)
        assert const == ZSeries.one(n) * co[0] and hash(const) == hash(ZSeries.one(n) * co[0])
        _normalised(const)
    _normalised(ZSeries((1, -2, 0)))


@settings(max_examples=100, deadline=None)
@given(st.data(), orders, st.one_of(fractions, st.integers(-3, 3)))
def test_eval_at_matches_the_coefficient_sum(data, n, z):
    a = data.draw(series(n))
    want = sum((Fraction(c) * Fraction(z) ** k for k, c in enumerate(a.coeffs)), Fraction(0))
    for s in (a, a * ZSeries.one(n)):
        got = s.eval_at(z)
        assert type(got) is Fraction and got == want

def test_int_coefficients_equal_fraction_coefficients():
    ints = ZSeries((1, -2, 0))
    assert ints == ZSeries.of([1, -2], 2) and hash(ints) == hash(ZSeries.of([1, -2], 2))
    assert ints == ZSeries.one(2) - ZSeries.monomial(2, 1, 2)
    assert (ints * ints).coeffs == (1, -4, 4) and ints.coeffs == (1, -2, 0)
    assert repr(ZSeries.one(1)) == "ZSeries(coeffs=(Fraction(1, 1), Fraction(0, 1)))"


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("c0", [-3, Fraction(-2, 5), Fraction(7, 3)])
def test_negative_constant_terms_give_normalised_coefficients(n, c0):
    a = ZSeries.of([c0, 1, Fraction(-1, 2)], n)
    _exact(reciprocal(a), _reciprocal_oracle(a))
    _normalised(reciprocal(a))
    z = ZSeries.monomial(1, 1, n)
    table = SpatialSeries.build(
        {(0, 0): a, (1, 0): z * Fraction(1, 2), (-1, 0): -z, (0, 1): z.shift(1) * 3}, n
    )
    inv = spatial_inverse(table)
    _spatial_exact(inv, _inverse_oracle(table))
    for _, s in inv.data:
        _normalised(s)
    assert spatial_convolve(table, inv) == SpatialSeries.delta((0, 0), n)


def test_unread_ring_chain_builds_no_fraction(monkeypatch):
    n = 8
    a = ZSeries.of([0, Fraction(1, 3), -2, 0, Fraction(5, 7)], n)
    b = ZSeries.of([Fraction(-3, 2), 1, Fraction(1, 5)], n)
    third, zeros = Fraction(1, 3), ZSeries.of([], n)
    ta = SpatialSeries.build({(0, 0): b, (1, 0): a, (0, -1): a * third}, n)
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12 arithmetic
        coprime = Fraction._from_coprime_ints

        def counting_coprime(cls, *args):
            built.append(args)
            return coprime(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    chain = exp_series(a) * reciprocal(b) - a * b
    chain = ZSeries.sum([chain, a.shift(2), -b, chain * third, chain * 2, b.derivative()], n)
    chain = log1p_series(a * chain) + (chain.to_order(n + 2) * a.to_order(n + 2)).to_order(n)
    acc = SeriesSum(n)
    acc.add(chain)
    acc.add_term(3, third)
    chain = acc.value()
    conv = spatial_convolve(ta, ta.scale(chain)) - ta + ta.scale(third)
    inv = spatial_inverse(conv)
    checks = (chain == zeros, hash(chain), chain.is_zero(), chain.leq(chain), inv.at((0, 0)).nonneg())
    assert built == [] and checks[0] is False
    assert inv.sum_over_x().coeffs and built  # reading builds the coefficients
