from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lww.core import PreconditionError
from lww.series import (
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
    assert s.at((1, 0)) == a and s.at((0, 0)) == ZSeries.one(3)
    assert s.at((2, 0)) == ZSeries.zero(3)


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
