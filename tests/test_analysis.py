import math
from fractions import Fraction

import pytest

from lww.core import GraphCtx, LoopActivity, PreconditionError
from lww.series import ZSeries
from lww.enumeration import chi_series
from lww import analysis as an

CTX2 = GraphCtx.lattice(2)
CTX1 = GraphCtx.lattice(1)


def test_zc_lambda1_exact():
    for d, ctx in ((1, CTX1), (2, CTX2)):
        est = an.zc_ratio_estimate(chi_series(LoopActivity.constant(1), 8, ctx))
        assert est.value == 1 / (2 * d)
        assert est.method == "ratio-constant"


def test_zc_requires_enough_coefficients():
    with pytest.raises(PreconditionError):
        an.zc_ratio_estimate(ZSeries.of([1, 2, 3], 2))


def test_zc_saw_window():
    est = an.zc_ratio_estimate(chi_series(LoopActivity.constant(0), 12, CTX2))
    assert 0.37 < est.value < 0.40
    # raw per-order data is kept alongside
    assert len(est.per_order) >= 8


def test_zc_lambda2_bounds():
    est = an.zc_ratio_estimate(chi_series(LoopActivity.constant(2), 10, CTX2))
    lower = 1 / (4 * math.sqrt(2))
    assert lower < est.value < 0.25


def test_amplitude_diffusion_lambda1_exact():
    act = LoopActivity.constant(1)
    assert an.amplitude_exact_at(act, 8, CTX2, Fraction(1, 4)) == 1
    assert an.diffusion_exact_at(act, 8, CTX2, Fraction(1, 4)) == 1
    assert an.amplitude_exact_at(act, 6, CTX1, Fraction(1, 2)) == 1
    assert an.diffusion_exact_at(act, 6, CTX1, Fraction(1, 2)) == 1
    a_est = an.amplitude_A_estimate(act, 8, CTX2)
    d_est = an.diffusion_D_estimate(act, 8, CTX2)
    assert abs(a_est.value - 1) < 0.1
    assert abs(d_est.value - 1) < 0.1
    # sensitivity rows present (+-2%)
    assert len(a_est.per_order) == 3 and len(d_est.per_order) == 3


def test_divergence_probe_lambda1():
    # (z_c - z) chi / z_c at z = 0.95 z_c approaches A = 1; needs the series
    # tail, which the lambda=1 integer fast path provides cheaply
    probe = an.chi_divergence_probe(LoopActivity.constant(1), 150, CTX2, Fraction(1, 4))
    assert abs(float(probe) - 1.0) < 0.1


def test_estimates_report_methods():
    est = an.zc_ratio_estimate(chi_series(LoopActivity.constant(0), 12, CTX2))
    assert "aitken" in est.method


def test_diffusion_estimate_inverts_once(monkeypatch):
    act = LoopActivity.constant(2)
    zc = an._rounded_zc(chi_series(act, 8, CTX2))
    want = [(float(z), float(an.diffusion_exact_at(act, 8, CTX2, z)))
            for z in (zc * Fraction(98, 100), zc, zc * Fraction(102, 100))]
    calls, inverse = [], an.spatial_inverse

    def counting(table):
        calls.append(table)
        return inverse(table)

    monkeypatch.setattr(an, "spatial_inverse", counting)
    est = an.diffusion_D_estimate(act, 8, CTX2)
    assert len(calls) == 1
    assert list(est.per_order) == want and est.value == want[1][1]
