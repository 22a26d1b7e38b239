"""Truncated-series estimation of z_c, the amplitude A and diffusion D.

Reporting layer: plain ratio/Aitken extrapolation with the raw per-order
data always kept alongside. Nothing here is an asymptotic claim; the exact
anchors live in the lambda = 1 checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import GraphCtx, LoopActivity, PreconditionError
from .series import SpatialSeries, ZSeries, reciprocal, spatial_inverse
from .enumeration import alpha0, chi_series, two_point_table


@dataclass(frozen=True)
class SeriesEstimate:
    quantity: str
    per_order: tuple  # (order, value) pairs, raw
    value: float
    method: str


def _aitken(seq):
    """One Aitken delta-squared step on the tail of a sequence."""
    if len(seq) < 3:
        return seq[-1]
    x0, x1, x2 = seq[-3], seq[-2], seq[-1]
    denom = (x2 - x1) - (x1 - x0)
    if denom == 0:
        return x2
    return x2 - (x2 - x1) ** 2 / denom


def zc_ratio_estimate(chi: ZSeries) -> SeriesEstimate:
    """Critical-point estimate from the ratio sequence c_{n-1}/c_n.

    On bipartite lattices the odd/even alternation is smoothed by using the
    two-step ratios sqrt(c_{n-2}/c_n); Aitken extrapolation on the tail.
    Constant ratio sequences (the lambda = 1 anchor) return exactly.
    """
    cs = [c for c in chi.coeffs]
    if sum(1 for c in cs if c != 0) < 4:
        raise PreconditionError("need at least 4 nonzero coefficients")
    plain = []
    for n in range(1, len(cs)):
        if cs[n] != 0 and cs[n - 1] != 0:
            plain.append((n, Fraction(cs[n - 1], 1) / cs[n]))
    if all(v == plain[0][1] for _, v in plain):
        return SeriesEstimate(
            quantity="z_c",
            per_order=tuple((n, float(v)) for n, v in plain),
            value=float(plain[0][1]),
            method="ratio-constant",
        )
    two_step = []
    for n in range(2, len(cs)):
        if cs[n] != 0 and cs[n - 2] != 0:
            two_step.append((n, math.sqrt(cs[n - 2] / cs[n])))
    # Aitken on the same-parity tail (consecutive orders still zigzag on
    # bipartite lattices)
    last_parity = two_step[-1][0] % 2
    seq = [v for n, v in two_step if n % 2 == last_parity]
    est = _aitken(seq)
    return SeriesEstimate(
        quantity="z_c",
        per_order=tuple((n, v) for n, v in two_step),
        value=float(est),
        method="sqrt-two-step-ratio+aitken(same-parity)",
    )


def amplitude_exact_at(act: LoopActivity, nmax: int, ctx: GraphCtx, zc: Fraction) -> Fraction:
    """A at a given z_c, as an exact rational.

    A = chi-residue amplitude = alpha_0(z_c) / (z_c * (-dF/dz)(z_c)) with
    F = alpha_0 * Ghat(0)^{-1}. Differentiating the evaluated product (not a
    re-truncated one) keeps the lambda = 1 anchor exact: there F = 1 - 2dz
    times alpha_0 and A = 1 identically. This also restores the alpha_0
    numerator the printed constant absorbs into G^{-1}; without it the
    lambda = 1 anchor misses badly at any finite order.
    """
    zc = Fraction(zc)
    return _amplitude(chi_series(act, nmax, ctx), alpha0(act, nmax, ctx), zc)


def _amplitude(chi: ZSeries, a0: ZSeries, zc: Fraction) -> Fraction:
    """amplitude_exact_at from chi and alpha_0, which the estimates compute
    once for their three points."""
    r = reciprocal(chi)
    dF = a0.derivative().eval_at(zc) * r.eval_at(zc) + a0.eval_at(zc) * r.derivative().eval_at(zc)
    return a0.eval_at(zc) / (zc * (-dF))


def _inverse_second_moment(g_inv: SpatialSeries, zc: Fraction) -> Fraction:
    """sum_x |x|^2 G^{-1}(x) evaluated at z_c, given G^{-1}."""
    acc = Fraction(0)
    for x, s in g_inv.data:
        w = sum(c * c for c in x)
        if w:
            acc += Fraction(w) * s.eval_at(zc)
    return acc


def diffusion_exact_at(act: LoopActivity, nmax: int, ctx: GraphCtx, zc: Fraction) -> Fraction:
    """D at a given z_c: A * (z_c |Omega| alpha + sum |x|^2 Pi) / alpha_0.

    With Pi's moment evaluated through its atoms this collapses to
    -A * sum_x |x|^2 G^{-1}(x)(z_c); exact 1 at lambda = 1.
    """
    zc = Fraction(zc)
    a = amplitude_exact_at(act, nmax, ctx, zc)
    return -a * _inverse_second_moment(spatial_inverse(two_point_table(act, nmax, ctx)), zc)


def _rounded_zc(chi: ZSeries) -> Fraction:
    """The ratio estimate of z_c as a fraction with denominator <= 10^6."""
    zc = Fraction(zc_ratio_estimate(chi).value).limit_denominator(10**6)
    if zc <= 0:
        raise PreconditionError(f"the z_c estimate rounds to {zc} at denominator 10^6")
    return zc


def _estimate(quantity: str, at, zc) -> SeriesEstimate:
    """at(z) at z = z_c, with a +-2% sensitivity column."""
    per_order = []
    for pert in (Fraction(98, 100), Fraction(1), Fraction(102, 100)):
        zz = Fraction(zc) * pert
        per_order.append((float(zz), float(at(zz))))
    return SeriesEstimate(
        quantity=quantity,
        per_order=tuple(per_order),
        value=per_order[1][1],
        method=f"lace-equation series at z_c={zc} (sensitivity +-2%)",
    )


def amplitude_A_estimate(act: LoopActivity, nmax: int, ctx: GraphCtx, zc=None) -> SeriesEstimate:
    """A(lambda) at the ratio-estimated z_c, with a +-2% sensitivity column."""
    chi, a0 = chi_series(act, nmax, ctx), alpha0(act, nmax, ctx)
    return _estimate("A", lambda z: _amplitude(chi, a0, z), _rounded_zc(chi) if zc is None else zc)


def diffusion_D_estimate(act: LoopActivity, nmax: int, ctx: GraphCtx, zc=None) -> SeriesEstimate:
    """D(lambda) at the ratio-estimated z_c, with a +-2% sensitivity column."""
    chi, a0 = chi_series(act, nmax, ctx), alpha0(act, nmax, ctx)
    g_inv = spatial_inverse(two_point_table(act, nmax, ctx))

    def at(z):
        return -_amplitude(chi, a0, z) * _inverse_second_moment(g_inv, z)

    return _estimate("D", at, _rounded_zc(chi) if zc is None else zc)


def chi_divergence_probe(act: LoopActivity, nmax: int, ctx: GraphCtx, zc: Fraction, frac=Fraction(95, 100)):
    """(z_c - z) chi(z) / z_c at z = frac * z_c: tends to A near criticality."""
    chi = chi_series(act, nmax, ctx)
    z = zc * frac
    return (zc - z) * chi.eval_at(z) / zc
