#!/usr/bin/env python3
"""Ring identities of lww.series on seeded random series, with no numpy.

Checks, at orders 0..7, the ring axioms, exp(a) exp(-a) = 1,
log1p(exp(a) - 1) = a, 1/(1/b) = b, the schoolbook product, that a series
out of a kernel and the same series built from its Fractions are equal and
hash alike, that `.coeffs` are normalised Fractions with the shared ZERO for
0 however a series was built, and that spatial_inverse inverts
spatial_convolve. Prints one line and exits 1 on the first failure.

    PYTHONPATH=src python3 scripts/series_smoke.py
"""

import random
import sys
from fractions import Fraction

from lww.series import (
    ZERO,
    SpatialSeries,
    ZSeries,
    exp_series,
    log1p_series,
    reciprocal,
    spatial_convolve,
    spatial_inverse,
)


def draw(rng, n, const=None):
    co = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n + 1)]
    if const == "zero":
        co[0] = Fraction(0)
    elif const == "nonzero" and co[0] == 0:
        co[0] = Fraction(-5, 3)
    return ZSeries.of(co, n)


def schoolbook(a, b):
    n = a.nmax
    return ZSeries.of(
        [sum((a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1)], n
    )


def normalised(s):
    return all(type(c) is Fraction and (c or c is ZERO) for c in s.coeffs)


def check(ok, what):
    if not ok:
        print(f"series smoke FAILED: {what}")
        sys.exit(1)


def main() -> None:
    rng = random.Random(20261019)
    for n in range(8):
        for _ in range(20):
            a, b, c = draw(rng, n), draw(rng, n), draw(rng, n)
            t, u = draw(rng, n, "zero"), draw(rng, n, "nonzero")
            one = ZSeries.one(n)
            check((a + b) + c == a + (b + c) and (a * b) * c == a * (b * c), "associativity")
            check(a * (b + c) == a * b + a * c and a * b == b * a, "distributivity, commutativity")
            check(a - a == ZSeries.zero(n) and a * one == a, "identities")
            check(a * b == schoolbook(a, b), "schoolbook product")
            check(exp_series(t) * exp_series(-t) == one, "exp group law")
            check(log1p_series(exp_series(t) - one) == t, "log1p inverts exp")
            check(reciprocal(reciprocal(u)) == u and u * reciprocal(u) == one, "reciprocal")
            k = a * b + c
            built = ZSeries(k.coeffs)
            check(ZSeries(k.coeffs) == (a * b + c) and hash(built) == hash(a * b + c), "eq and hash across constructors")
            ints = ZSeries([rng.randint(-3, 3) for _ in range(n + 1)])
            check(all(map(normalised, (a, k, built, ints, ZSeries.const(0, n)))), "coeffs are normalised Fractions")
            table = SpatialSeries.build({(0, 0): u, (1, 0): t, (0, -1): t * Fraction(1, 3)}, n)
            check(spatial_convolve(table, spatial_inverse(table)) == SpatialSeries.delta((0, 0), n),
                  "spatial inverse")
    print(f"series smoke ok on Python {sys.version.split()[0]}")


if __name__ == "__main__":
    main()
