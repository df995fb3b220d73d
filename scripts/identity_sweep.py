#!/usr/bin/env python3
"""Residual sweeps for the summation and kernel identities."""
from __future__ import annotations

import argparse
import math

import numpy as np

from qhaar import (
    QContext,
    asc_poisson,
    asc_poisson_series,
    bailey_variant_residuals,
    cqh_poisson,
    cqh_poisson_series,
    mass_identity_check,
    sigma_limit_check,
)
from qhaar.orthopoly import _mass_ladder


def bailey_table(ctx: QContext, taus: list[float], sigmas: list[float], points: int) -> None:
    thetas = np.linspace(0.15, math.pi - 0.15, points)
    print(f"bailey residual, worst over {points} angles (rows tau, cols sigma)")
    print("  tau\\sig " + "".join(f"{s:>10g}" for s in sigmas))
    worst_variant = math.inf
    for tau in taus:
        cells = []
        for sigma in sigmas:
            cons, variant = bailey_variant_residuals(thetas, tau, sigma, ctx)
            cells.append(f"{cons.max():>10.1e}")
            worst_variant = min(worst_variant, variant.min())
        print(f"  {tau:<7g}" + "".join(cells))
    # the variant prefactor never gets close: it is an O(1) miss, not a tolerance issue
    print(f"  variant prefactor residual, best case: {worst_variant:.3e}")


def mass_ladder(ctx: QContext) -> None:
    print("discrete-mass weight identity")
    for a, b in [(1.6, 0.3), (2.5, -0.2), (-1.8660659830736148, 0.2332649334213164)]:
        # the rungs of a's mass ladder, by the rule of the measure itself
        for k in _mass_ladder(a, ctx.q):
            r = mass_identity_check(a, b, k, ctx)
            print(f"  a={a:+.4f} b={b:+.4f} k={k}: residual {r:.3e}")


def poisson_points(ctx: QContext, seed: int, count: int) -> None:
    rng = np.random.default_rng(seed)
    print(f"poisson kernels, series vs closed form ({count} random points each)")
    worst_h = worst_a = 0.0
    for _ in range(count):
        x, y = np.cos(rng.uniform(0.1, math.pi - 0.1, size=2))
        t = rng.uniform(-0.8, 0.8)
        worst_h = max(worst_h, abs(cqh_poisson(t, x, y, ctx) - cqh_poisson_series(t, x, y, ctx)))
        a = rng.uniform(0.1, 0.8) * rng.choice([-1.0, 1.0])
        b = rng.uniform(0.1, 0.8) * rng.choice([-1.0, 1.0])
        worst_a = max(
            worst_a,
            abs(asc_poisson(t, x, y, a, b, ctx) - asc_poisson_series(t, x, y, a, b, ctx)),
        )
    print(f"  q-hermite worst abs err: {worst_h:.3e}")
    print(f"  al-salam--chihara worst abs err: {worst_a:.3e}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=float, default=0.5)
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--taus", type=float, nargs="+", default=[0.2, 0.4, 0.7, 1.0])
    ap.add_argument("--sigmas", type=float, nargs="+", default=[0.6, 1.0, 1.5, 2.0])
    ap.add_argument("--seed", type=int, default=7041)
    ap.add_argument("--poisson-count", type=int, default=10)
    args = ap.parse_args()
    ctx = QContext(args.q)

    bailey_table(ctx, args.taus, args.sigmas, args.points)
    print()
    mass_ladder(ctx)
    print()
    poisson_points(ctx, args.seed, args.poisson_count)
    print()
    devs = sigma_limit_check([0.0, 0.0, 1.0], 0.4, ctx)
    print("rescaled two-parameter family vs one-parameter limit, sigma = 4, 6, 8:")
    print("  " + "  ".join(f"{d:.3e}" for d in devs))


if __name__ == "__main__":
    main()
