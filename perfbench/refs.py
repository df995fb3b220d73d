"""Closed-form references the benchmark checks the program's outputs against.

Every formula here is written from the mathematics, not from the program:
the moments of the four Haar-functional measures, the mass points of the
thm6 Askey-Wilson measure, the Euler product behind ``eval-series`` and the
exact identities a truncated spectrum must satisfy.
"""

from __future__ import annotations

import math

# A value below this magnitude is compared by absolute error (the program's
# rows switch the same way).
REL_FLOOR = 1e-6


def thm4_moment(k: int) -> float:
    """Semicircle moment: C(2m, m) / ((m + 1) 4^m) for k = 2m, 0 for odd k."""
    if k % 2:
        return 0.0
    m = k // 2
    return math.comb(2 * m, m) / ((m + 1) * 4.0**m)


def thm5_moment(k: int, q: float, tau: float) -> float:
    """Two-endpoint Jackson moment over [-1, q^(2 tau)] in base q^2, normalized."""
    Q = q * q
    qt = q ** (2.0 * tau)
    return (1.0 - Q) * ((-1.0) ** k + qt ** (k + 1)) / ((1.0 - Q ** (k + 1)) * (1.0 + qt))


def gamma_moment(k: int, q: float) -> float:
    """Jackson moment over [0, 1] in base q^2."""
    Q = q * q
    return (1.0 - Q) / (1.0 - Q ** (k + 1))


def thm6_params(q: float, tau: float, sigma: float) -> tuple[float, float, float, float]:
    """Askey-Wilson parameters (a, b, c, d) of rho_tau_sigma; the base is q^2."""
    return (
        -(q ** (sigma + tau + 1.0)),
        -(q ** (1.0 - sigma - tau)),
        q ** (sigma - tau + 1.0),
        q ** (1.0 - sigma + tau),
    )


def aw_jacobi(a: float, b: float, c: float, d: float, Q: float, size: int):
    """Diagonal and off-diagonal of the orthonormal Askey-Wilson Jacobi matrix.

    Koekoek, Lesky & Swarttouw (2010), eq. 14.1.5, in x = cos(theta):
    diagonal (a + 1/a - A_n - C_n) / 2 and off-diagonal sqrt(A_n C_{n+1}) / 2.
    C_0 = 0; for the thm6 parameters abcd = Q^2, so the printed C_0 reads 0/0.
    """
    abcd = a * b * c * d

    def A(n: int) -> float:
        return (
            (1 - a * b * Q**n) * (1 - a * c * Q**n) * (1 - a * d * Q**n) * (1 - abcd * Q ** (n - 1))
            / (a * (1 - abcd * Q ** (2 * n - 1)) * (1 - abcd * Q ** (2 * n)))
        )

    def C(n: int) -> float:
        if n == 0:
            return 0.0
        return (
            a * (1 - Q**n) * (1 - b * c * Q ** (n - 1)) * (1 - b * d * Q ** (n - 1)) * (1 - c * d * Q ** (n - 1))
            / ((1 - abcd * Q ** (2 * n - 2)) * (1 - abcd * Q ** (2 * n - 1)))
        )

    diag = [(a + 1.0 / a - A(n) - C(n)) / 2.0 for n in range(size)]
    off = [math.sqrt(A(n) * C(n + 1)) / 2.0 for n in range(size - 1)]
    return diag, off


def jacobi_moments(diag: list[float], off: list[float], k_max: int) -> list[float]:
    """(J^k)_{00} for k = 0..k_max, by repeated products with e_0.

    Exact once the matrix has at least k_max // 2 + 1 rows.
    """
    n = len(diag)
    v = [1.0] + [0.0] * (n - 1)
    out = [1.0]
    for _ in range(k_max):
        w = [diag[i] * v[i] for i in range(n)]
        for i in range(n - 1):
            w[i] += off[i] * v[i + 1]
            w[i + 1] += off[i] * v[i]
        v = w
        # (J^k)_{00} = <e_0, J^k e_0>
        out.append(v[0])
    return out


def thm6_moments(q: float, tau: float, sigma: float, k_max: int) -> list[float]:
    """Moments 0..k_max of the normalized thm6 Askey-Wilson measure."""
    diag, off = aw_jacobi(*thm6_params(q, tau, sigma), q * q, k_max // 2 + 1)
    return jacobi_moments(diag, off, k_max)


def moments(theorem: str, q: float, tau: float, sigma: float, k_max: int) -> list[float]:
    """Moments 0..k_max of the measure a theorem's measure route integrates against."""
    if theorem == "thm4":
        return [thm4_moment(k) for k in range(k_max + 1)]
    if theorem == "thm5":
        return [thm5_moment(k, q, tau) for k in range(k_max + 1)]
    if theorem == "thm6":
        return thm6_moments(q, tau, sigma, k_max)
    if theorem == "gamma":
        return [gamma_moment(k, q) for k in range(k_max + 1)]
    raise ValueError(f"no reference for {theorem!r}")


def thm6_mass_points(q: float, tau: float, sigma: float) -> list[float]:
    """Mass points (e Q^k + 1/(e Q^k)) / 2 for each parameter e with |e Q^k| > 1."""
    Q = q * q
    out = []
    for e in thm6_params(q, tau, sigma):
        k = 0
        while abs(e) * Q**k > 1.0:
            out.append((e * Q**k + 1.0 / (e * Q**k)) / 2.0)
            k += 1
    return sorted(out)


def spectrum_hull(target: str, q: float, tau: float, sigma: float) -> tuple[float, float]:
    """Smallest interval holding the spectrum of the element ``spectrum`` truncates.

    Each truncated element is the compression of a bounded self-adjoint
    operator, so its eigenvalues lie in the hull of the operator's spectrum.
    """
    if target == "cocentral":
        return -1.0, 1.0
    if target == "rho-inf":
        return -1.0, q ** (2.0 * tau)
    points = thm6_mass_points(q, tau, sigma) + [-1.0, 1.0]
    return min(points), max(points)


def weight_total(q: float, size: int) -> float:
    """Sum of the ``spectrum`` weights: (1 - q^2) sum_{n=0}^{N} q^{2n} = 1 - q^{2(N+1)}."""
    return 1.0 - q ** (2 * (size + 1))


def support_distance(eigenvalues, masses) -> float:
    """Largest distance from an eigenvalue to [-1, 1] together with the masses."""
    worst = 0.0
    for x in eigenvalues:
        dist = max(abs(x) - 1.0, 0.0)
        for m in masses:
            dist = min(dist, abs(x - m))
        worst = max(worst, dist)
    return worst


def euler_product(z: float, q: float) -> float:
    """(z; q)_inf, the value of the 0phi0 series ``eval-series --z z`` sums."""
    out, qk = 1.0, 1.0
    while abs(z) * qk > 1e-18:
        out *= 1.0 - z * qk
        qk *= q
    return out


def error(value: float, ref: float) -> float:
    """Relative error, or absolute error when the reference is below REL_FLOOR."""
    diff = abs(value - ref)
    return diff if abs(ref) < REL_FLOOR else diff / abs(ref)
