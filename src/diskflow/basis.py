"""Orthonormal eigenbasis of the Stokes operator on the unit disk.

Mode (n, k) has vorticity c * J_n(alpha * r) * exp(i n theta) with
alpha the k-th positive zero of J_{n+1} and eigenvalue alpha**2.  The
normalization makes the vorticities an orthonormal family in L2 of the
disk, which is the same as the velocities being orthonormal in the
gradient inner product; the sign is fixed so every mode's vorticity is
+pi**-0.5 at (r, theta) = (1, 0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bessel import BesselDomainError, jn_trio, zero_table

_SQRT_PI = math.sqrt(math.pi)
_R_LIMIT = 1.0e-8  # below this, point evaluation switches to series limits

# Every component of a mode's profile is a real radial factor times a fixed
# phase; radial_profiles, profile_matrix and pair_profile return the real factors.
PHASES = {
    "vorticity": (1,),
    "velocity": (1j, 1),           # (u^r, u^theta)
    "gradient": (1j, 1, 1, 1j),    # row-major polar gradient tensor
    "dtau_utau": (1j,),  # (1/r) d/dtheta of the angular velocity component
    "dtau_un": (1,),     # (1/r) d/dtheta of the radial velocity component
}
QUANTITIES = {q: len(ph) for q, ph in PHASES.items()}


@dataclass(frozen=True)
class EigenPair:
    """One Stokes mode: indices, eigenvalue, zeros, and scale constants."""

    n: int
    k: int
    lam: float
    alpha: float      # k-th positive zero of J_{n+1}; lam = alpha**2
    beta: float       # k-th positive zero of J_n
    c_norm: float     # 1 / (sqrt(pi) |J_n(alpha)|) > 0
    c_signed: float   # 1 / (sqrt(pi) J_n(alpha)); fixes the mode sign
    d_const: float    # -alpha**2 J_n(alpha) / n for n >= 1, nan for n = 0


class StokesBasis:
    """Mode table for angular index <= n_max and radial index <= k_max."""

    def __init__(self, n_max: int = 128, k_max: int = 128):
        if n_max < 0 or k_max < 1:
            raise ValueError("need n_max >= 0 and k_max >= 1")
        self.n_max = int(n_max)
        self.k_max = int(k_max)
        zeros = zero_table(n_max + 1, k_max).all_rows()
        self.alpha = zeros[1:, :].copy()
        self.beta = zeros[:-1, :].copy()
        self.lam = self.alpha**2
        ns = np.arange(n_max + 1)
        self.j_at_alpha = jn_trio(np.repeat(ns, k_max),
                                  self.alpha.ravel())[1].reshape(self.alpha.shape)
        self.c_signed = 1.0 / (_SQRT_PI * self.j_at_alpha)
        self.c_norm = np.abs(self.c_signed)
        ns = ns.astype(float)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.d_const = np.where(ns >= 1, -self.lam * self.j_at_alpha / ns, np.nan)

    def _check(self, n: int, k: int) -> None:
        if not (0 <= n <= self.n_max):
            raise BesselDomainError(f"angular index {n} outside [0, {self.n_max}]")
        if not (1 <= k <= self.k_max):
            raise BesselDomainError(f"radial index {k} outside [1, {self.k_max}]")

    def pair(self, n: int, k: int) -> EigenPair:
        self._check(n, k)
        j = k - 1
        return EigenPair(
            n=n, k=k,
            lam=float(self.lam[n, j]),
            alpha=float(self.alpha[n, j]),
            beta=float(self.beta[n, j]),
            c_norm=float(self.c_norm[n, j]),
            c_signed=float(self.c_signed[n, j]),
            d_const=float(self.d_const[n, j]),
        )

    def profile_matrix(self, n: int, r: np.ndarray, quantity: str,
                       k_max: int | None = None) -> dict[str, np.ndarray]:
        """Radial factors of the modes (n, 1..k_max), not cached: radial_profiles's
        dict of every quantity its one Bessel pass computes, each of shape
        (ncomp, k_max, r.size)."""
        k_max = self.k_max if k_max is None else k_max
        self._check(n, max(k_max, 1))
        return radial_profiles(n, self.alpha[n, :k_max], self.c_signed[n, :k_max],
                               r, quantity)


def radial_profiles(n, alphas: np.ndarray, c_signed: np.ndarray,
                    r: np.ndarray, quantity: str) -> dict[str, np.ndarray]:
    """Real radial factors of the modes (n, alphas) for one quantity.

    The order n and the radii r > 0, shape (Q,), are shared by all K modes,
    or given per mode as shapes (K,) and (K, Q).  Returns {quantity: factors
    of shape (ncomp, K, Q)}, normalization included; the velocity also
    returns the vorticity, and the gradient every other quantity, which
    they compute on the way.  The velocity of a mode is (i n R(r), T(r))
    exp(i n theta) in polar components; every other quantity is built from
    J_n, R, T and their radial derivatives.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    K, Q = alphas.size, r.shape[-1]
    x = (alphas[:, None] * r).ravel()
    jm1, jn, jp1 = jn_trio(np.repeat(n, Q) if np.ndim(n) else n, x)
    n = np.reshape(n, (K, 1)) if np.ndim(n) else n
    jn = jn.reshape(K, Q)
    cs = c_signed[:, None]
    vort = {"vorticity": (cs * jn)[None, :, :]}
    if quantity == "vorticity":
        return vort
    jp = (0.5 * (jm1 - jp1)).reshape(K, Q)
    a = alphas[:, None]
    ja = 1.0 / (_SQRT_PI * cs)  # J_n(alpha), signed
    # R and Rp only ever enter multiplied by n, and r^(n-2) by (n - 1), so
    # the negative powers at n <= 1 (finite for r > 0) drop out of every factor
    rn1 = r ** (n - 1)
    inv_a2 = 1.0 / (a * a)
    R = cs * (jn / r - ja * rn1) * inv_a2
    T = cs * (n * ja * rn1 - a * jp) * inv_a2
    if quantity == "dtau_utau":
        return {quantity: (n * T / r)[None, :, :]}
    if quantity == "dtau_un":
        return {quantity: (-(n * n) * R / r)[None, :, :]}
    out = {"velocity": np.stack([n * R, T]), **vort}
    if quantity == "gradient":
        # Entries of the polar velocity gradient in the orthonormal frame:
        # [d_r u^r, (1/r) d_th u^r - u^th/r; d_r u^th, (1/r) d_th u^th + u^r/r]
        with np.errstate(divide="ignore", invalid="ignore"):
            xg = a * r
            jpp = -jp / xg + (n * n / (xg * xg) - 1.0) * jn
        rn2 = r ** (n - 2)
        Rp = cs * (a * jp / r - jn / r ** 2 - (n - 1) * ja * rn2) * inv_a2
        Tp = cs * (n * (n - 1) * ja * rn2 - a * a * jpp) * inv_a2
        out["gradient"] = np.stack([n * Rp, (-(n * n) * R - T) / r, Tp,
                                    n * (T + R) / r])
        out["dtau_utau"], out["dtau_un"] = (n * T / r)[None], (-(n * n) * R / r)[None]
    return out


def pair_profile(pair: EigenPair, r: np.ndarray, quantity: str) -> np.ndarray:
    """Real radial factor of one mode, shape (ncomp, r.size).

    Equal to profile_matrix(pair.n, r, quantity)[quantity][:, pair.k - 1] up
    to roundoff, without evaluating the rest of the row.
    """
    return radial_profiles(pair.n, np.array([pair.alpha]), np.array([pair.c_signed]),
                           np.asarray(r, dtype=float), quantity)[quantity][:, 0, :]


def vorticity_eval(pair: EigenPair, r: float, theta: float) -> complex:
    """Vorticity of one mode at a point of the closed disk."""
    if not 0.0 <= r <= 1.0:
        raise BesselDomainError(f"radius {r} outside [0, 1]")
    return pair_profile(pair, [r], "vorticity")[0, 0] * np.exp(1j * pair.n * theta)


def velocity_eval(pair: EigenPair, r: float, theta: float) -> np.ndarray:
    """Polar velocity components (u^r, u^theta) of one mode at a point.

    The removable singularity at the center is evaluated by its series
    limit; both components vanish on the boundary circle.
    """
    if not 0.0 <= r <= 1.0:
        raise BesselDomainError(f"radius {r} outside [0, 1]")
    n = pair.n
    if r >= _R_LIMIT:
        u = pair_profile(pair, [r], "velocity")[:, 0] * PHASES["velocity"]
    elif n == 1:
        ja = 1.0 / (_SQRT_PI * pair.c_signed)
        r0 = pair.c_signed * (0.5 * pair.alpha - ja) / pair.lam
        u = np.array([1j * r0, -r0])
    else:
        u = np.zeros(2, dtype=complex)
    return u * np.exp(1j * n * theta)


def velocity_gradient_eval(pair: EigenPair, r: float, theta: float) -> np.ndarray:
    """Polar gradient tensor [[d_r u^r, tangential], [d_r u^th, tangential]].

    Row i, column j is the j-direction derivative of component i in the
    orthonormal polar frame (curvature terms included), so the trace is the
    divergence and (grad[1,0] - grad[0,1]) is the vorticity.
    """
    if not _R_LIMIT <= r <= 1.0:
        raise BesselDomainError(f"radius {r} outside ({_R_LIMIT}, 1]")
    grad = (pair_profile(pair, [r], "gradient")[:, 0] * PHASES["gradient"]).reshape(2, 2)
    return grad * np.exp(1j * pair.n * theta)


@functools.lru_cache(maxsize=8)
def stokes_basis(n_max: int, k_max: int) -> StokesBasis:
    """The shared basis table of exact size (n_max, k_max), built once."""
    return StokesBasis(n_max, k_max)
