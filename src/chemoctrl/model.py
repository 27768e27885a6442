"""Truncation operator, entropy density and scalar inequality utilities.

The truncation caps a nonnegative density smoothly at a configurable level:
it is the identity below the level ``m`` and approaches ``m + 1``
exponentially above it, so it stays C^1, nondecreasing and 1-Lipschitz.  The
entropy density ``g`` of the energy has two regimes in the consumption
exponent ``s``:

    g(u) = (u + 1) ln(u + 1) - u          for s = 1,
    g(u) = u^s / (s (s - 1))              for s > 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Physical and regularization parameters of the controlled system.

    Attributes
    ----------
    s : float
        Consumption exponent, at least 1.
    alpha : float
        Shift in the square-root change of variables, positive.
    m : float
        Truncation level, positive.
    q : float
        Integrability exponent of the control, strictly above 5/2.
    t_final : float
        Time horizon (0 is allowed and yields a trajectory with only the
        initial state).
    """

    s: float
    alpha: float = 0.1
    m: float = 8.0
    q: float = 3.0
    t_final: float = 1.0

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"consumption exponent s must be >= 1, got {self.s}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.m <= 0:
            raise ValueError(f"truncation level m must be positive, got {self.m}")
        if self.q <= 2.5:
            raise ValueError(f"control exponent q must exceed 5/2, got {self.q}")
        if self.t_final < 0:
            raise ValueError(f"t_final must be nonnegative, got {self.t_final}")


def _as_nonneg(r, name):
    arr = np.asarray(r, dtype=float)
    if (arr < 0).any():
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _like_input(out, r):
    return out if np.ndim(r) else float(out)


def truncate(r, m):
    """Smooth cap of ``r`` at level ``m``.

    Identity for ``r <= m``; ``m + 1 - exp(-(r - m))`` above, hence bounded by
    ``min(r, m + 1)``, C^1, nondecreasing, with derivative in [0, 1].
    Accepts scalars or arrays.
    """
    if m <= 0:
        raise ValueError(f"truncation level must be positive, got {m}")
    arr = _as_nonneg(r, "truncation argument")
    excess = np.clip(arr - m, 0.0, None)
    out = np.where(arr <= m, arr, m + 1.0 - np.exp(-excess))
    return _like_input(out, r)


def truncate_derivative(r, m):
    """Derivative of :func:`truncate`: 1 below the knee, ``exp(-(r-m))`` above."""
    if m <= 0:
        raise ValueError(f"truncation level must be positive, got {m}")
    arr = _as_nonneg(r, "truncation argument")
    excess = np.clip(arr - m, 0.0, None)
    out = np.where(arr <= m, 1.0, np.exp(-excess))
    return _like_input(out, r)


def g_energy(u, s, out=None, scratch=None):
    """Entropy density, branch selected by the consumption exponent.

    With ``out`` (and, for ``s == 1``, ``scratch``), arrays shaped like
    ``u``, the density is written into ``out`` and no temporary as large as
    ``u`` is made.  The in-place steps make the operations of
    ``(u + 1) * log1p(u) - u`` and ``u**s / (s (s - 1))`` in their order, and
    ``out **= s`` dispatches as ``u**s`` does, so the result is the same bit
    for bit.
    """
    if s < 1:
        raise ValueError(f"g requires s >= 1, got s={s}")
    arr = _as_nonneg(u, "entropy argument")
    if s == 1:
        out = np.add(arr, 1.0, out=out)
        out *= np.log1p(arr, out=scratch)
        out -= arr
    else:
        if out is None:
            out = arr**s
        else:
            out[...] = arr
            out **= s
        out /= s * (s - 1.0)
    return _like_input(out, u)


def power_difference_bound_holds(w1, w2, s, slack=1e-12):
    """Check ``|w2^s - w1^s| <= s |w2 + w1|^{s-1} |w2 - w1|`` with slack.

    Vectorized; returns a bool (or bool array) stating whether the inequality
    holds within the given absolute slack.
    """
    if np.any(np.asarray(s) < 1):
        raise ValueError(f"the bound requires s >= 1, got s={s}")
    a = _as_nonneg(w1, "w1")
    b = _as_nonneg(w2, "w2")
    lhs = np.abs(b**s - a**s)
    rhs = s * np.abs(a + b) ** (s - 1.0) * np.abs(b - a)
    out = lhs <= rhs + slack
    if np.isscalar(w1) and np.isscalar(w2):
        return bool(out)
    return out
