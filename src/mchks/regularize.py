"""Truncation and entropy toolkit for the chemotactic phase.

``TruncationPair(L)`` bundles the clamp to [L, M], M = 1/L, together with
the C^2 entropy density built so that (entropy'' * truncate)(r) = 1 for
every r.  The entropy is the x*log(x) density on (L, M), normalized to
vanish to first order at 1, extended by quadratics below L and above M.
The inequality battery collects the pointwise bounds the a-priori energy
estimates rely on; each check reports its slack so a runtime monitor can
assert nonnegativity.  The pointwise maps take a scalar as well through
``potentials.elementwise``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .potentials import elementwise

_E = math.e
_INV_E = 1.0 / math.e


@dataclass(frozen=True)
class TruncationPair:
    """The (L, 1/L) pair of the regularized entropy estimates."""

    L: float

    def __post_init__(self):
        if not 0.0 < self.L < 1.0:
            raise ValueError("need 0 < L < 1")

    @property
    def M(self):
        return 1.0 / self.L

    @elementwise
    def truncate(self, r):
        return r.clip(self.L, self.M)

    @elementwise
    def entropy(self, r):
        L, M = self.L, self.M
        rc = np.clip(r, L, M)
        with np.errstate(invalid="ignore"):
            core = (np.log(rc) - 1.0) * rc + 1.0
        low = (r * r - L * L) / (2.0 * L) + (math.log(L) - 1.0) * r + 1.0
        high = (r * r - M * M) / (2.0 * M) + (math.log(M) - 1.0) * r + 1.0
        return np.where(r <= L, low, np.where(r >= M, high, core))

    @elementwise
    def entropy_prime(self, r):
        L, M = self.L, self.M
        rc = np.clip(r, L, M)
        core = np.log(rc)
        low = r / L + math.log(L) - 1.0
        high = r / M + math.log(M) - 1.0
        return np.where(r <= L, low, np.where(r >= M, high, core))

    @elementwise
    def entropy_second(self, r):
        return 1.0 / np.clip(r, self.L, self.M)

    # ------------------------------------------------------------ bounds

    def inequality_report(self, r, cbar=None):
        """Evaluate the pointwise entropy bounds at r.

        Returns a dict mapping check names to (applicable, satisfied, slack).
        ``cbar`` enables the calibrated positive-part bound, whose validity
        range for L is (0, exp(-(1+cbar)/cbar)).
        """
        L = self.L
        if not 0.0 < L < _INV_E:
            raise RangeError("entropy bounds need L in (0, 1/e)")
        r = float(r)
        e_val = self.entropy(r)
        e_prime = self.entropy_prime(r)
        rp2 = max(r, 0.0) ** 2

        report = {}

        # quadratic lower bound below zero
        if r <= 0.0:
            slack = e_val - r * r / (2.0 * L)
            report["lower_quadratic_bound"] = (True, slack >= 0.0, slack)
        else:
            report["lower_quadratic_bound"] = (False, True, math.nan)

        # first-moment bound r E' <= 2 E + 1
        slack = 2.0 * e_val + 1.0 - r * e_prime
        report["moment_bound"] = (True, slack >= 0.0, slack)

        slack = e_val + _E - 1.0 - abs(r)
        report["absolute_value_bound"] = (True, slack >= 0.0, slack)

        slack = rp2 * e_prime + 0.5 / _E
        report["positive_part_sign"] = (True, slack >= 0.0, slack)

        if cbar is not None:
            if cbar <= 0.0:
                raise RangeError("cbar must be positive")
            l_max = math.exp(-(1.0 + cbar) / cbar)
            if not L < l_max:
                raise RangeError(
                    f"calibrated bound needs L < {l_max:.6g}, got {L}"
                )
            const = max(
                math.exp(-2.0 * (1.0 + cbar) / cbar)
                * (cbar + 4.0 / (27.0 * cbar * cbar)),
                math.exp(2.0 / cbar),
            )
            slack = cbar * (rp2 * e_prime + 0.5 / _E) + const - rp2
            report["positive_part_calibrated"] = (True, slack >= 0.0, slack)

        return report
