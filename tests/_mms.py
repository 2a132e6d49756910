"""Manufactured-solution setup shared by the convergence tests.

Exact solution: all four evolved fields oscillate on the lowest Neumann
cosine mode with ranges chosen so every piecewise switch in the sources sits
on its smooth branch (no positive-part kinks).  Forcing terms are the exact
closed-form residuals of the continuous equations, evaluated pointwise;
plugging them into the solver makes the manufactured fields the exact
solution, so FD errors measure pure discretization error.
"""

import numpy as np

from mchks.fields import Grid2D
from mchks.solver import Forcing, State
from mchks.sources import ModelParams, source_c, source_n, source_phi, source_phi_a


class Manufactured:
    def __init__(self, params: ModelParams, length: float):
        self.params = params
        self.length = length
        self.amp = dict(phi=0.2, phi_a=0.2, n=0.15, c=0.2)
        self.base = dict(phi=0.5, phi_a=0.5, n=0.6, c=0.5)
        if not isinstance(params.potential.c3, float):
            raise TypeError("manufactured forcing assumes the quartic potential")

    # mode helpers ------------------------------------------------------
    def _mode(self, x, y):
        L = self.length
        return np.cos(np.pi * x / L) * np.cos(np.pi * y / L)

    def _lam(self):
        return 2.0 * (np.pi / self.length) ** 2

    def _grad_mode_sq(self, x, y):
        L = self.length
        k = np.pi / L
        sx, cx = np.sin(k * x), np.cos(k * x)
        sy, cy = np.sin(k * y), np.cos(k * y)
        return k * k * (sx * sx * cy * cy + cx * cx * sy * sy)

    def _amp_t(self, name, t):
        if name in ("phi", "n"):
            return self.amp[name] * np.cos(t), -self.amp[name] * np.sin(t)
        return self.amp[name] * np.sin(t), self.amp[name] * np.cos(t)

    def exact(self, name, x, y, t):
        a, _ = self._amp_t(name, t)
        return self.base[name] + a * self._mode(x, y)

    def exact_dt(self, name, x, y, t):
        _, adot = self._amp_t(name, t)
        return adot * self._mode(x, y)

    def exact_lap(self, name, x, y, t):
        a, _ = self._amp_t(name, t)
        return -a * self._lam() * self._mode(x, y)

    def exact_grad_dot(self, n1, n2, x, y, t):
        a1, _ = self._amp_t(n1, t)
        a2, _ = self._amp_t(n2, t)
        return a1 * a2 * self._grad_mode_sq(x, y)

    # forcing -----------------------------------------------------------
    def forcing(self) -> Forcing:
        p = self.params
        c3 = p.potential.c3

        def f2(r):
            return c3 * (3.0 * r * r - 3.0 * r + 0.5)

        def f3(r):
            return c3 * (6.0 * r - 3.0)

        def g_phi(x, y, t):
            phi = self.exact("phi", x, y, t)
            n = self.exact("n", x, y, t)
            lam = self._lam()
            a, _ = self._amp_t("phi", t)
            lap_phi = self.exact_lap("phi", x, y, t)
            bilap_phi = a * lam * lam * self._mode(x, y)
            grad_phi_sq = self.exact_grad_dot("phi", "phi", x, y, t)
            lap_fprime = f2(phi) * lap_phi + f3(phi) * grad_phi_sq
            lap_mu = -bilap_phi + lap_fprime
            return (
                self.exact_dt("phi", x, y, t)
                - lap_mu
                + p.chi_phi * self.exact_lap("n", x, y, t)
                - source_phi(p, phi, n)
            )

        def g_phi_a(x, y, t):
            phi = self.exact("phi", x, y, t)
            phia = self.exact("phi_a", x, y, t)
            c = self.exact("c", x, y, t)
            div_chemo = self.exact_grad_dot(
                "phi_a", "c", x, y, t
            ) + phia * self.exact_lap("c", x, y, t)
            return (
                self.exact_dt("phi_a", x, y, t)
                - self.exact_lap("phi_a", x, y, t)
                + p.chi_a * div_chemo
                - source_phi_a(p, phi, phia, c)
            )

        def g_n(x, y, t):
            phi = self.exact("phi", x, y, t)
            phia = self.exact("phi_a", x, y, t)
            n = self.exact("n", x, y, t)
            return (
                self.exact_dt("n", x, y, t)
                - self.exact_lap("n", x, y, t)
                - p.chi_phi * phi
                - source_n(p, phi, phia, n)
            )

        def g_c(x, y, t):
            phi = self.exact("phi", x, y, t)
            phia = self.exact("phi_a", x, y, t)
            n = self.exact("n", x, y, t)
            c = self.exact("c", x, y, t)
            return (
                self.exact_dt("c", x, y, t)
                - self.exact_lap("c", x, y, t)
                - p.chi_a * phia
                - source_c(p, phi, phia, n, c)
            )

        return Forcing(phi=g_phi, phi_a=g_phi_a, n=g_n, c=g_c)

    # runs ---------------------------------------------------------------
    def initial_state(self, grid: Grid2D) -> State:
        x, y = grid.centers()
        return State(
            0.0,
            grid,
            self.exact("phi", x, y, 0.0),
            np.zeros(grid.shape),
            self.exact("phi_a", x, y, 0.0),
            self.exact("n", x, y, 0.0),
            self.exact("c", x, y, 0.0),
        )

    def error_at(self, state) -> float:
        """Max over fields of the RMS error against the exact solution."""
        x, y = state.grid.centers()
        worst = 0.0
        for name in ("phi", "phi_a", "n", "c"):
            exact = self.exact(name, x, y, state.t)
            got = getattr(state, name)
            worst = max(worst, float(np.sqrt(np.mean((got - exact) ** 2))))
        return worst
