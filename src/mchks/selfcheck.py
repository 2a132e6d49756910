"""Property battery behind the ``verify`` subcommand.

Runs the closed-form and structural checks of the scalar toolkits and the
grid calculus without any time stepping.  Each check returns the number of
sampled cases and whether all of them passed; the CLI prints one line per
property and exits nonzero when anything fails.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    Grid2D,
    ScalarField,
    div_mob_grad,
    div_mob_grad_matrix,
    dual_norm,
    inner,
    integrate,
    inv_neumann_laplacian,
    laplacian,
    mean,
)
from .potentials import Potential, YosidaRegularization
from .regularize import TruncationPair
from .sources import ModelParams, proliferation, source_c, source_n, theta


def _variants():
    return [cls() for cls in Potential.__subclasses__()]


def check_potential_split():
    count, ok = 0, True
    for pot in _variants():
        lo, hi = pot.slope_domain
        r = np.linspace(max(lo, -2.0) + 1e-6, min(hi, 3.0) - 1e-6, 257)
        ok &= bool(
            np.allclose(
                pot.value(r), pot.convex_value(r) + pot.concave_value(r), atol=1e-12
            )
        )
        inner_r = np.linspace(max(lo, 0.0) + 0.02, min(hi, 1.0) - 0.02, 41)
        fd = (pot.value(inner_r + 1e-6) - pot.value(inner_r - 1e-6)) / 2e-6
        ok &= bool(np.allclose(pot.derivative(inner_r), fd, atol=1e-6))
        count += len(r) + len(inner_r)
    return count, ok


def check_yosida_structure():
    rng = np.random.default_rng(0)
    count, ok = 0, True
    for pot in _variants():
        for eps in (0.1, 0.01):
            reg = YosidaRegularization(pot, eps)
            r = np.sort(rng.uniform(-3.0, 3.0, 500))
            y = reg.yosida(r)
            ok &= bool(np.all(np.diff(y) >= -1e-9))
            ok &= bool(np.all(np.abs(np.diff(y)) <= np.diff(r) / eps + 1e-7))
            env = reg.envelope(r)
            ok &= bool(np.all(env >= -1e-13))
            # envelope identity vs a local quadratic expansion around J(r)
            j = reg.resolvent(r)
            ok &= bool(
                np.allclose(
                    env, 0.5 * eps * y**2 + pot.convex_value(j), atol=1e-12
                )
            )
            count += len(r)
    return count, ok


def check_entropy_identities():
    rng = np.random.default_rng(1)
    count, ok = 0, True
    for _ in range(2000):
        L = rng.uniform(1e-4, np.exp(-1.0) * 0.999)
        tp = TruncationPair(L)
        r = rng.uniform(-5.0, 2.0 / L)
        ok &= abs(tp.entropy_second(r) * tp.truncate(r) - 1.0) < 1e-13
        ok &= tp.entropy(r) >= 0.0
        rep = tp.inequality_report(r)
        ok &= all(passed for app, passed, _ in rep.values() if app)
        count += 1
    return count, ok


def check_source_bounds():
    rng = np.random.default_rng(2)
    params = ModelParams()
    n_s = 20000
    phi = rng.uniform(-2, 2, n_s)
    phia = rng.uniform(-2, 4, n_s)
    n = rng.uniform(0, 1, n_s)
    c = rng.uniform(0, 1, n_s)
    ok = bool(np.all(np.abs(proliferation(params, phi, n)) <= 1.0 + 1e-12))
    th = theta(params, phi, c)
    ok &= bool(np.all((params.zeta <= th) & (th <= 1 + params.zeta)))
    sn = source_n(params, phi, phia, n)
    ok &= bool(np.all(np.abs(sn) <= 2.0 * (np.abs(phi) + np.maximum(phia, 0) + 1)))
    sc = source_c(params, phi, phia, n, c)
    ok &= bool(np.all(np.abs(sc) <= np.maximum(phia, 0) + np.abs(n) + 1))
    return 4 * n_s, ok


def check_grid_calculus():
    grid = Grid2D(24, 20, 1.3, 1.0)
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(20):
        f = ScalarField(grid, rng.standard_normal((grid.nx, grid.ny)))
        g = ScalarField(grid, rng.standard_normal((grid.nx, grid.ny)))
        ok &= abs(mean(laplacian(f))) < 1e-11
        ok &= abs(inner(g, laplacian(f)) - inner(f, laplacian(g))) < 1e-10
        ok &= inner(f, laplacian(f)) <= 1e-12
        mob = ScalarField(grid, 0.5 + np.abs(rng.standard_normal((grid.nx, grid.ny))))
        ok &= abs(integrate(div_mob_grad(mob, f))) < 1e-10
        # the assembled operator the step solves against the face-flux stencil
        a = div_mob_grad_matrix(grid, mob.values)
        ref = div_mob_grad(mob, f).values.ravel()
        ok &= bool(np.max(np.abs(a @ f.values.ravel() - ref))
                   <= 1e-12 * np.max(np.abs(ref)))
        ok &= bool(np.max(np.abs(a @ np.ones(a.shape[0])))
                   <= 1e-12 * np.max(np.abs(a.data)))
        lap = laplacian(f)
        u = inv_neumann_laplacian(ScalarField(grid, -lap.values))
        target = f.values - np.mean(f.values)
        ok &= bool(np.max(np.abs(u.values - target)) < 1e-7)
        ok &= abs(dual_norm(ScalarField(grid, 2 * f.values)) - 2 * dual_norm(f)) < 1e-7
    return 160, ok


ALL_CHECKS = [
    ("potential-split", check_potential_split),
    ("yosida-structure", check_yosida_structure),
    ("entropy-identities", check_entropy_identities),
    ("source-bounds", check_source_bounds),
    ("grid-calculus", check_grid_calculus),
]


def run_all():
    results = []
    for name, fn in ALL_CHECKS:
        count, ok = fn()
        results.append((name, count, ok))
    return results
