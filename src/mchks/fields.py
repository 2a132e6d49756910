"""Cell-centered 2D grid calculus with homogeneous Neumann boundaries.

Fields live at cell centers ((i+1/2)dx, (j+1/2)dy), stored as (nx, ny)
arrays.  The Laplacian uses the 5-point stencil closed with mirror ghost
cells, which makes the boundary fluxes exactly zero and the operator
symmetric; all summation-by-parts identities the energy diagnostics rely on
then hold to round-off.  Mobility-weighted divergences are assembled in face
flux form (arithmetic face means) so that their integral vanishes
exactly.  The orthonormal DCT-II diagonalises the mirror-ghost Laplacian
exactly; its eigenvalues live in one cached table per grid, which the
Cahn-Hilliard preconditioner shares.  The inverse Neumann Laplacian is an
exact DCT solve of that same discrete operator on the zero-mean subspace,
and the dual norm is built on top of it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dctn, idctn

from .errors import ConvergenceError, MeanError

SNAPSHOT_MAGIC = b"MCHKS1"


@dataclass(frozen=True)
class Grid2D:
    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError("need at least 4 cells per direction")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("side lengths must be positive")

    @property
    def dx(self):
        return self.lx / self.nx

    @property
    def dy(self):
        return self.ly / self.ny

    @property
    def area(self):
        return self.lx * self.ly

    @property
    def cell_area(self):
        return self.dx * self.dy

    def centers(self):
        """Meshgrid of cell centers, shaped (nx, ny)."""
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")


@dataclass
class ScalarField:
    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full((grid.nx, grid.ny), float(value)))

    @classmethod
    def from_function(cls, grid, fn):
        x, y = grid.centers()
        return cls(grid, np.asarray(fn(x, y), dtype=float))

    def copy(self):
        return ScalarField(self.grid, self.values.copy())

    def is_finite(self):
        return bool(np.all(np.isfinite(self.values)))

    def is_constant(self):
        return bool(np.all(self.values == self.values.flat[0]))


def cosine_mode(grid: Grid2D, i: int, j: int, normalized: bool = False):
    """Neumann-compatible cosine mode cos(i pi x / lx) cos(j pi y / ly).

    With ``normalized`` the mode has unit L2 norm on the rectangle.
    """
    x, y = grid.centers()
    vals = np.cos(i * np.pi * x / grid.lx) * np.cos(j * np.pi * y / grid.ly)
    if normalized:
        nx = np.sqrt((1.0 if i == 0 else 2.0) / grid.lx)
        ny = np.sqrt((1.0 if j == 0 else 2.0) / grid.ly)
        vals = vals * nx * ny
    return ScalarField(grid, vals)


@lru_cache(maxsize=8)
def neumann_eigenvalues(grid: Grid2D) -> np.ndarray:
    """Eigenvalues of the discrete -Laplacian in the cosine basis, (nx, ny).

    Entry (i, j) belongs to the mode cos(i pi x / lx) cos(j pi y / ly), which
    is coefficient (i, j) of the orthonormal DCT-II.  The table is shared
    between callers, so it is read-only.
    """
    lam_x = 2.0 / grid.dx**2 * (1.0 - np.cos(np.pi * np.arange(grid.nx) / grid.nx))
    lam_y = 2.0 / grid.dy**2 * (1.0 - np.cos(np.pi * np.arange(grid.ny) / grid.ny))
    lam = lam_x[:, None] + lam_y[None, :]
    lam.flags.writeable = False
    return lam


def discrete_neumann_eigenvalue(grid: Grid2D, i: int, j: int) -> float:
    """Eigenvalue of the discrete -Laplacian on the (i, j) cosine mode."""
    return float(neumann_eigenvalues(grid)[i, j])


# ------------------------------------------------------------- operators


def lap_array(v: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """5-point Laplacian with mirror ghosts (zero normal flux)."""
    out = np.zeros_like(v)
    out[1:-1, :] += (v[2:, :] - 2.0 * v[1:-1, :] + v[:-2, :]) / dx**2
    out[0, :] += (v[1, :] - v[0, :]) / dx**2
    out[-1, :] += (v[-2, :] - v[-1, :]) / dx**2
    out[:, 1:-1] += (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / dy**2
    out[:, 0] += (v[:, 1] - v[:, 0]) / dy**2
    out[:, -1] += (v[:, -2] - v[:, -1]) / dy**2
    return out


def div_mob_grad_array(mob: np.ndarray, v: np.ndarray, dx: float, dy: float):
    """div(mob * grad v) in conservative face-flux form, zero boundary flux.

    Face mobilities are arithmetic means of the two adjacent cells.
    """
    mx = 0.5 * (mob[1:, :] + mob[:-1, :])
    my = 0.5 * (mob[:, 1:] + mob[:, :-1])
    fx = mx * (v[1:, :] - v[:-1, :]) / dx
    fy = my * (v[:, 1:] - v[:, :-1]) / dy
    out = np.zeros_like(v)
    out[:-1, :] += fx / dx
    out[1:, :] -= fx / dx
    out[:, :-1] += fy / dy
    out[:, 1:] -= fy / dy
    return out


def grad_sq_integral_array(v: np.ndarray, dx: float, dy: float) -> float:
    """Integral of |grad v|^2 from face differences.

    This is the quadratic form of the mirror-ghost Laplacian, i.e. it equals
    -integral(v * lap v) exactly, which the energy bookkeeping requires.
    """
    gx = (v[1:, :] - v[:-1, :]) / dx
    gy = (v[:, 1:] - v[:, :-1]) / dy
    return (np.sum(gx * gx) + np.sum(gy * gy)) * dx * dy


def laplacian(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, lap_array(f.values, f.grid.dx, f.grid.dy))


def div_mob_grad(mob: ScalarField, f: ScalarField):
    if mob.grid != f.grid:
        raise ValueError("mobility and field must share a grid")
    return ScalarField(
        f.grid, div_mob_grad_array(mob.values, f.values, f.grid.dx, f.grid.dy)
    )


def integrate(f: ScalarField) -> float:
    return float(np.sum(f.values)) * f.grid.cell_area


def mean(f: ScalarField) -> float:
    return float(np.mean(f.values))


def inner(f: ScalarField, g: ScalarField) -> float:
    return float(np.sum(f.values * g.values)) * f.grid.cell_area


def norm_l2(f: ScalarField) -> float:
    return float(np.sqrt(max(inner(f, f), 0.0)))


def grad_sq_integral(f: ScalarField) -> float:
    return grad_sq_integral_array(f.values, f.grid.dx, f.grid.dy)


# ------------------------------------------------ conjugate gradients


def cg_solve(apply_op, b, x0=None, rel_tol=1e-10, max_iter=None):
    """Matrix-free CG for SPD stencil operators on flat or 2D arrays."""
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b) if x0 is None else x0.astype(float).copy()
    r = b - apply_op(x)
    bnorm = np.linalg.norm(b.ravel())
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    tol = rel_tol * bnorm
    if np.linalg.norm(r.ravel()) <= tol:
        return x, 0
    p = r.copy()
    rs = float(np.vdot(r, r))
    if max_iter is None:
        max_iter = 20 * b.size
    for k in range(1, max_iter + 1):
        ap = apply_op(p)
        alpha = rs / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        rs_new = float(np.vdot(r, r))
        if np.sqrt(rs_new) <= tol:
            return x, k
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise ConvergenceError(
        f"CG stalled after {max_iter} iterations, "
        f"residual {np.sqrt(rs) / bnorm:.3e} relative"
    )


def inv_neumann_laplacian(f: ScalarField) -> ScalarField:
    """Solve -lap(u) = f with zero-mean u; f must have (numerically) zero mean.

    The solve is exact: DCT-II, divide by the eigenvalue table, inverse DCT.
    """
    g = f.grid
    fnorm = norm_l2(f)
    if abs(mean(f)) * np.sqrt(g.area) > 1e-12 * max(fnorm, 1e-300):
        raise MeanError(
            f"inverse Laplacian needs zero-mean data, mean = {mean(f):.3e}"
        )
    if fnorm == 0.0:
        return ScalarField.constant(g, 0.0)
    coef = dctn(f.values, norm="ortho").ravel()
    coef[0] = 0.0  # the (0, 0) mode is the mean, which u does not carry
    coef[1:] /= neumann_eigenvalues(g).ravel()[1:]
    return ScalarField(g, idctn(coef.reshape(g.nx, g.ny), norm="ortho"))


def dual_norm(f: ScalarField) -> float:
    """H^-1-type norm sqrt(<f, inv_neumann_laplacian(f)>) of zero-mean f."""
    u = inv_neumann_laplacian(f)
    return float(np.sqrt(max(inner(f, u), 0.0)))


# ------------------------------------------------------------ snapshots


def write_snapshot(path, f: ScalarField, name: str, t: float):
    """Little-endian binary snapshot.

    Layout: magic "MCHKS1", nx and ny as int64, lx and ly as float64, a
    uint32 length-prefixed UTF-8 field name, time t as float64, then
    nx*ny float64 cell values in row-major (x-major) order.
    """
    g = f.grid
    name_bytes = name.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<qqdd", g.nx, g.ny, g.lx, g.ly))
        fh.write(struct.pack("<I", len(name_bytes)))
        fh.write(name_bytes)
        fh.write(struct.pack("<d", float(t)))
        fh.write(f.values.astype("<f8").tobytes(order="C"))


def read_snapshot(path):
    """Read a snapshot written by ``write_snapshot``.

    Returns (field, name, t).
    """
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        nx, ny, lx, ly = struct.unpack("<qqdd", fh.read(32))
        (name_len,) = struct.unpack("<I", fh.read(4))
        name = fh.read(name_len).decode("utf-8")
        (t,) = struct.unpack("<d", fh.read(8))
        data = np.frombuffer(fh.read(8 * nx * ny), dtype="<f8").reshape(nx, ny)
    grid = Grid2D(nx, ny, lx, ly)
    return ScalarField(grid, data.copy()), name, t
