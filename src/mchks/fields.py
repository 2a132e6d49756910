"""Cell-centered 2D grid calculus with homogeneous Neumann boundaries.

Fields live at cell centers ((i+1/2)dx, (j+1/2)dy), stored as (nx, ny)
arrays.  The Laplacian uses the 5-point stencil closed with mirror ghost
cells, which makes the boundary fluxes exactly zero and the operator
symmetric; all summation-by-parts identities the energy diagnostics rely on
then hold to round-off.  Mobility-weighted divergences are assembled in face
flux form (arithmetic face means) so that their integral vanishes
exactly.

The time step applies these operators through one assembled matrix:
``div_mob_grad_matrix`` fills the CSR matrix of div(mob grad) on a five-slot
pattern cached per grid.  ``constant_mobility_matrix`` caches that fill per
(grid, value) for a constant mobility, and ``laplacian_matrix`` is its
entry at value 1.  The Krylov matvecs and the sparse-LU Jacobian both read
them.  The slicing stencils ``lap_array`` and ``div_mob_grad_array`` are
coded independently of the matrix and stay as the face-flux reference for
the weak residuals and the tests; the step's explicit chemotaxis flux,
applied once, uses them too.

The orthonormal DCT-II diagonalises the mirror-ghost Laplacian
exactly; its eigenvalues live in one cached table per grid, which the
Cahn-Hilliard preconditioner shares.  The inverse Neumann Laplacian is an
exact DCT solve of that same discrete operator on the zero-mean subspace;
the dual norm of a field's fluctuation reads the same table and one DCT.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
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

    @property
    def shape(self):
        return (self.nx, self.ny)

    def centers(self):
        """Meshgrid of cell centers, shaped (nx, ny)."""
        x = (np.arange(self.nx) + 0.5) * self.dx
        y = (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(x, y, indexing="ij")


def cosine_mode(grid: Grid2D, i: int, j: int):
    """Neumann-compatible cosine mode cos(i pi x / lx) cos(j pi y / ly)."""
    x, y = grid.centers()
    return np.cos(i * np.pi * x / grid.lx) * np.cos(j * np.pi * y / grid.ly)


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


@lru_cache(maxsize=8)
def _five_slot_pattern(grid: Grid2D):
    """CSR (indices, indptr) with five slots per row: west, south, self,
    north, east in x-major cell order.

    A neighbour missing at the boundary keeps its slot as an explicit zero
    entry on a column already in the row, chosen so that every row stays
    sorted; the pattern therefore never depends on the mobility.
    """
    nx, ny = grid.nx, grid.ny
    k = np.arange(nx * ny, dtype=np.int32).reshape(nx, ny)
    cols = k[:, :, None] + np.array([-ny, -1, 0, 1, ny], dtype=np.int32)
    cols[:, 0, 1] = k[:, 0]
    cols[:, -1, 3] = k[:, -1]
    cols[0, :, 0] = cols[0, :, 1]
    cols[-1, :, 4] = cols[-1, :, 3]
    indices = cols.ravel()
    indptr = np.arange(0, 5 * nx * ny + 1, 5, dtype=np.int32)
    indices.flags.writeable = False
    indptr.flags.writeable = False
    return indices, indptr


def div_mob_grad_matrix(grid: Grid2D, mob: np.ndarray) -> sp.csr_matrix:
    """CSR matrix of v -> div(mob grad v) on x-major flattened fields.

    Same arithmetic face means and zero boundary flux as
    ``div_mob_grad_array``.  Only the (nx, ny, 5) data array is built per
    call; the sparsity pattern is cached per grid and shared read-only.
    """
    nx, ny = grid.nx, grid.ny
    tx = (0.5 / grid.dx**2) * (mob[1:, :] + mob[:-1, :])
    ty = (0.5 / grid.dy**2) * (mob[:, 1:] + mob[:, :-1])
    data = np.empty((nx, ny, 5))
    data[0, :, 0] = 0.0
    data[1:, :, 0] = tx
    data[:, 0, 1] = 0.0
    data[:, 1:, 1] = ty
    data[:, -1, 3] = 0.0
    data[:, :-1, 3] = ty
    data[-1, :, 4] = 0.0
    data[:-1, :, 4] = tx
    center = data[:, :, 2]
    np.add(data[:, :, 0], data[:, :, 4], out=center)
    center += data[:, :, 1]
    center += data[:, :, 3]
    np.negative(center, out=center)
    indices, indptr = _five_slot_pattern(grid)
    return sp.csr_matrix((data.ravel(), indices, indptr), shape=(nx * ny, nx * ny))


@lru_cache(maxsize=8)
def constant_mobility_matrix(grid: Grid2D, value: float) -> sp.csr_matrix:
    """``div_mob_grad_matrix`` for the constant mobility ``value``, cached per
    (grid, value).

    Filled by the same code as a variable mobility, so it is bitwise the
    matrix of ``np.full(grid.shape, value)``.  Shared between callers, so
    its data are read-only.
    """
    a = div_mob_grad_matrix(grid, np.full(grid.shape, float(value)))
    a.data.flags.writeable = False
    return a


def laplacian_matrix(grid: Grid2D) -> sp.csr_matrix:
    """The mirror-ghost Laplacian: ``constant_mobility_matrix`` at 1."""
    return constant_mobility_matrix(grid, 1.0)


def grad_sq_integral_array(v: np.ndarray, dx: float, dy: float) -> float:
    """Integral of |grad v|^2 from face differences.

    This is the quadratic form of the mirror-ghost Laplacian, i.e. it equals
    -integral(v * lap v) exactly, which the energy bookkeeping requires.
    """
    gx = (v[1:, :] - v[:-1, :]) / dx
    gy = (v[:, 1:] - v[:, :-1]) / dy
    return (np.sum(gx * gx) + np.sum(gy * gy)) * dx * dy


# ------------------------------------------------ conjugate gradients


def cg_solve(apply_op, b, x0=None, rel_tol=1e-10):
    """Matrix-free CG for SPD stencil operators on flat or 2D arrays.

    Iterates on a copy of ``x0``; the norms are square roots of the
    ``vdot`` squared norms that the iteration takes anyway.
    """
    b = np.asarray(b, dtype=float)
    bnorm = math.sqrt(float(np.vdot(b, b)))
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    x = np.zeros_like(b) if x0 is None else x0.astype(float)
    r = b - apply_op(x)
    tol = rel_tol * bnorm
    rs = float(np.vdot(r, r))
    if math.sqrt(rs) <= tol:
        return x, 0
    p = r.copy()
    max_iter = 20 * b.size
    for k in range(1, max_iter + 1):
        ap = apply_op(p)
        alpha = rs / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        rs_new = float(np.vdot(r, r))
        if math.sqrt(rs_new) <= tol:
            return x, k
        p *= rs_new / rs
        p += r
        rs = rs_new
    raise ConvergenceError(
        f"CG stalled after {max_iter} iterations, "
        f"residual {np.sqrt(rs) / bnorm:.3e} relative"
    )


def inv_neumann_laplacian(grid: Grid2D, f: np.ndarray) -> np.ndarray:
    """Solve -lap(u) = f with zero-mean u; f must have (numerically) zero mean.

    The solve is exact: DCT-II, divide by the eigenvalue table, inverse DCT.
    """
    fnorm = np.sqrt(float(np.sum(f * f)) * grid.cell_area)
    f_mean = float(np.mean(f))
    if abs(f_mean) * np.sqrt(grid.area) > 1e-12 * max(fnorm, 1e-300):
        raise MeanError(
            f"inverse Laplacian needs zero-mean data, mean = {f_mean:.3e}"
        )
    if fnorm == 0.0:
        return np.zeros(grid.shape)
    coef = dctn(f, norm="ortho").ravel()
    coef[0] = 0.0  # the (0, 0) mode is the mean, which u does not carry
    coef[1:] /= neumann_eigenvalues(grid).ravel()[1:]
    return idctn(coef.reshape(grid.shape), norm="ortho")


def dual_norm(grid: Grid2D, f: np.ndarray) -> float:
    """H^-1-type norm sqrt(<f', inv_neumann_laplacian(f')>) of f' = f - mean(f).

    From one orthonormal DCT: sqrt(cell_area * sum c_ij^2 / lambda_ij) over
    (i, j) != (0, 0).  Shifting f by one of its values changes only c_00 and
    makes a constant f give exactly 0, not DCT round-off.
    """
    coef = dctn(f - f.flat[0], norm="ortho").ravel()[1:]
    lam = neumann_eigenvalues(grid).ravel()[1:]
    return float(np.sqrt(grid.cell_area * np.sum(coef * coef / lam)))


# ------------------------------------------------------------ snapshots


def write_snapshot(path, grid: Grid2D, values: np.ndarray, name: str, t: float):
    """Little-endian binary snapshot of the (nx, ny) array values on grid.

    Layout: magic "MCHKS1", nx and ny as int64, lx and ly as float64, a
    uint32 length-prefixed UTF-8 field name, time t as float64, then
    nx*ny float64 cell values in row-major (x-major) order.
    """
    name_bytes = name.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<qqdd", grid.nx, grid.ny, grid.lx, grid.ly))
        fh.write(struct.pack("<I", len(name_bytes)))
        fh.write(name_bytes)
        fh.write(struct.pack("<d", float(t)))
        fh.write(values.astype("<f8").tobytes(order="C"))


def read_snapshot(path):
    """Read a snapshot written by ``write_snapshot``.

    Returns (grid, values, name, t), values shaped (nx, ny) from the header.
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
    return Grid2D(nx, ny, lx, ly), data.copy(), name, t
