"""Cell-centered 2D grid calculus with homogeneous Neumann boundaries.

Fields live at cell centers ((i+1/2)dx, (j+1/2)dy), stored as (nx, ny)
arrays.  The Laplacian uses the 5-point stencil closed with mirror ghost
cells, which makes the boundary fluxes exactly zero and the operator
symmetric; all summation-by-parts identities the energy diagnostics rely on
then hold to round-off.  Mobility-weighted divergences are assembled in face
flux form (arithmetic face means) so that their integral vanishes
exactly.

The time step applies these operators as numpy slot stencils, and no
scipy module is imported to apply them.  ``div_mob_grad_matrix`` fills a
``SlotStencil`` of div(mob grad): five coefficient slots (west, south,
self, north, east), each one contiguous row, whose product ``@`` sums the
five neighbour products in slot order.  Up to 2500 cells it gathers the
neighbours with one cached index; above, it multiplies shifted flat slices.
``constant_mobility_matrix`` caches that fill per (grid, value) for a
constant mobility, and ``laplacian_matrix`` is its entry at value 1.  The
Krylov matvecs read them; the sparse-LU Jacobian reads ``tocsr()``, the
CSR matrix of the same five-slot pattern, whose product gives the
stencil's bits.  The slicing stencils ``lap_array`` and
``div_mob_grad_array`` are coded independently of the slots and stay as the
face-flux reference for the weak residuals and the tests; the step's
explicit chemotaxis flux, applied once, uses them too.

The orthonormal DCT-II diagonalises the mirror-ghost Laplacian
exactly; its eigenvalues live in one cached table per grid, which the
Cahn-Hilliard preconditioner shares.  ``dct2`` and ``idct2`` are products
with the dense DCT-II matrix of each axis (``dct_matrix``, cached
read-only), on grids whose longer axis is at most ``DENSE_DCT_MAX`` cells;
a longer axis imports ``scipy.fft`` on first use and calls ``dctn`` and
``idctn``.  Both compute in their input's precision: a float32 array goes
through the float32 matrices (the float64 ones rounded once) or through
``scipy.fft``, which keeps float32.  Only the Cahn-Hilliard preconditioner
hands them float32 (see ``solver._solve_ch_jacobian``).  The inverse
Neumann Laplacian is an exact DCT solve of that same discrete operator on
the zero-mean subspace; the dual norm of a field's fluctuation reads the
same table and one DCT; both stay in float64.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


# ------------------------------------------------------ cosine transform

# Axis length up to which dct2 and idct2 are dense matrix products; a longer
# axis sends the whole transform to scipy.fft.  Chosen from measured step
# times (see the README, "Numerical scheme").
DENSE_DCT_MAX = 128


@lru_cache(maxsize=16)
def dct_matrix(n: int, dtype=np.float64) -> np.ndarray:
    """The orthonormal DCT-II matrix of length n in ``dtype``, shared
    read-only.

    Row k is s_k cos(pi k (2j + 1) / (2n)) over j, with s_0 = sqrt(1/n) and
    s_k = sqrt(2/n); the angle is reduced modulo 2 pi in integers first.
    Any other dtype than float64 gets the float64 matrix rounded once.
    """
    if np.dtype(dtype) == np.float64:
        k = np.arange(n)
        m = np.outer(k, 2 * k + 1) % (4 * n)
        c = np.cos((np.pi / (2 * n)) * m)
        c *= math.sqrt(2.0 / n)
        c[0] = math.sqrt(1.0 / n)
    else:
        c = dct_matrix(n, np.float64).astype(dtype)
    c.flags.writeable = False
    return c


def dct2(f: np.ndarray) -> np.ndarray:
    """Orthonormal 2D DCT-II of an (nx, ny) array: C_x @ f @ C_y.T, or
    ``scipy.fft.dctn`` when an axis is longer than ``DENSE_DCT_MAX``.

    A float32 array is transformed in float32, by the float32 matrices or
    by scipy.fft, which keeps the dtype; a float64 one in float64.
    """
    nx, ny = f.shape
    if max(nx, ny) > DENSE_DCT_MAX:
        from scipy.fft import dctn

        return dctn(f, norm="ortho")
    dtype = np.float32 if f.dtype == np.float32 else np.float64
    return dct_matrix(nx, dtype) @ f @ dct_matrix(ny, dtype).T


def idct2(c: np.ndarray) -> np.ndarray:
    """Inverse of ``dct2``, in the same precision: C_x.T @ c @ C_y, or
    ``scipy.fft.idctn``."""
    nx, ny = c.shape
    if max(nx, ny) > DENSE_DCT_MAX:
        from scipy.fft import idctn

        return idctn(c, norm="ortho")
    dtype = np.float32 if c.dtype == np.float32 else np.float64
    return dct_matrix(nx, dtype).T @ c @ dct_matrix(ny, dtype)


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


# grids of up to this many cells apply a SlotStencil by one gather of the
# five neighbours, larger ones by shifted slices; the two products break
# even near 52² (18.6 us each, 2-vCPU x86-64 host)
_GATHER_MAX = 2500


@lru_cache(maxsize=8)
def _five_slot_columns(grid: Grid2D) -> np.ndarray:
    """(5, nx * ny) column of each slot's coefficient, x-major cell order.

    A neighbour missing at the boundary keeps its slot on a column already
    in the row, chosen so that every row stays sorted; the pattern therefore
    never depends on the mobility.  Shared read-only.
    """
    nx, ny = grid.nx, grid.ny
    k = np.arange(nx * ny).reshape(nx, ny)
    cols = k + np.array([-ny, -1, 0, 1, ny])[:, None, None]
    cols[1, :, 0] = k[:, 0]
    cols[3, :, -1] = k[:, -1]
    cols[0, 0, :] = cols[1, 0, :]
    cols[4, -1, :] = cols[3, -1, :]
    cols = cols.reshape(5, nx * ny)
    cols.flags.writeable = False
    return cols


class SlotStencil:
    """The operator v -> div(mob grad v) on x-major flattened fields, held as
    five coefficient slots: west, south, self, north, east.

    ``slots`` is a (5, nx * ny) array, slot-major, so each slot is one
    contiguous row; a neighbour missing at the boundary has coefficient 0.
    ``op @ v`` sums the five products in slot order, as a CSR row of the
    same pattern sums its entries, and gives the same bits for finite v.
    ``tocsr()`` builds that CSR matrix for the sparse-LU path.
    """

    __slots__ = ("grid", "slots", "cols")

    def __init__(self, grid: Grid2D, slots: np.ndarray):
        self.grid = grid
        self.slots = slots
        n = grid.nx * grid.ny
        self.cols = _five_slot_columns(grid) if n <= _GATHER_MAX else None

    def __matmul__(self, v):
        if self.cols is not None:
            prod = v[self.cols]
            prod *= self.slots
            return np.add.reduce(prod, axis=0)
        west, south, center, north, east = self.slots
        ny = self.grid.ny
        out = np.empty_like(v)
        tmp = np.empty_like(v)
        # row i = 0 has no west neighbour; a south or north slot that wraps
        # across a row end holds 0
        out[:ny] = 0.0
        np.multiply(west[ny:], v[:-ny], out=out[ny:])
        np.multiply(south[1:], v[:-1], out=tmp[1:])
        out[1:] += tmp[1:]
        np.multiply(center, v, out=tmp)
        out += tmp
        np.multiply(north[:-1], v[1:], out=tmp[:-1])
        out[:-1] += tmp[:-1]
        np.multiply(east[:-ny], v[ny:], out=tmp[:-ny])
        out[:-ny] += tmp[:-ny]
        return out

    def tocsr(self):
        """The CSR matrix with the five slots of a cell as its row, in slot
        order on the columns of ``_five_slot_columns``; imports
        ``scipy.sparse``."""
        import scipy.sparse as sp

        n = self.grid.nx * self.grid.ny
        indices = _five_slot_columns(self.grid).T.astype(np.int32).ravel()
        indptr = np.arange(0, 5 * n + 1, 5, dtype=np.int32)
        return sp.csr_matrix((self.slots.T.ravel(), indices, indptr),
                             shape=(n, n))


def div_mob_grad_matrix(grid: Grid2D, mob: np.ndarray) -> SlotStencil:
    """The ``SlotStencil`` of v -> div(mob grad v).

    Same arithmetic face means and zero boundary flux as
    ``div_mob_grad_array``; only the five slots are built per call.
    """
    nx, ny = grid.nx, grid.ny
    tx = (0.5 / grid.dx**2) * (mob[1:, :] + mob[:-1, :])
    ty = (0.5 / grid.dy**2) * (mob[:, 1:] + mob[:, :-1])
    slots = np.empty((5, nx, ny))
    west, south, center, north, east = slots
    west[0, :] = 0.0
    west[1:, :] = tx
    south[:, 0] = 0.0
    south[:, 1:] = ty
    north[:, -1] = 0.0
    north[:, :-1] = ty
    east[-1, :] = 0.0
    east[:-1, :] = tx
    np.add(west, east, out=center)
    center += south
    center += north
    np.negative(center, out=center)
    return SlotStencil(grid, slots.reshape(5, nx * ny))


@lru_cache(maxsize=8)
def constant_mobility_matrix(grid: Grid2D, value: float) -> SlotStencil:
    """``div_mob_grad_matrix`` for the constant mobility ``value``, cached per
    (grid, value).

    Filled by the same code as a variable mobility, so its slots are bitwise
    those of ``np.full(grid.shape, value)``.  Shared between callers, so
    its slots are read-only.
    """
    a = div_mob_grad_matrix(grid, np.full(grid.shape, float(value)))
    a.slots.flags.writeable = False
    return a


def laplacian_matrix(grid: Grid2D) -> SlotStencil:
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
    coef = dct2(f).ravel()
    coef[0] = 0.0  # the (0, 0) mode is the mean, which u does not carry
    coef[1:] /= neumann_eigenvalues(grid).ravel()[1:]
    return idct2(coef.reshape(grid.shape))


def dual_norm(grid: Grid2D, f: np.ndarray) -> float:
    """H^-1-type norm sqrt(<f', inv_neumann_laplacian(f')>) of f' = f - mean(f).

    From one orthonormal DCT: sqrt(cell_area * sum c_ij^2 / lambda_ij) over
    (i, j) != (0, 0).  Shifting f by one of its values changes only c_00 and
    makes a constant f give exactly 0, not DCT round-off.
    """
    coef = dct2(f - f.flat[0]).ravel()[1:]
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
