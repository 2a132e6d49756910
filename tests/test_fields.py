import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dctn, idctn

from mchks.errors import MeanError
from mchks.fields import (
    DENSE_DCT_MAX,
    Grid2D,
    cg_solve,
    constant_mobility_matrix,
    cosine_mode,
    dct2,
    dct_matrix,
    div_mob_grad_array,
    div_mob_grad_matrix,
    dual_norm,
    grad_sq_integral_array,
    idct2,
    inv_neumann_laplacian,
    lap_array,
    laplacian_matrix,
    neumann_eigenvalues,
    read_snapshot,
    write_snapshot,
)
from mchks.sources import ConstantMobility

GRID = Grid2D(24, 20, 1.5, 1.0)


def random_field(grid, seed=0, amp=1.0):
    rng = np.random.default_rng(seed)
    return amp * rng.standard_normal((grid.nx, grid.ny))


def laplacian(f, grid=GRID):
    return lap_array(f, grid.dx, grid.dy)


def div_mob_grad(mob, f, grid=GRID):
    return div_mob_grad_array(mob, f, grid.dx, grid.dy)


def integrate(f, grid=GRID):
    return float(np.sum(f)) * grid.cell_area


def inner(f, g, grid=GRID):
    return integrate(f * g, grid)


def test_constant_in_kernel():
    f = np.full(GRID.shape, 3.7)
    assert np.allclose(laplacian(f), 0.0, atol=1e-13)


def test_laplacian_cosine_eigenfunction():
    # interior second-order accuracy against the analytic eigenvalue
    for grid in (Grid2D(32, 32, 1.0, 1.0), Grid2D(64, 64, 1.0, 1.0)):
        f = cosine_mode(grid, 1, 0)
        lam = (np.pi / grid.lx) ** 2
        err = np.max(np.abs(laplacian(f, grid) + lam * f))
        assert err < 2.0 * lam * (np.pi * grid.dx / grid.lx) ** 2


def test_laplacian_discrete_eigenvector_exact():
    # cosine modes at cell centers are exact eigenvectors of the stencil
    f = cosine_mode(GRID, 3, 2)
    lam = neumann_eigenvalues(GRID)[3, 2]
    assert np.allclose(laplacian(f), -lam * f, atol=1e-11)


def test_laplacian_has_zero_mean():
    f = random_field(GRID, seed=1)
    assert abs(float(np.mean(laplacian(f)))) < 1e-12 * np.max(np.abs(f))


def test_self_adjointness_and_negativity():
    f = random_field(GRID, seed=2)
    g = random_field(GRID, seed=3)
    lhs = inner(g, laplacian(f))
    rhs = inner(f, laplacian(g))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    assert inner(f, laplacian(f)) <= 1e-12


def test_grad_sq_matches_quadratic_form():
    f = random_field(GRID, seed=4)
    assert grad_sq_integral_array(f, GRID.dx, GRID.dy) == pytest.approx(
        -inner(f, laplacian(f)), rel=1e-12)


def test_div_mob_grad_reduces_to_laplacian():
    f = random_field(GRID, seed=5)
    mob = np.ones((GRID.nx, GRID.ny))
    assert np.allclose(div_mob_grad(mob, f), laplacian(f), atol=1e-12)


def test_div_mob_grad_conservative_and_kernel():
    f = random_field(GRID, seed=6)
    mob = 0.5 + 0.4 * np.abs(random_field(GRID, 7))
    out = div_mob_grad(mob, f)
    assert abs(integrate(out)) < 1e-11 * np.max(np.abs(f))
    const = np.full(GRID.shape, 2.0)
    assert np.allclose(div_mob_grad(mob, const), 0.0, atol=1e-14)


def test_div_mob_grad_adjointness():
    # <v, div(m grad u)> = <u, div(m grad v)> for the face-flux form
    u = random_field(GRID, seed=8)
    v = random_field(GRID, seed=9)
    mob = 1.0 + 0.3 * np.cos(random_field(GRID, 10))
    assert inner(v, div_mob_grad(mob, u)) == pytest.approx(
        inner(u, div_mob_grad(mob, v)), rel=1e-12, abs=1e-12
    )


NON_SQUARE = [Grid2D(5, 7, 1.0, 1.7), Grid2D(17, 23, 2.3, 1.1),
              Grid2D(128, 96, 12.8, 7.5)]


@pytest.mark.parametrize("grid", NON_SQUARE, ids=["5x7", "17x23", "128x96"])
def test_assembled_operator_matches_face_flux_stencil(grid):
    # x-major ordering and the +-1 / +-ny offsets, checked against the
    # independently coded slicing stencils; the grids take both the gather
    # and the shifted-slice product
    v = random_field(grid, seed=20)
    mob = 0.5 + np.abs(random_field(grid, seed=21))
    ref = div_mob_grad_array(mob, v, grid.dx, grid.dy)
    a = div_mob_grad_matrix(grid, mob)
    got = (a @ v.ravel()).reshape(v.shape)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    # constants are in the kernel of the operator too
    kernel = a @ np.ones(grid.nx * grid.ny)
    assert np.max(np.abs(kernel)) <= 1e-12 * np.max(np.abs(a.slots))
    ref = lap_array(v, grid.dx, grid.dy)
    got = (laplacian_matrix(grid) @ v.ravel()).reshape(v.shape)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _five_slot_csr(grid, mob):
    """The CSR matrix of div(mob grad) as it was assembled before the slot
    stencil: data (nx, ny, 5) in slot order, boundary slots as explicit
    zeros on a column already in the row."""
    nx, ny = grid.nx, grid.ny
    k = np.arange(nx * ny, dtype=np.int32).reshape(nx, ny)
    cols = k[:, :, None] + np.array([-ny, -1, 0, 1, ny], dtype=np.int32)
    cols[:, 0, 1] = k[:, 0]
    cols[:, -1, 3] = k[:, -1]
    cols[0, :, 0] = cols[0, :, 1]
    cols[-1, :, 4] = cols[-1, :, 3]
    tx = (0.5 / grid.dx**2) * (mob[1:, :] + mob[:-1, :])
    ty = (0.5 / grid.dy**2) * (mob[:, 1:] + mob[:, :-1])
    data = np.zeros((nx, ny, 5))
    data[1:, :, 0] = tx
    data[:, 1:, 1] = ty
    data[:, :-1, 3] = ty
    data[:-1, :, 4] = tx
    center = data[:, :, 2]
    np.add(data[:, :, 0], data[:, :, 4], out=center)
    center += data[:, :, 1]
    center += data[:, :, 3]
    np.negative(center, out=center)
    indptr = np.arange(0, 5 * nx * ny + 1, 5, dtype=np.int32)
    return sp.csr_matrix((data.ravel(), cols.ravel(), indptr),
                         shape=(nx * ny, nx * ny))


@pytest.mark.parametrize("grid", NON_SQUARE, ids=["5x7", "17x23", "128x96"])
def test_tocsr_is_the_five_slot_csr_matrix(grid):
    # the sparse-LU path factors bitwise the matrix it factored before, and
    # the stencil's product sums in that matrix's row order
    mob = 0.5 + np.abs(random_field(grid, seed=22))
    a = div_mob_grad_matrix(grid, mob)
    got, want = a.tocsr(), _five_slot_csr(grid, mob)
    for x, y in ((got.data, want.data), (got.indices, want.indices),
                 (got.indptr, want.indptr)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    v = random_field(grid, seed=23).ravel()
    assert (a @ v).tobytes() == (want @ v).tobytes()


def test_cached_laplacian_matrix_is_read_only():
    lap = laplacian_matrix(GRID)
    assert laplacian_matrix(GRID) is lap
    for arr in (lap.slots, lap.cols):
        with pytest.raises(ValueError):
            arr[0, 0] = 1


@pytest.mark.parametrize("value", [1.0, 0.7])
def test_constant_mobility_matrix_is_the_cached_fill(value):
    # the fill itself, so the operator is bitwise the one a variable
    # mobility of that value gets; 0.7 * laplacian_matrix would round
    # differently
    mob = np.full(GRID.shape, value)
    a = ConstantMobility(value).operator(GRID, mob)
    ref = div_mob_grad_matrix(GRID, mob)
    assert a.slots.tobytes() == ref.slots.tobytes()
    assert constant_mobility_matrix(GRID, value) is a
    assert ConstantMobility(value).operator(GRID, mob) is a
    with pytest.raises(ValueError):
        a.slots[0, 0] = 1.0
    # one cache: the Laplacian is its entry at 1
    assert (laplacian_matrix(GRID) is a) == (value == 1.0)


@pytest.mark.parametrize("shape", [(4, 4), (5, 7), (17, 23), (128, 96),
                                   (DENSE_DCT_MAX + 8, 12)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_dct_pair_matches_scipy(shape):
    # dense matrix products up to DENSE_DCT_MAX, scipy.fft above it
    f = random_field(Grid2D(*shape, 1.0, 1.0), seed=24)
    want = dctn(f, norm="ortho")
    got = dct2(f)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    back = idct2(want)
    assert np.max(np.abs(back - idctn(want, norm="ortho"))) <= (
        1e-13 * np.max(np.abs(f)))


def test_dct_matrix_is_cached_read_only():
    c = dct_matrix(12)
    assert dct_matrix(12) is c
    assert not c.flags.writeable
    assert np.allclose(c @ c.T, np.eye(12), rtol=0.0, atol=1e-15)


def test_mean_and_integral():
    f = np.full(GRID.shape, 2.5)
    assert float(np.mean(f)) == pytest.approx(2.5)
    assert integrate(f) == pytest.approx(2.5 * GRID.area)
    g = random_field(GRID, seed=12)
    two = f + g
    assert integrate(two) == pytest.approx(integrate(f) + integrate(g), rel=1e-12)


def test_cosine_mode_integrates_to_zero():
    f = cosine_mode(GRID, 2, 1)
    assert abs(float(np.mean(f))) < 1e-13


def test_inverse_laplacian_identity():
    v = random_field(GRID, seed=13)
    f = laplacian(v)
    u = inv_neumann_laplacian(GRID, -f)
    expected = v - np.mean(v)
    assert np.max(np.abs(u - expected)) < 1e-8 * np.max(np.abs(expected))


def test_inverse_laplacian_zero():
    z = np.zeros(GRID.shape)
    assert np.allclose(inv_neumann_laplacian(GRID, z), 0.0)


def test_inverse_laplacian_eigenmode():
    f = cosine_mode(GRID, 1, 0)
    lam = neumann_eigenvalues(GRID)[1, 0]
    u = inv_neumann_laplacian(GRID, f)
    assert np.allclose(u, f / lam, atol=1e-10)


def test_inverse_laplacian_mean_precondition():
    with pytest.raises(MeanError):
        inv_neumann_laplacian(GRID, np.full(GRID.shape, 1.0))


def test_dual_norm_basics():
    z = np.zeros(GRID.shape)
    assert dual_norm(GRID, z) == 0.0
    f = cosine_mode(GRID, 1, 0)
    two_f = 2.0 * f
    assert dual_norm(GRID, two_f) == pytest.approx(2.0 * dual_norm(GRID, f),
                                                   rel=1e-9)
    lam = neumann_eigenvalues(GRID)[1, 0]
    assert dual_norm(GRID, f) == pytest.approx(
        np.sqrt(inner(f, f)) / np.sqrt(lam), rel=1e-9)


def test_dual_norm_is_the_norm_of_the_fluctuation():
    x, y = GRID.centers()
    f = np.cos(np.pi * x / 1.5) + 0.3 * np.sin(2.0 * x * y)
    shifted = f + 3.0
    assert dual_norm(GRID, shifted) == pytest.approx(dual_norm(GRID, f), rel=1e-12)
    zm = f - np.mean(f)
    assert dual_norm(GRID, f) == pytest.approx(
        np.sqrt(inner(zm, inv_neumann_laplacian(GRID, zm))), rel=1e-12)
    assert dual_norm(GRID, np.full(GRID.shape, 0.7)) == 0.0


def test_dual_norm_time_derivative_identity():
    # <d/dt v, N v> ~ 0.5 d/dt ||v||_*^2 for a forward difference, O(dt)
    base = cosine_mode(GRID, 1, 1)
    bump = cosine_mode(GRID, 2, 0)
    dt = 1e-4
    v0 = base + 0.3 * bump
    v1 = base + (0.3 + dt) * bump
    vdot = (v1 - v0) / dt
    lhs = inner(vdot, inv_neumann_laplacian(GRID, v0))
    rhs = (dual_norm(GRID, v1) ** 2 - dual_norm(GRID, v0) ** 2) / (2 * dt)
    assert lhs == pytest.approx(rhs, rel=5e-3)


def cg_inverse_laplacian(grid, f):
    """Reference solve of -lap(u) = f by unpreconditioned CG, zero-mean u."""
    u, _ = cg_solve(lambda v: -lap_array(v, grid.dx, grid.dy), f, rel_tol=1e-12)
    return u - np.mean(u)


def test_cg_keeps_its_iteration_count_on_the_neumann_system():
    # the reference system below; the count is pinned across changes to
    # CG's bookkeeping, which must not move its iterates
    f = random_field(GRID, seed=15)
    f -= np.mean(f)
    _, iters = cg_solve(lambda v: -lap_array(v, GRID.dx, GRID.dy), f,
                        rel_tol=1e-12)
    assert iters == 145


def test_cg_leaves_its_start_alone_and_stops_without_work():
    def apply_op(v):
        return 2.0 * v

    b = random_field(GRID, seed=30)
    x0 = random_field(GRID, seed=31)
    kept = x0.copy()
    x, iters = cg_solve(apply_op, b, x0=x0)
    assert np.array_equal(x0, kept) and x is not x0 and iters > 0
    # a zero right-hand side returns zeros, whatever the start
    x, iters = cg_solve(apply_op, np.zeros(GRID.shape), x0=x0)
    assert iters == 0 and np.array_equal(x, np.zeros(GRID.shape))
    # a start that meets the tolerance is returned, as a copy
    exact = b / 2.0
    x, iters = cg_solve(apply_op, b, x0=exact)
    assert iters == 0 and np.array_equal(x, exact) and x is not exact


@pytest.mark.parametrize("grid", [GRID, Grid2D(128, 128, 12.8, 12.8)],
                         ids=["24x20", "128x128"])
def test_inverse_laplacian_matches_cg_reference(grid):
    v = random_field(grid, seed=15)
    f = v - np.mean(v)
    ref = cg_inverse_laplacian(grid, f)
    u = inv_neumann_laplacian(grid, f)
    assert np.linalg.norm(u - ref) <= 1e-9 * np.linalg.norm(ref)
    assert dual_norm(grid, f) == pytest.approx(
        np.sqrt(inner(f, ref, grid)), rel=1e-9
    )


def test_eigenvalue_reads_the_table():
    lam = neumann_eigenvalues(GRID)
    assert lam.shape == (GRID.nx, GRID.ny)
    assert lam[0, 0] == 0.0
    # shared between callers, so read-only
    assert neumann_eigenvalues(GRID) is lam
    assert not lam.flags.writeable


def test_snapshot_roundtrip(tmp_path):
    grid = Grid2D(8, 6, 2.0, 1.0)
    f = random_field(grid, seed=14)
    path = tmp_path / "field.bin"
    write_snapshot(path, grid, f, "phi_a", 0.625)
    g_grid, g, name, t = read_snapshot(path)
    assert name == "phi_a"
    assert t == 0.625
    assert g_grid == grid
    assert np.array_equal(g, f)


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMCH" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_snapshot(path)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_summation_by_parts_random(seed):
    f = random_field(GRID, seed=seed)
    g = random_field(GRID, seed=seed + 1)
    assert inner(g, laplacian(f)) == pytest.approx(
        inner(f, laplacian(g)), rel=1e-11, abs=1e-11
    )
