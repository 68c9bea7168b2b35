import copy
import dataclasses
import pickle

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import commutator, complete_frame, random_point, random_tangent, random_unitary
from grassmean.exceptions import CutLocusError, InvalidInputError
from grassmean.grassmann import (
    BASE_MATCH_TOL,
    STIEFEL_TOL,
    TANGENT_TOL,
    GrassmannPoint,
    StiefelBasis,
    TangentVector,
    _horizontal,
    _lift,
    _trusted_views,
    basis_from_projector,
    dist,
    exp,
    geodesic,
    log,
    metric,
    parallel_transport,
    principal_angles,
    projector_from_basis,
    require_anchored,
    tangent_project,
    zero_tangent,
)
from grassmean.karcher import (
    KarcherProblem,
    karcher_cost,
    karcher_gradient,
    karcher_mean,
    newton_step_cp,
)


def test_point_validation():
    with pytest.raises(InvalidInputError):
        GrassmannPoint(np.array([[0.5, 0.0], [0.0, 0.5]]))  # not idempotent
    with pytest.raises(InvalidInputError):
        GrassmannPoint(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(InvalidInputError, match="is not the integer rank 2"):
        GrassmannPoint(np.diag([1.0, 0.0, 0.0]), rank=2)
    with pytest.raises(InvalidInputError, match="out of range"):
        GrassmannPoint(np.zeros((3, 3)))  # rank 0
    # a given rank must be an integer, not a bool, float or string
    for rank in (True, 1.7, "1"):
        with pytest.raises(InvalidInputError, match="rank must be an integer"):
            GrassmannPoint(np.diag([1.0, 0.0, 0.0]), rank=rank)
    assert GrassmannPoint(np.diag([1.0, 0.0, 0.0]), rank=np.int64(1)).rank == 1
    p = GrassmannPoint(np.diag([1.0, 0.0, 0.0]))
    assert p.rank == 1 and p.dim == 3
    with pytest.raises(ValueError):
        p.matrix[0, 0] = 2.0  # stored copy is read-only


def test_stiefel_basis_validation():
    with pytest.raises(InvalidInputError):
        StiefelBasis(np.array([[1.0], [1.0]]))
    with pytest.raises(InvalidInputError, match="is not tall"):
        StiefelBasis(np.eye(2, 3))
    basis = StiefelBasis(np.eye(3)[:, :2])
    assert basis.dim == 3 and basis.rank == 2


def test_projector_basis_roundtrip():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, n + 1))
        p = random_point(n, m, rng)
        basis = basis_from_projector(p)
        again = projector_from_basis(basis)
        assert np.linalg.norm(again.matrix - p.matrix) < 1e-12


def test_complete_frame_is_unitary_and_keeps_basis():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, n + 1))
        x = random_unitary(n, rng)[:, :m]
        frame = complete_frame(x)
        assert np.linalg.norm(frame[:, :m] - x) == 0.0
        assert np.linalg.norm(frame.conj().T @ frame - np.eye(n)) < 1e-12


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_complete_frame_keeps_the_basis_bits_at_every_rank(data):
    # every 1 <= m <= n up to n = 64: the input columns come back bit for
    # bit, and the completed frame is unitary
    n = data.draw(st.integers(1, 64), label="n")
    m = data.draw(st.integers(1, n), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    x = random_unitary(n, rng)[:, :m]
    frame = complete_frame(x)
    assert frame.shape == (n, n)
    assert np.array_equal(frame[:, :m], x)
    assert np.linalg.norm(frame.conj().T @ frame - np.eye(n)) < 1e-12


def test_tangent_projection_is_idempotent_involution():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, n))
        p = random_point(n, m, rng)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        herm = z + z.conj().T
        xi = tangent_project(p, herm)
        # projecting a tangent changes nothing: [P,[P,H]] = H on the range
        again = tangent_project(p, xi.matrix)
        assert np.linalg.norm(again.matrix - xi.matrix) < 1e-12 * max(1, xi.norm())
        # ad_P^3 = ad_P as an operator identity on Hermitian matrices
        ad = commutator(p.matrix, herm)
        ad3 = commutator(p.matrix, commutator(p.matrix, ad))
        assert np.linalg.norm(ad3 - ad) < 1e-12 * max(1.0, np.linalg.norm(ad))


def test_tangent_vector_validation_and_arithmetic():
    rng = np.random.default_rng(13)
    p = random_point(5, 2, rng)
    with pytest.raises(InvalidInputError):
        TangentVector(p, np.eye(5))  # Hermitian but not tangent
    with pytest.raises(InvalidInputError, match="does not match base dimension"):
        TangentVector(p, np.zeros((4, 4)))
    with pytest.raises(InvalidInputError, match="does not match dimension"):
        tangent_project(p, np.eye(4))
    xi = random_tangent(p, rng, 1.0)
    eta = random_tangent(p, rng, 2.0)
    assert abs((xi + eta - xi).norm() - eta.norm()) < 1e-12
    assert abs((3.0 * xi).norm() - 3.0) < 1e-12
    assert abs(metric(xi, xi) - 1.0) < 1e-12
    # arithmetic on D is not checked again as a tangent, but a non-finite
    # factor or an overflow is still rejected, as the constructor rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        for bad in (lambda: xi * np.inf, lambda: np.nan * xi, lambda: (xi * 1e308) * 1e10):
            with pytest.raises(InvalidInputError):
                bad()
    q = random_point(5, 2, rng)
    with pytest.raises(InvalidInputError):
        metric(xi, random_tangent(q, rng, 1.0))
    with pytest.raises(InvalidInputError, match="different Grassmannian"):
        metric(xi, random_tangent(random_point(5, 3, rng), rng, 1.0))
    # the geodesic parameter is a finite real number, not a bool
    for t in ("1", None, 1j, True, np.inf, np.nan):
        with pytest.raises(InvalidInputError, match="geodesic parameter"):
            geodesic(p, xi, t)
        with pytest.raises(InvalidInputError, match="geodesic parameter"):
            parallel_transport(eta, xi, t)
    assert np.array_equal(geodesic(p, xi, np.float64(0.5)).matrix, geodesic(p, xi, 0.5).matrix)
    assert np.array_equal(geodesic(p, xi, np.int64(1)).matrix, exp(p, xi).matrix)


def test_geodesic_stays_on_manifold_and_is_additive():
    rng = np.random.default_rng(14)
    p = random_point(6, 2, rng)
    xi = random_tangent(p, rng, 0.7)
    q = geodesic(p, xi, 0.4)
    assert np.linalg.norm(q.matrix @ q.matrix - q.matrix) < 1e-12
    assert abs(np.trace(q.matrix).real - 2) < 1e-12
    # flowing 0.4 then 0.3 equals flowing 0.7 (same generator)
    xi_moved = parallel_transport(xi, xi, 0.4)
    q2 = geodesic(xi_moved.base, xi_moved, 0.3)
    q_direct = geodesic(p, xi, 0.7)
    assert np.linalg.norm(q2.matrix - q_direct.matrix) < 1e-12


def test_exp_zero_is_identity():
    rng = np.random.default_rng(15)
    p = random_point(4, 2, rng)
    q = exp(p, zero_tangent(p))
    assert np.linalg.norm(q.matrix - p.matrix) < 1e-14


def test_log_of_self_is_zero():
    rng = np.random.default_rng(16)
    p = random_point(5, 3, rng)
    assert log(p, p).norm() < 1e-7


def test_exp_log_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        p = random_point(n, m, rng)
        xi = random_tangent(p, rng, rng.uniform(0.05, 1.0))
        back = log(p, exp(p, xi))
        assert (back - xi).norm() < 1e-10 * max(1.0, xi.norm())
    # small steps: the log direction comes from the complement overlaps, so
    # it keeps relative accuracy well below the sqrt(eps) arccos floor
    for m in (1, 2, 3):
        for norm in (1e-6, 1e-3):
            p = random_point(6, m, rng)
            xi = random_tangent(p, rng, norm)
            back = log(p, exp(p, xi))
            assert (back - xi).norm() < 1e-7 * xi.norm()


def test_log_exp_hits_target():
    rng = np.random.default_rng(18)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        p = random_point(n, m, rng)
        q = random_point(n, m, rng)
        try:
            xi = log(p, q)
        except CutLocusError:
            continue
        assert np.linalg.norm(exp(p, xi).matrix - q.matrix) < 1e-10
        # the log's norm is the geodesic distance
        assert abs(xi.norm() - dist(p, q)) < 1e-9


def test_log_at_cut_locus_raises():
    p = GrassmannPoint(np.diag([1.0, 0.0]))
    q = GrassmannPoint(np.diag([0.0, 1.0]))
    with pytest.raises(CutLocusError):
        log(p, q)


def test_full_grassmannian_is_a_single_point():
    p = GrassmannPoint(np.eye(3))
    assert log(p, p).norm() == 0.0
    assert dist(p, p) == 0.0


def test_principal_angles_against_scipy():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, n))
        p = random_point(n, m, rng)
        q = random_point(n, m, rng)
        ours = np.sort(principal_angles(p, q))
        x = basis_from_projector(p).matrix
        y = basis_from_projector(q).matrix
        ref = np.sort(scipy.linalg.subspace_angles(x, y))
        # the arccos route cannot resolve angles below sqrt(eps); scipy's
        # sine-based small-angle path can, so allow that floor
        np.testing.assert_allclose(ours, ref, atol=2e-7)


def test_distance_cp1_closed_form():
    # one-parameter family of real lines in C^2 at angle t from the first
    # axis, up to orthogonal lines (at the cut locus, which dist does not test)
    for t in [*np.linspace(0.01, 1.5, 25), np.pi / 2]:
        x = np.array([[np.cos(t)], [np.sin(t)]], dtype=complex)
        p0 = GrassmannPoint(np.diag([1.0, 0.0]))
        pt = projector_from_basis(x)
        angle = min(t, np.pi - t)
        assert abs(dist(p0, pt) - np.sqrt(2.0) * angle) < 1e-10


def test_distance_symmetry_and_unitary_invariance():
    rng = np.random.default_rng(20)
    p = random_point(6, 3, rng)
    q = random_point(6, 3, rng)
    assert abs(dist(p, q) - dist(q, p)) < 1e-10
    u = random_unitary(6, rng)
    pu = GrassmannPoint(u @ p.matrix @ u.conj().T, 3)
    qu = GrassmannPoint(u @ q.matrix @ u.conj().T, 3)
    assert abs(dist(pu, qu) - dist(p, q)) < 1e-10


def test_log_unitary_equivariance():
    rng = np.random.default_rng(21)
    p = random_point(5, 2, rng)
    q = exp(p, random_tangent(p, rng, 0.8))
    u = random_unitary(5, rng)
    pu = GrassmannPoint(u @ p.matrix @ u.conj().T, 2)
    qu = GrassmannPoint(u @ q.matrix @ u.conj().T, 2)
    moved = u @ log(p, q).matrix @ u.conj().T
    assert np.linalg.norm(log(pu, qu).matrix - moved) < 1e-9


def test_parallel_transport_isometry():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, n))
        p = random_point(n, m, rng)
        vel = random_tangent(p, rng, rng.uniform(0.1, 1.0))
        a = random_tangent(p, rng, rng.uniform(0.1, 2.0))
        b = random_tangent(p, rng, rng.uniform(0.1, 2.0))
        t = rng.uniform(-1.5, 1.5)
        at = parallel_transport(a, vel, t)
        bt = parallel_transport(b, vel, t)
        # transported vectors live at the geodesic point and keep the metric
        target = geodesic(p, vel, t)
        assert np.linalg.norm(at.base.matrix - target.matrix) < 1e-12
        assert abs(metric(at, bt) - metric(a, b)) < 1e-10
        assert abs(at.norm() - a.norm()) < 1e-10


def test_geodesic_exp_and_transport_match_the_expm_conjugation():
    # the paper's formulas as an independent reference: with U = e^{t[H,P]},
    # the geodesic point is U P U^H and a transported vector is U xi U^H
    rng = np.random.default_rng(26)

    def draw(point, size):
        if point.rank == point.dim:  # the only tangent there is zero
            return zero_tangent(point)
        return random_tangent(point, rng, size)

    for _ in range(300):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 1))
        p = random_point(n, m, rng)
        t = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
        vel = draw(p, rng.uniform(0.0, 3.0) / abs(t))  # |tH| up to 3
        xi = draw(p, rng.uniform(0.0, 5.0))
        u = scipy.linalg.expm(t * commutator(vel.matrix, p.matrix))
        moved = u @ p.matrix @ u.conj().T
        assert np.linalg.norm(geodesic(p, vel, t).matrix - moved) < 1e-12
        assert np.linalg.norm(exp(p, t * vel).matrix - moved) < 1e-12
        carried = parallel_transport(xi, vel, t)
        assert np.linalg.norm(carried.base.matrix - moved) < 1e-12
        gap = np.linalg.norm(carried.matrix - u @ xi.matrix @ u.conj().T)
        assert gap < 1e-12 * max(1.0, xi.norm())


def test_transport_of_velocity_matches_geodesic_derivative():
    rng = np.random.default_rng(23)
    p = random_point(5, 2, rng)
    vel = random_tangent(p, rng, 0.6)
    t, h = 0.7, 1e-6
    moved = parallel_transport(vel, vel, t)
    fd = (geodesic(p, vel, t + h).matrix - geodesic(p, vel, t - h).matrix) / (2 * h)
    assert np.linalg.norm(moved.matrix - fd) < 1e-8


def test_log_rejects_mismatched_spaces():
    p = GrassmannPoint(np.diag([1.0, 0.0, 0.0]))
    q = GrassmannPoint(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(InvalidInputError):
        log(p, q)
    with pytest.raises(InvalidInputError):
        dist(p, q)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_a_built_point_and_its_bare_twin_agree(data):
    # a point built by exp keeps its moved basis; its twin
    # GrassmannPoint(point.matrix) takes the projector's eigenvectors, which
    # differ by an m-by-m unitary, so every reading agrees at rounding.
    # Angles are compared squared: arccos turns a rounding error in a cosine
    # near 1 into an angle error of its square root. Largest differences over
    # 6000 random draws of this kind: log and the exp/log round trip 4.4e-15,
    # squared angles 3.1e-15, squared distance and cost 1.7e-14. exp moves
    # the point's kept basis, so the twins' images differ at rounding (4.2e-15
    # at most over 20000 draws); from one projector it gives equal bits.
    n = data.draw(st.integers(2, 8), label="n")
    m = data.draw(st.integers(1, n - 1), label="m")
    t = float(np.exp(data.draw(st.floats(np.log(1e-6), np.log(1.4)), label="log distance")))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    anchor = random_point(n, m, rng)
    point = exp(anchor, random_tangent(anchor, rng, t))
    twin = GrassmannPoint(point.matrix)
    basis = point._basis
    assert np.linalg.norm(point.matrix @ basis - basis) <= 1e-13
    assert np.linalg.norm(basis.conj().T @ basis - np.eye(m)) < STIEFEL_TOL
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0
    assert np.linalg.norm(log(anchor, point).matrix - log(anchor, twin).matrix) <= 1.5e-14
    gap = (principal_angles(anchor, point) ** 2 - principal_angles(anchor, twin) ** 2)
    assert np.abs(gap).max() <= 1.5e-14
    assert abs(dist(anchor, point) ** 2 - dist(anchor, twin) ** 2) <= 5e-14
    other = exp(anchor, random_tangent(anchor, rng, 0.3))
    cost = [karcher_cost(KarcherProblem((q, other)), anchor) for q in (point, twin)]
    assert abs(cost[0] - cost[1]) <= 5e-14
    round_trip = [exp(anchor, log(anchor, q)).matrix for q in (point, twin)]
    assert np.linalg.norm(round_trip[0] - round_trip[1]) <= 1.5e-14
    velocity = random_tangent(point, rng, 0.5)
    moved = exp(twin, velocity).matrix
    assert np.array_equal(moved, exp(GrassmannPoint(point.matrix), velocity).matrix)
    assert np.linalg.norm(exp(point, velocity).matrix - moved) <= 1e-14


def test_a_tolerated_vertical_part_moves_nothing():
    # a tangent is accepted with a part along its point's span up to
    # TANGENT_TOL; the geodesic, transport and Newton step read only the
    # horizontal part, so even far along t the image is a projector whose
    # kept basis is orthonormal, and the Newton step is the horizontal one's
    rng = np.random.default_rng(29)
    point = random_point(5, 2, rng)
    vertical = 5e-11 * point.matrix
    horizontal = random_tangent(point, rng, 1.0)
    for part in (zero_tangent(point), horizontal):
        velocity = TangentVector(point, part.matrix + vertical)
        for t in (1.0, 1.5e10):
            moved = geodesic(point, velocity, t)
            assert np.linalg.norm(moved.matrix @ moved.matrix - moved.matrix) <= 1e-13
            basis = moved._basis
            assert np.linalg.norm(basis.conj().T @ basis - np.eye(2)) <= 1e-13
            # a checked tangent at the moved point, of its horizontal part's norm
            carried = parallel_transport(velocity, velocity, t)
            assert abs(carried.norm() - part.norm()) <= 1e-12
    cloud = KarcherProblem([exp(point, random_tangent(point, rng, 0.4)) for _ in range(6)])
    mixed = newton_step_cp(cloud, point, TangentVector(point, horizontal.matrix + vertical))
    assert abs(mixed - newton_step_cp(cloud, point, horizontal)) <= 1e-13 * mixed


def test_thin_tangent_defect_matches_the_commutator_form():
    # a caller's H is checked as |H - (X D^H + D X^H)|, D = H X - X X^H H X,
    # on the point's kept basis X. For built and bare points at every rank
    # that agrees with the projector form |[P, [P, H]] - H| to
    # 1e-12 max(1, |H|), and accept and reject agree with the projector form
    # outside that band, also for H whose part off the tangent space is
    # 0.5, 0.97, 1.03 or 2 times TANGENT_TOL max(1, |H|)
    rng = np.random.default_rng(43)
    for n in range(1, 13):
        for m in range(1, n + 1):
            built = projector_from_basis(random_unitary(n, rng)[:, :m])
            for point in (built, GrassmannPoint(built.matrix)):
                proj, basis = point.matrix, basis_from_projector(point).matrix
                z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                herm = 10.0 ** rng.uniform(-2, 2) * (z + z.conj().T)
                tangent = commutator(proj, commutator(proj, herm))
                normal = herm - tangent
                cases = [herm] + [
                    tangent + normal * (f * TANGENT_TOL * max(1.0, np.linalg.norm(tangent))
                                        / np.linalg.norm(normal)) for f in (0.5, 0.97, 1.03, 2.0)]
                for value in cases:
                    size = max(1.0, np.linalg.norm(value))
                    oracle = np.linalg.norm(commutator(proj, commutator(proj, value)) - value)
                    thin = np.linalg.norm(value - _lift(basis, _horizontal(value, basis)))
                    assert abs(thin - oracle) <= 1e-12 * size, (n, m)
                    if abs(oracle - TANGENT_TOL * size) <= 1e-12 * size:
                        continue
                    try:
                        TangentVector(point, value)
                        accepted = True
                    except InvalidInputError:
                        accepted = False
                    assert accepted == (oracle < TANGENT_TOL * size), (n, m, oracle / size)


def test_base_gap_matches_the_projector_form():
    # require_anchored compares kept bases, sqrt(2) |X2 - X1 X1^H X2|_F, which
    # is |P1 - P2|_F. At every rank, for a base and its twin
    # GrassmannPoint(p.matrix), and for points at 0.5, 0.97, 1.03 and 2 times
    # BASE_MATCH_TOL from it, built and bare, the basis gap agrees with the
    # projector form to 1e-14, and accept and reject agree with the projector
    # form outside a band of that width around BASE_MATCH_TOL
    rng = np.random.default_rng(61)
    for n in range(1, 11):
        for m in range(1, n + 1):
            base = projector_from_basis(random_unitary(n, rng)[:, :m])
            vector = random_tangent(base, rng, 1.0) if m < n else zero_tangent(base)
            points = [GrassmannPoint(base.matrix)]
            if m < n:
                step = random_tangent(base, rng, 1.0)
                for f in (0.5, 0.97, 1.03, 2.0):
                    # the chordal gap of exp(base, s step) is s to second order in s
                    near = exp(base, step * (f * BASE_MATCH_TOL))
                    points += [near, GrassmannPoint(near.matrix)]
            for point in points:
                oracle = np.linalg.norm(point.matrix - base.matrix)
                first, second = (basis_from_projector(q).matrix for q in (base, point))
                gap = np.sqrt(2.0) * np.linalg.norm(second - first @ (first.conj().T @ second))
                assert abs(gap - oracle) <= 1e-14, (n, m)
                if abs(oracle - BASE_MATCH_TOL) <= 1e-14:
                    continue
                try:
                    tangent = require_anchored(vector, point)
                    accepted = True
                except InvalidInputError:
                    accepted = False
                assert accepted == (oracle <= BASE_MATCH_TOL), (n, m, oracle)
                if accepted:  # the D at the point's basis is horizontal there, of the same norm
                    assert np.linalg.norm(second.conj().T @ tangent) <= 1e-14
                    assert abs(np.sqrt(2.0) * np.linalg.norm(tangent) - vector.norm()) <= 1e-7


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["deepcopy", "pickle"])
def test_built_objects_survive_copy_and_pickle_with_their_matrix_bits(copy_of):
    # a built point holds its basis and a package tangent its D; a copy holds
    # the same, forms the same matrix bits on first read, and a copy made after
    # a read keeps them. The hook that forms a matrix answers only for
    # ``matrix``: copy and pickle look up __setstate__ and the like on an
    # empty object, and that raises AttributeError, with no recursion
    rng = np.random.default_rng(67)
    center = projector_from_basis(random_unitary(5, rng)[:, :2])
    point = exp(center, random_tangent(center, rng, 0.4))
    velocity = log(center, point)
    built = [point, log(point, center), parallel_transport(velocity, velocity, 0.5)]
    for obj in built:
        twin = copy_of(obj)
        assert type(twin) is type(obj) and "matrix" not in vars(twin)
        assert twin.matrix.tobytes() == obj.matrix.tobytes()
        again = copy_of(obj)  # the original has formed its matrix now
        assert "matrix" in vars(again) and again.matrix.tobytes() == obj.matrix.tobytes()
    for cls, names in ((GrassmannPoint, ("matrix", "__setstate__")),
                       (TangentVector, ("matrix", "_d", "base", "__setstate__"))):
        empty = object.__new__(cls)
        for name in names:
            with pytest.raises(AttributeError):
                getattr(empty, name)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_tangents_the_package_builds_pass_the_public_check(data):
    # log, karcher_gradient, parallel_transport (far along t as well),
    # tangent_project, zero_tangent and negation build their tangents
    # unchecked; each passes TangentVector's check and keeps its values there.
    # Every rank is drawn, m = n included, at built and bare points
    n = data.draw(st.integers(2, 8), label="n")
    m = data.draw(st.integers(1, n), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    point = projector_from_basis(random_unitary(n, rng)[:, :m])
    if data.draw(st.booleans(), label="bare"):
        point = GrassmannPoint(point.matrix)
    # at m = n the one point is its own neighbourhood
    others = [exp(point, random_tangent(point, rng, 0.6)) if m < n else point for _ in range(3)]
    velocity = log(point, others[0])
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    built = [velocity, karcher_gradient(KarcherProblem(others), point),
             tangent_project(point, z + z.conj().T), zero_tangent(point), -velocity]
    moved = tangent_project(point, z + z.conj().T)
    carried = [parallel_transport(moved, velocity, t) for t in (0.5, 3.0, 1e3, 1.5e10)]
    for vector in carried:
        # past rank n - m the velocity's singular values are exact zeros, so
        # far along t the moved basis stays orthonormal at 2m > n as well
        basis = vector.base._basis
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(m)) <= 1e-13
    for vector in built + carried:
        checked = TangentVector(vector.base, vector.matrix)
        assert np.array_equal(checked.matrix, vector.matrix)
        assert not vector.matrix.flags.writeable


def test_no_operation_on_a_built_point_reads_its_projector():
    # a built point's geometry runs on the basis it keeps, and a package
    # tangent's on its horizontal D: no public operation forms the n-by-n
    # matrix of a built point or a package tangent, given or returned, and
    # with a point's projector entries overwritten by NaN every public
    # operation on it stays finite
    rng = np.random.default_rng(47)
    center = projector_from_basis(random_unitary(6, rng)[:, :2])
    others = [exp(center, random_tangent(center, rng, 0.5)) for _ in range(5)]
    point = exp(center, random_tangent(center, rng, 0.2))
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    problem = KarcherProblem(others)
    velocity, moved = 0.3 * log(point, others[0]), tangent_project(point, z + z.conj().T)
    seen = []
    objects = [center, *others, point, velocity, moved, log(point, others[1]),
               exp(point, velocity), geodesic(point, velocity, 0.4),
               parallel_transport(moved, velocity, 0.7), velocity + moved, velocity - moved,
               -moved, 2.0 * moved, moved * 0.5, karcher_gradient(problem, point),
               karcher_mean(problem, callback=lambda it, *objs: seen.extend(objs))[0],
               karcher_mean(problem, init=point)[0]]
    readings = [metric(velocity, moved), velocity.norm(), newton_step_cp(problem, point, moved)]
    assert len(seen) >= 6 and all(np.isfinite(readings))
    for obj in objects + seen:
        assert "matrix" not in vars(obj), obj
        if isinstance(obj, TangentVector):
            assert "matrix" not in vars(obj.base), obj
    caller = tangent_project(point, z + z.conj().T).matrix
    object.__setattr__(point, "matrix", np.full((6, 6), np.nan, dtype=complex))
    velocity = TangentVector(point, 0.3 * caller / np.linalg.norm(caller))
    readings = [log(point, others[0]).matrix, exp(point, velocity).matrix,
                parallel_transport(velocity, velocity, 0.7).matrix,
                tangent_project(point, z + z.conj().T).matrix,
                karcher_gradient(problem, point).matrix, newton_step_cp(problem, point, velocity),
                dist(point, others[1]), karcher_cost(problem, point)]
    for reading in readings:
        assert np.all(np.isfinite(reading))


_NON_POINT_CALLS = {
    "karcher_mean": lambda bad, point, velocity, problem: karcher_mean(problem, init=bad),
    "karcher_cost": lambda bad, point, velocity, problem: karcher_cost(problem, bad),
    "karcher_gradient": lambda bad, point, velocity, problem: karcher_gradient(problem, bad),
    "log": lambda bad, point, velocity, problem: log(bad, point),
    "log_target": lambda bad, point, velocity, problem: log(point, bad),
    "dist": lambda bad, point, velocity, problem: dist(point, bad),
    "principal_angles": lambda bad, point, velocity, problem: principal_angles(bad, point),
    "basis_from_projector": lambda bad, point, velocity, problem: basis_from_projector(bad),
    "exp": lambda bad, point, velocity, problem: exp(bad, velocity),
    "geodesic": lambda bad, point, velocity, problem: geodesic(bad, velocity, 0.5),
    "newton_step_cp": lambda bad, point, velocity, problem: newton_step_cp(problem, bad, velocity),
    "tangent_project": lambda bad, point, velocity, problem: tangent_project(bad, velocity.matrix),
    "TangentVector": lambda bad, point, velocity, problem: TangentVector(bad, velocity.matrix),
    "zero_tangent": lambda bad, point, velocity, problem: zero_tangent(bad),
}


@pytest.mark.parametrize("call", sorted(_NON_POINT_CALLS))
def test_a_non_point_is_rejected_naming_its_type(call):
    # every public call that reads a point's basis rejects a StiefelBasis,
    # the other public point type, or a bare array with InvalidInputError
    rng = np.random.default_rng(53)
    point = projector_from_basis(random_unitary(5, rng)[:, :2])
    velocity = random_tangent(point, rng, 0.3)
    problem = KarcherProblem([exp(point, random_tangent(point, rng, 0.4)) for _ in range(4)])
    for bad in (basis_from_projector(point), point.matrix):
        with pytest.raises(InvalidInputError,
                           match=f"expected a GrassmannPoint, got {type(bad).__name__}"):
            _NON_POINT_CALLS[call](bad, point, velocity, problem)


_NON_TANGENT_CALLS = {
    "add": (lambda point, velocity: velocity + 3, "int"),
    "metric": (lambda point, velocity: metric(velocity, 1.0), "float"),
    "metric_first": (lambda point, velocity: metric(1.0, velocity), "float"),
    "exp": (lambda point, velocity: exp(point, 2.0), "float"),
    "geodesic": (lambda point, velocity: geodesic(point, point, 1.0), "GrassmannPoint"),
    "parallel_transport": (lambda point, velocity: parallel_transport(point, velocity, 1.0),
                           "GrassmannPoint"),
}


@pytest.mark.parametrize("call", sorted(_NON_TANGENT_CALLS))
def test_a_non_tangent_is_rejected_naming_its_type(call):
    # a public call that reads a tangent's base rejects anything else with
    # InvalidInputError, as a call that reads a point's basis does
    rng = np.random.default_rng(59)
    point = projector_from_basis(random_unitary(5, rng)[:, :2])
    velocity = random_tangent(point, rng, 0.3)
    run, kind = _NON_TANGENT_CALLS[call]
    with pytest.raises(InvalidInputError, match=f"^expected a TangentVector, got {kind}$"):
        run(point, velocity)


@pytest.mark.parametrize("entries", [[[10 ** 400], [0]], [["abc"]], [[{}]], [[1.0], [1.0, 0.0]]],
                         ids=["overflow", "string", "object", "ragged"])
def test_a_basis_of_entries_that_are_not_complex_numbers_is_rejected_typed(entries):
    with pytest.raises(InvalidInputError, match=r"^basis is not an array of complex numbers \("):
        StiefelBasis(entries)


def test_a_basis_whose_gram_overflows_is_not_orthonormal():
    # finite entries whose products overflow give inf - inf in the Gram
    # matrix; that defect reads inf, and is never taken for a small one
    with np.errstate(over="ignore", invalid="ignore"):
        for entries in ([[1e200 + 1e200j], [0.0]], [[1.0, 1e300], [0.0, 1.0]]):
            with pytest.raises(InvalidInputError, match=r"not orthonormal \(defect inf\)"):
                StiefelBasis(entries)


def test_trusted_views_are_the_read_only_rows_of_their_stack():
    stack = np.stack([random_unitary(4, np.random.default_rng(seed))[:, :2] for seed in (1, 2, 3)])
    views = _trusted_views(StiefelBasis, "matrix", stack)
    assert [type(view) for view in views] == [StiefelBasis] * 3
    assert not stack.flags.writeable
    for view, row in zip(views, stack):
        assert view.matrix.base is stack and not view.matrix.flags.writeable
        assert view.matrix.tobytes() == row.tobytes() and (view.dim, view.rank) == (4, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.matrix = row
