import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from gms import continuum
from gms.core import PointCloud, ValidationError, ZetaSpec, zeta_derivative, zeta_limit
from gms.continuum import (
    DivergentIntegralError,
    NoisyFidelityCase,
    SmoothCase,
    StepCase,
    gamma_experiment,
    gaussian_eta,
    noise_offset_experiment,
    omega_ball_volume,
    radial_moment,
    sampled_energy,
    sigma_eta,
    sphere_moment,
    sphere_moment_mc,
    theta_eta,
    _cell_order,
    _cell_pairs,
)
from gms.consistency import dyadic_counterexample
from gms.energy import SingularityError, gms_energy
from gms.graph import brute_force_graph

from conftest import small_config

GAUSS = lambda t: math.exp(-(t**2) / 2.0)


class TestOmega:
    def test_known_values(self):
        assert omega_ball_volume(0) == 1.0
        assert omega_ball_volume(1) == pytest.approx(2.0)
        assert omega_ball_volume(2) == pytest.approx(math.pi)
        assert omega_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            omega_ball_volume(-1)

    @pytest.mark.parametrize("m", range(19))
    def test_matches_scipy_gamma(self, m):
        # math.gamma and scipy's gamma differ in the last bits at half-integers
        reference = math.pi ** (m / 2) / scipy.special.gamma(m / 2 + 1)
        assert abs(omega_ball_volume(m) - reference) <= 4 * math.ulp(reference)

    def test_mc_cross_check_d2_p1(self):
        # int_{S^1} |e.v| dH^1 = 2 omega_1 = 4
        assert sphere_moment_mc(1.0, 2, seed=3) == pytest.approx(4.0, rel=0.01)


class TestSphereMoment:
    @pytest.mark.parametrize("p,d", [(2.0, 2), (3.0, 2), (2.0, 3)])
    def test_matches_mc(self, p, d):
        exact = sphere_moment(p, d)
        mc = sphere_moment_mc(p, d, seed=7)
        assert mc == pytest.approx(exact, rel=0.01)

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_scipy_gamma(self, p, d):
        g = scipy.special.gamma
        reference = (
            2.0 * math.pi ** ((d - 1) / 2) / g((d - 1) / 2 + 1) * g(p / 2 + 0.5) * g(d / 2 + 0.5) / g(p / 2 + d / 2)
        )
        assert abs(sphere_moment(p, d) - reference) <= 4 * math.ulp(reference)


class TestRadialMoment:
    def test_gaussian_cubic_moment(self):
        # int_0^inf t^3 e^{-t^2/2} dt = 2
        assert radial_moment(GAUSS, 3.0) == pytest.approx(2.0, rel=1e-10)

    def test_zero_kernel(self):
        assert radial_moment(lambda t: 0.0, 2.0) == 0.0

    def test_divergent_rejected(self):
        with pytest.raises(DivergentIntegralError):
            radial_moment(lambda t: 1.0 / (1.0 + t), 2.0)

    @pytest.mark.parametrize("power", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("sigma", [1.0, 0.2])
    def test_truncated_gaussian_closed_form(self, sigma, power):
        # int_0^{3 sigma} t^a e^{-t^2/(2 sigma^2)} dt
        #   = sigma^(a+1) 2^((a-1)/2) Gamma((a+1)/2) P((a+1)/2, 9/2)
        s = (power + 1) / 2
        exact = sigma ** (power + 1) * 2 ** (s - 1) * math.gamma(s) * scipy.special.gammainc(s, 4.5)
        assert abs(radial_moment(gaussian_eta(sigma, 3.0), power) / exact - 1) <= 1e-13

    def test_unresolvable_kernel_stops_at_the_interval_cap(self):
        # eta switches between 0 and 1 every pi * 1e-6 on [0, 1]: no bisection
        # resolves it, so [0, 1] ends at 200 intervals with about half of 1/3
        calls = []

        def eta(t):
            calls.append(t)
            return 1.0 if t <= 1.0 and math.sin(1e6 * t) > 0 else 0.0

        assert radial_moment(eta, 2.0) == pytest.approx(1.0 / 6.0, rel=0.1)
        # 11 starting intervals, 189 splits of 4 seven-point rules, then [1, 2]
        assert len(calls) <= 11 * 21 + 189 * 28 + 21

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_kernel_rejected(self, bad):
        calls = []

        def eta(t):
            calls.append(t)
            return bad if t > 0.5 else 1.0

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergentIntegralError, match="eta"):
                radial_moment(eta, 2.0)
        # raised at the first bad value, still in the first piece [0, 1]
        assert calls[-1] > 0.5 and max(calls) <= 1.0


class TestConstants:
    def test_theta_gaussian_2d(self):
        # omega_1 = 2, Gamma factor pi/4, radial integral 2 => 2*2*(pi/4)*2 = 2 pi
        assert theta_eta(2.0, 0.0, 2, GAUSS) == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_p_equals_q_reduces_integrand(self):
        # p = q case: integrand is t^{d-1} eta(t) regardless of p
        a = theta_eta(2.0, 1.9999999, 2, GAUSS)
        b = sphere_moment(2.0, 2) * radial_moment(GAUSS, 1.0000001)
        assert a == pytest.approx(b, rel=1e-6)

    def test_sigma_gaussian_2d(self):
        assert sigma_eta(2, GAUSS) == pytest.approx(4.0 * math.sqrt(math.pi / 2.0), rel=1e-9)

    def test_sigma_indicator_kernel(self):
        # eta = 1 on [0,1]: sigma = 2*omega_1*(1/3) = 4/3
        eta = lambda t: 1.0 if t <= 1.0 else 0.0
        assert sigma_eta(2, eta) == pytest.approx(4.0 / 3.0, rel=1e-6)

    def test_sigma_indicator_kernel_exact(self):
        eta = lambda t: 1.0 if t <= 1.0 else 0.0
        assert abs(sigma_eta(2, eta) / (4.0 / 3.0) - 1) <= 1e-13

    def test_zero_kernel_rejected(self):
        for constant in (lambda eta: sigma_eta(2, eta), lambda eta: theta_eta(2.0, 0.0, 2, eta)):
            with pytest.raises(ValidationError, match=r"identically zero \(assumption B1\)"):
                constant(lambda t: 0.0)

    def test_linearity_in_eta(self):
        c = 3.7
        assert theta_eta(2.0, 0.0, 2, lambda t: c * GAUSS(t)) == pytest.approx(
            c * theta_eta(2.0, 0.0, 2, GAUSS), rel=1e-9
        )
        assert sigma_eta(2, lambda t: c * GAUSS(t)) == pytest.approx(
            c * sigma_eta(2, GAUSS), rel=1e-9
        )

    def test_q_dependence_is_radial_only(self):
        ratio = theta_eta(2.0, 0.0, 2, GAUSS) / theta_eta(2.0, 1.0, 2, GAUSS)
        expected = radial_moment(GAUSS, 3.0) / radial_moment(GAUSS, 2.0)
        assert ratio == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("p", [341.0, 342.0, 400.0, 645.0])
    def test_theta_finite_past_the_cutoff(self, p):
        # The radial moment of order p+1 is finite: the integrand is 0 past the
        # kernel's cutoff at 3, where t^(p+1) alone would overflow a float.  So
        # is the sphere moment, whose Gamma factors overflow from p = 342 on.
        assert 0 < theta_eta(p, 0.0, 2, gaussian_eta(1.0)) < math.inf

    def test_theta_overflow_rejected(self):
        with pytest.raises(DivergentIntegralError, match="p=646 overflows"):
            theta_eta(646.0, 0.0, 2, gaussian_eta(1.0))

    def test_from_kernel(self):
        # each case builds its one constant from the kernel it is given
        spec, wide = ZetaSpec("ms_arctan"), lambda t: GAUSS(t / 2.0)
        assert StepCase().continuum(spec, wide, 2.0, 0.0) == sigma_eta(2, wide) * zeta_limit(spec)
        smooth = SmoothCase().continuum(spec, wide, 2.0, 0.0) / zeta_derivative(spec, 0.0)
        assert smooth == pytest.approx(theta_eta(2.0, 0.0, 2, wide) * 2.0 * math.pi**2, rel=1e-9)

    def test_narrow_kernel_names_the_quadrature(self):
        # zero past 3e-5, below the first node above 0 at about 4.1e-5
        eta = gaussian_eta(1e-5)
        for constant in (lambda: sigma_eta(2, eta), lambda: theta_eta(2.0, 0.0, 2, eta)):
            with pytest.raises(ValidationError, match=r"zero from t = 4.1e-05 on, the quadrature's first node"):
                constant()


class TestContinuumMs:
    spec = ZetaSpec("ms_arctan")

    def test_step_case(self):
        val = StepCase().continuum(self.spec, GAUSS, 2.0, 0.0)
        assert val == pytest.approx(sigma_eta(2, GAUSS) * 1.0 * 1.0, rel=1e-12)

    def test_smooth_case(self):
        # int_0^1 (2 pi cos 2 pi x)^2 dx = 2 pi^2
        val = SmoothCase().continuum(self.spec, GAUSS, 2.0, 0.0)
        assert val == pytest.approx(theta_eta(2.0, 0.0, 2, GAUSS) * 1.0 * 2.0 * math.pi**2, rel=1e-9)

    def test_constant_zero(self):
        assert SmoothCase(amplitude=0.0).continuum(self.spec, GAUSS, 2.0, 0.0) == 0.0
        assert StepCase(low=0.5, high=0.5).continuum(self.spec, GAUSS, 2.0, 0.0) == 0.0

    def test_jump_with_unbounded_saturation_rejected(self):
        with pytest.raises(ValidationError):
            StepCase().continuum(ZetaSpec("quadratic"), GAUSS, 2.0, 0.0)

    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(0.0, 700.0, exclude_min=True), q_share=st.floats(0.0, 1.0, exclude_max=True))
    def test_step_limit_independent_of_p_and_q(self, p, q_share):
        # The jump term holds no p or q, so the gradient-term constant, which
        # overflows from p = 646 on, is never computed.
        q = q_share * p
        if not q < p:
            return
        (row,) = gamma_experiment(StepCase(), [1], self.spec, p=p, q=q)
        (ref,) = gamma_experiment(StepCase(), [1], self.spec)
        assert row["continuum"].hex() == ref["continuum"].hex()


class TestSampledEnergy:
    def test_matches_graph_energy(self, rng, ms_spec):
        # uncapped graph + gms_energy is the oracle for the streaming evaluator
        for n, d, eps in [(150, 2, 0.15), (80, 3, 0.3), (250, 2, 0.08)]:
            pts = rng.random((n, d))
            u = rng.random(n)
            cloud = PointCloud(points=pts)
            config = small_config(eps=eps, k_max=n, sigma=1.0)
            g = brute_force_graph(cloud, config)
            oracle = gms_energy(g, u, ms_spec)
            streamed = sampled_energy(pts, u, ms_spec, eps, sigma=1.0)
            assert streamed == pytest.approx(oracle, rel=1e-10)

    def test_constant_zero(self, rng, ms_spec):
        pts = rng.random((100, 2))
        assert sampled_energy(pts, np.full(100, 2.0), ms_spec, 0.1) == 0.0

    def test_general_pq(self, rng, ms_spec):
        n = 100
        pts = rng.random((n, 2))
        u = rng.random(n)
        config = small_config(eps=0.15, k_max=n)
        g = brute_force_graph(PointCloud(points=pts), config)
        assert sampled_energy(pts, u, ms_spec, 0.15, p=3.0, q=1.0) == pytest.approx(
            gms_energy(g, u, ms_spec, p=3.0, q=1.0), rel=1e-10
        )

    def test_zero_distance_singularity(self, rng, ms_spec):
        pts = rng.random((20, 2))
        pts[7] = pts[3]
        u = rng.random(20)
        with pytest.raises(SingularityError):
            sampled_energy(pts, u, ms_spec, 0.2, p=2.0, q=1.0)
        # q = 0 has no singularity at zero distance
        assert math.isfinite(sampled_energy(pts, u, ms_spec, 0.2))

    def test_zero_distance_singularity_names_input_labels(self, rng, ms_spec):
        # Equal values on the duplicated pair must not hide it: q > 0 skips no
        # point.  Row order permutes the points, and the message must name
        # them as the caller numbered them.
        pts = rng.random((200, 2))
        pts[150] = pts[17]
        with pytest.raises(SingularityError, match=r"pair \((17, 150|150, 17)\)"):
            sampled_energy(pts, np.ones(200), ms_spec, 0.05, p=2.0, q=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, rng, ms_spec, bad):
        u = rng.random(200)
        u[42] = bad
        with pytest.raises(ValidationError, match="labels must be finite"):
            sampled_energy(rng.random((200, 2)), u, ms_spec, 0.1)
        # an all-infinite cloud would otherwise look constant and read 0
        with pytest.raises(ValidationError):
            sampled_energy(rng.random((50, 2)), np.full(50, bad), ms_spec, 0.1)

    @pytest.mark.parametrize(
        "points, values, message",
        [
            (np.zeros((0, 2)), np.zeros(0), "points must be a nonempty"),
            (np.zeros(5), np.zeros(5), "points must be a nonempty"),
            (np.zeros((5, 2)), np.zeros(4), "labels must have length 5"),
            (np.full((5, 2), np.nan), np.zeros(5), "point coordinates must be finite"),
        ],
    )
    def test_malformed_cloud_rejected(self, ms_spec, points, values, message):
        with pytest.raises(ValidationError, match=message):
            sampled_energy(points, values, ms_spec, 0.1)

    def test_pair_counts(self, rng, ms_spec, tv_spec):
        # A step along either axis trims the runs on either side of it; tv
        # (zeta(0) = delta) and q > 0 trim none.  All three sweep the same
        # axis, so the candidates add up to the same total.
        pts = rng.random((3000, 2))
        for axis in range(2):
            u = np.where(pts[:, axis] > 0.5, 1.0, 0.0)
            counts = {}
            for name, spec, q in (("ms", ms_spec, 0.0), ("tv", tv_spec, 0.0), ("ms_q1", ms_spec, 1.0)):
                counts[name] = {}
                sampled_energy(pts, u, spec, 0.05, q=q, stats=counts[name])
            assert counts["ms"]["skipped"] > counts["ms"]["compared"] > 0
            assert counts["tv"]["skipped"] == counts["ms_q1"]["skipped"] == 0
            total = counts["tv"]["compared"]
            assert counts["ms"]["compared"] + counts["ms"]["skipped"] == total
            assert counts["ms_q1"]["compared"] == total
            assert {c["axis"] for c in counts.values()} == {axis}

    def test_step_sweep_compares_no_equal_pair(self, rng, ms_spec):
        # Swept along x0, each row of a step along x0 holds two runs, so the
        # trim leaves only candidates across the step.
        pts = rng.random((3000, 2))
        u = np.where(pts[:, 0] > 0.5, 1.0, 0.0)
        radius = 3.0 * 0.05  # sampled_energy's at eps = 0.05
        order, cells = _cell_order(pts, radius, 0)
        in_rows = u[order]
        stats = {}
        pairs = list(_cell_pairs(pts, order, cells, radius, 0, in_rows, stats))
        assert sum(len(ia) for ia, _, _ in pairs) > 0 and stats["compared"] > 0
        assert all(np.all(in_rows[ia] != in_rows[ib]) for ia, ib, _ in pairs)
        # with the trim the step reads the same energy, and the sweep picks x0
        sampled = {}
        assert sampled_energy(pts, u, ms_spec, 0.05, stats=sampled) > 0 and sampled["axis"] == 0
        assert sampled["compared"] == stats["compared"] and sampled["skipped"] == stats["skipped"]

    @pytest.mark.parametrize(
        "case,axis,energy,orderings",
        [
            (SmoothCase(), 1, 20.749087715280123, 1),
            (SmoothCase(d=3), 2, 46.505391746874835, 1),
            (StepCase(), 0, 3.5977659206206725, 2),
            (StepCase(d=3), 0, 9.121252403734985, 3),
            ("spike", 2, 11.204866158033536, 3),
        ],
    )
    def test_sweep_axis_search(self, ms_spec, case, axis, energy, orderings):
        # The axes are tried from the last one down.  All-distinct values (the
        # smooth case) have n - 1 changes in every row order, so the first
        # order ends the search; a step or the spike orders along every axis.
        # The axis and the energy bits are those of the search over all axes.
        with patch.object(continuum, "_cell_order", wraps=continuum._cell_order) as cell_order:
            if case == "spike":
                result = dyadic_counterexample(3)
                found, stats = result["energy"], result["pairs"]
            else:
                x = np.random.default_rng(3).random((2000, case.d))
                stats = {}
                found = sampled_energy(x, case.values(x), ms_spec, 0.1, stats=stats)
        assert found == energy and stats["axis"] == axis and cell_order.call_count == orderings

    def test_nonpositive_radius_rejected(self, rng, ms_spec):
        pts = rng.random((10, 2))
        with pytest.raises(ValidationError):
            sampled_energy(pts, rng.random(10), ms_spec, 0.0)

    @pytest.mark.parametrize("m", [5, 20])
    def test_values_length_mismatch_rejected(self, rng, ms_spec, m):
        with pytest.raises(ValidationError):
            sampled_energy(rng.random((10, 2)), rng.random(m), ms_spec, 0.2)


def brute_pairs(points, radius):
    """{(i, j): d2} for i < j within radius, squared distances summed per coordinate."""
    n, d = points.shape
    d2 = np.zeros((n, n))
    for k in range(d):
        diff = points[:, None, k] - points[None, :, k]
        d2 += diff * diff
    ii, jj = np.nonzero(np.triu(d2 <= radius**2, 1))
    return {(i, j): d2[i, j] for i, j in zip(ii.tolist(), jj.tolist())}


def kernel_pairs(points, radius, axis=-1):
    """{(i, j): d2} from _cell_pairs swept along ``axis``, in input indices; fails on a pair yielded twice."""
    order, cells = _cell_order(points, radius, axis)
    found = {}
    for ia, ib, d2 in _cell_pairs(points, order, cells, radius, axis):
        for i, j, d2ij in zip(order[ia].tolist(), order[ib].tolist(), d2.tolist()):
            key = (min(i, j), max(i, j))
            assert key not in found, f"pair {key} yielded twice"
            found[key] = d2ij
    return found


@st.composite
def piecewise_constant(draw):
    """A cloud, a cutoff radius and piecewise-constant values on the cloud.

    Lattices use binary spacings, so distances at the radius are exact and
    the kernel and the brute-force graph agree on which pairs lie within it.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "duplicates", "lattice"]))
    if kind == "lattice":
        spacing = draw(st.sampled_from([1.0, 0.25]))
        points = rng.integers(0, 6, size=(n, d)) * spacing
        radius = spacing * draw(st.integers(1, 3))
    else:
        points = rng.random((n, d))
        radius = draw(st.floats(0.05, 1.0))
        if kind == "duplicates":
            points = points[rng.integers(0, max(1, n // 3), size=n)]
    # the input order: as drawn, or sorted up or down along one axis
    arrange = draw(st.sampled_from(["drawn", "ascending", "descending"]))
    if arrange != "drawn":
        by = np.argsort(points[:, draw(st.integers(0, d - 1))], kind="stable")
        points = points[by if arrange == "ascending" else by[::-1]]
    shape = draw(st.sampled_from(["step", "ball", "levels"]))
    if shape == "step":
        low, high = draw(st.sampled_from([(0.0, 1.0), (-2.5, 0.75), (3.0, 3.0)]))
        x = points[:, draw(st.integers(0, d - 1))]
        u = np.where(x > np.median(x), high, low)
    elif shape == "ball":
        center = points[rng.integers(n)]
        in_ball = np.linalg.norm(points - center, axis=1) < draw(st.floats(0.0, 1.0)) * radius * 3
        u = in_ball / 0.3
    else:
        u = rng.integers(0, 3, size=n).astype(float)
    return points, radius, u


@st.composite
def clouds(draw):
    """Point clouds with a cutoff radius, including the kernel's edge cases."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, -7.5, 1e6]))
    kind = draw(st.sampled_from(["uniform", "lattice", "duplicates", "flat_axis"]))
    if kind == "lattice":
        # integer multiples of the spacing, so many pairs sit at the radius
        # (exactly for the binary spacings 1 and 0.25, up to rounding otherwise)
        spacing = draw(st.sampled_from([1.0, 0.1, 0.25, 1.0 / 3.0]))
        points = rng.integers(0, 8, size=(n, d)) * spacing
        radius = spacing * draw(st.integers(1, 3))
    else:
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        points = rng.random((n, d)) * scale
        # up to 3 * scale, beyond the span sqrt(d) * scale of every d <= 3
        radius = scale * draw(st.floats(0.01, 3.0))
        if kind == "duplicates":
            points = points[rng.integers(0, max(1, n // 3), size=n)]
        elif kind == "flat_axis":
            points[:, draw(st.integers(0, d - 1))] = 0.5 * scale
    return points + offset, radius


class TestCellPairs:
    @settings(max_examples=200, deadline=None)
    @given(clouds(), st.sampled_from([1, 64, continuum._BLOCK_CANDIDATES]), st.integers(0, 2))
    def test_matches_brute_force(self, cloud, block, axis):
        points, radius = cloud
        # small chunks end inside a row's sweep; with 1, every window is longer than a chunk
        with patch.object(continuum, "_BLOCK_CANDIDATES", block):
            found = kernel_pairs(points, radius, axis % points.shape[1])
        expected = brute_pairs(points, radius)
        assert found.keys() == expected.keys()
        # bit-equal: the same per-coordinate summation order
        assert all(found[key] == expected[key] for key in expected)

    def test_pair_at_radius_across_rounded_cell_boundary(self):
        # The first point sets the cell origin.  With cells of side exactly
        # radius/2 the rounded cell indices of the last two points are three
        # apart although they are within the radius.
        radius = 0.8160834831883376
        points = np.array([[-56.519720635119356], [21.008210267772704], [21.82429375096104]])
        assert (points[2, 0] - points[1, 0]) ** 2 <= radius**2
        assert kernel_pairs(points, radius).keys() == {(1, 2)}

    @pytest.mark.parametrize(
        "radius,points,at_radius",
        [
            # 33^2 + 56^2 = 65^2: rows two cells apart on the one across axis
            (65.0, [[0.0, 0.0], [0.0, 32.5], [56.0, 65.5]], [(1, 2)]),
            # 170^2 + 170^2 + 239^2 = 339^2: rows at offsets (2, 2) and (2, -2)
            (
                339.0,
                [[0.0, 0.0, 0.0], [0.0, 169.5, 169.5], [239.0, 339.5, 339.5], [0.0, 169.5, 339.5], [239.0, 339.5, 169.5]],
                [(1, 2), (3, 4)],
            ),
        ],
    )
    @pytest.mark.parametrize("last", [False, True])
    def test_pair_at_radius_two_cells_across(self, radius, points, at_radius, last):
        # The first point sets the cell origin, so each at-radius pair lies in
        # rows two cells apart on every across axis, where the window along the
        # sweep is narrowed to about sqrt(r^2 - side^2 * axes): here just wider
        # than the pair's sweep distance.  The sweep coordinate comes first or last.
        points = np.array(points)
        if last:
            points = np.roll(points, -1, axis=1)
        axis = points.shape[1] - 1 if last else 0
        found, expected = kernel_pairs(points, radius, axis), brute_pairs(points, radius)
        assert all(expected[pair] == radius**2 for pair in at_radius)
        assert found == expected

    def test_pair_at_radius_across_a_gap_on_a_rounded_cell_boundary(self):
        # The first point sets the cell origin.  The last two lie in rows two
        # cells apart, but rounding in the cell index leaves them less than one
        # cell side apart across the sweep, so their distance along it exceeds
        # sqrt(r^2 - side^2): a window without the rounding margins misses them.
        radius = 1.1700967619904363
        points = np.array([[0.0, -56.519720635119356], [0.0, -23.75701129647869], [1.013333520739648, -23.17196291543154]])
        order, cells = _cell_order(points, radius, 0)
        side = continuum._cell_side(points, radius)
        assert cells[np.argsort(order), 0].tolist() == [0, 55, 57]
        assert points[2, 1] - points[1, 1] < side and points[2, 0] > math.sqrt(radius**2 - side**2)
        assert kernel_pairs(points, radius, 0) == brute_pairs(points, radius)
        assert brute_pairs(points, radius).keys() == {(1, 2)}

    @pytest.mark.parametrize("d,separation", [(3, 1e6), (2, 1e9)])
    def test_far_apart_clusters(self, rng, ms_spec, d, separation):
        # cells are keyed by occupied coordinates, never by the bounding box
        points = np.vstack([rng.random((60, d)), rng.random((60, d)) + separation])
        assert kernel_pairs(points, 0.3).keys() == brute_pairs(points, 0.3).keys()
        u = rng.random(120)
        g = brute_force_graph(PointCloud(points=points), small_config(eps=0.1, k_max=120))
        assert sampled_energy(points, u, ms_spec, 0.1) == pytest.approx(
            gms_energy(g, u, ms_spec), rel=1e-10
        )


class TestConstantBlockSkip:
    """Trimming constant runs leaves the energy equal to the brute-force oracle, whatever the sweep axis."""

    @settings(max_examples=150, deadline=None)
    @given(
        piecewise_constant(),
        st.sampled_from(["ms_arctan", "capped_linear", "quadratic", "tv_smoothed"]),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([64, continuum._BLOCK_CANDIDATES]),
    )
    def test_matches_graph_energy(self, case, kind, q, block):
        points, radius, u = case
        spec = ZetaSpec(kind, delta=0.01) if kind == "tv_smoothed" else ZetaSpec(kind)
        n = len(u)
        config = small_config(eps=radius, k_max=n, sigma=1.0, cutoff_multiplier=1.0)
        graph = brute_force_graph(PointCloud(points=points), config)
        stats = {}
        # small chunks split a row's sweep, so a trim can fall inside a chunk
        with patch.object(continuum, "_BLOCK_CANDIDATES", block):
            try:
                oracle = gms_energy(graph, u, spec, q=q)
            except SingularityError:
                with pytest.raises(SingularityError):
                    sampled_energy(points, u, spec, radius, q=q, cutoff_multiplier=1.0)
                return
            streamed = sampled_energy(points, u, spec, radius, q=q, cutoff_multiplier=1.0, stats=stats)
        assert math.isclose(streamed, oracle, rel_tol=1e-12, abs_tol=0.0)
        if q > 0 or kind == "tv_smoothed":
            assert stats["skipped"] == 0


class TestGammaExperiment:
    def test_structure_and_determinism(self, ms_spec):
        rows = gamma_experiment(SmoothCase(), [300, 600], ms_spec, seed=5)
        assert [r["n"] for r in rows] == [300, 600]
        for r in rows:
            assert r["ratio"] == pytest.approx(r["discrete"] / r["continuum"])
            assert r["eps"] == pytest.approx(0.7 * r["n"] ** -0.25)
        again = gamma_experiment(SmoothCase(), [300, 600], ms_spec, seed=5)
        assert [r["discrete"] for r in rows] == [r["discrete"] for r in again]

    def test_ratio_roughly_near_one_smooth(self, ms_spec):
        # coarse desk-scale check; the acceptance suite runs the full grid
        rows = gamma_experiment(SmoothCase(), [4000], ms_spec, seed=0)
        assert 0.5 < rows[0]["ratio"] < 1.5

    def test_ratio_roughly_near_one_step(self, ms_spec):
        rows = gamma_experiment(StepCase(), [4000], ms_spec, seed=0)
        assert 0.5 < rows[0]["ratio"] < 1.5

    def test_bad_n_rejected(self, ms_spec):
        with pytest.raises(ValidationError):
            gamma_experiment(SmoothCase(), [0], ms_spec)

    @pytest.mark.parametrize("case", [StepCase(low=0.5, high=0.5), SmoothCase(amplitude=0.0)])
    def test_zero_limit_rejected(self, ms_spec, case):
        with pytest.raises(ValidationError, match="continuum limit of .* is 0"):
            gamma_experiment(case, [50], ms_spec)


class TestNoiseOffset:
    def test_zero_offset_variance(self):
        res = noise_offset_experiment(NoisyFidelityCase(offset=0.0, half_width=1.0), n=2000, trials=50, seed=1)
        assert res["expected"] == pytest.approx(1.0 / 3.0)
        assert abs(res["estimate"] - 1.0 / 3.0) <= 3.0 * res["std_error"]

    def test_no_noise_exact(self):
        res = noise_offset_experiment(NoisyFidelityCase(offset=0.7, half_width=0.0), n=100, trials=3, seed=0)
        assert res["estimate"] == pytest.approx(0.49, rel=1e-12)

    def test_constant_offset(self):
        res = noise_offset_experiment(NoisyFidelityCase(offset=0.5, half_width=1.0), n=5000, trials=40, seed=2)
        assert res["expected"] == pytest.approx(0.25 + 1.0 / 3.0)
        assert abs(res["estimate"] - res["expected"]) <= 3.0 * res["std_error"]

    def test_unbounded_noise_rejected(self):
        with pytest.raises(ValidationError):
            NoisyFidelityCase(half_width=math.inf)
