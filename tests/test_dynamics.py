import warnings

import numpy as np
import pytest

from kurasteer import (
    CFLError,
    NumericsError,
    CircleGrid,
    ControlMode,
    ControlSet,
    CouplingParams,
    Field,
    ResolutionWarning,
    TimeGrid,
    Trajectory,
    solve_adjoint,
    solve_state,
    sync_series,
)
from kurasteer import dynamics
from kurasteer.coupling import adjoint_kernel_table, adjoint_values, interaction_coefficient_table, interaction_values
from kurasteer.dynamics import ROW_BLOCK, _adjoint_rate, _solve_states, _state_rate, first_non_finite
from kurasteer.grid import random_bandlimited, rfft
from kurasteer.outputs import write_field_file
from kurasteer.oracles import interaction_quadrature, rotating_wave
from kurasteer.scenarios import DensitySpec


def rate_values(grid, coefficients):
    """Sample values of a rate given by its rfft coefficients."""
    return np.fft.irfft(coefficients, n=grid.n_theta)


def state_rhs(grid, q, u1, u2, alpha, source):
    """rfft coefficients of the state's non-diffusive rate on the row q, with
    control rows u1, u2 and source (one-row histories, unit stage gains)."""
    rate = _state_rate(grid, alpha, u1[None], u2[None], source[None], ((-grid._ik_first, 1.0),), q.shape)
    out = np.empty(grid.n_theta // 2 + 1, dtype=np.complex128)
    rate(0, q, np.fft.rfft(q), 0, out)
    return out


def adjoint_rate(grid, dp, q, u1, u2, alpha, mismatch, alpha_r):
    """(rfft coefficients, sample values) of the adjoint's backward rate on the
    row dp = d/dtheta p, with state q, controls u1, u2 and mismatch q - z."""
    rate = _adjoint_rate(grid, alpha, q[None], (q - mismatch)[None], u1[None], u2[None], alpha_r, 1.0, (None,))
    out = np.empty(grid.n_theta // 2 + 1, dtype=np.complex128)
    values = rate(0, dp, None, 0, out)
    return out, values


def gaussian_q0(grid, mean=np.pi / 2, sigma=0.8):
    return DensitySpec(kind="wrapped_gaussian", mean=mean, sigma=sigma).build(grid)


class TestTimeGrid:
    def test_spacing(self):
        tg = TimeGrid(10.0, 2000)
        assert tg.dt == pytest.approx(0.005)
        assert tg.times[-1] == pytest.approx(10.0)
        assert tg.trapezoid_weights.sum() == pytest.approx(10.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)


class TestTrajectory:
    def test_shape_validation(self, grid):
        tg = TimeGrid(1.0, 10)
        with pytest.raises(ValueError):
            Trajectory(grid, tg, np.zeros((5, grid.n_theta)))

    def test_from_field_replicates(self, grid):
        tg = TimeGrid(1.0, 4)
        f = Field.constant(grid, 2.0)
        traj = Trajectory.from_field(f, tg)
        assert traj.data.shape == (5, grid.n_theta)
        assert np.all(traj.data == 2.0)

    def test_immutable(self, grid):
        traj = Trajectory.constant(grid, TimeGrid(1.0, 3), 0.0)
        with pytest.raises(ValueError):
            traj.data[0, 0] = 1.0

    def test_writeable_input_copied_read_only_input_adopted(self, grid):
        tg = TimeGrid(1.0, 3)
        mine = np.ones((4, grid.n_theta))
        traj = Trajectory(grid, tg, mine)
        mine[0, 0] = 5.0
        assert np.all(traj.data == 1.0)
        assert not traj.data.flags.writeable
        handed = np.ones((4, grid.n_theta))
        handed.setflags(write=False)
        assert Trajectory(grid, tg, handed).data is handed
        # read-only but not float64: converted, hence copied
        ints = np.ones((4, grid.n_theta), dtype=np.int64)
        ints.setflags(write=False)
        converted = Trajectory(grid, tg, ints).data
        assert converted.dtype == np.float64 and not np.shares_memory(converted, ints)

    def test_read_only_history_with_nan_in_last_row_rejected(self, grid, rng):
        tg = TimeGrid(10.0, 2000)
        data = rng.random((tg.n_t + 1, grid.n_theta))
        data[-1, 7] = np.nan
        data.setflags(write=False)
        with pytest.raises(ValueError, match="must all be finite"):
            Trajectory(grid, tg, data)

    def test_adopting_a_read_only_history_allocates_no_mask(self, grid, rng, traced_peak):
        # row sums only; a boolean mask of the history would be 1/8 of it
        tg = TimeGrid(10.0, 2000)
        data = rng.random((tg.n_t + 1, grid.n_theta))
        data.setflags(write=False)
        peak = traced_peak(lambda: Trajectory(grid, tg, data))
        assert peak < 0.05 * data.nbytes

    def test_from_field_is_one_row_written_as_the_tiled_history(self, grid, rng, tmp_path):
        tg = TimeGrid(1.0, 6)
        field = random_bandlimited(grid, rng)
        target = Trajectory.from_field(field, tg)
        assert np.shares_memory(target.data, field.values)
        tiled = np.tile(field.values, (tg.n_t + 1, 1))
        write_field_file(tmp_path / "view.f64", target, "target", "1/rad")
        write_field_file(tmp_path / "tiled.f64", Trajectory(grid, tg, tiled), "target", "1/rad")
        assert (tmp_path / "view.f64").read_bytes() == (tmp_path / "tiled.f64").read_bytes()
        assert (tmp_path / "view.f64").read_bytes() == tiled.astype("<f8").tobytes()


class TestStateRhs:
    def test_uniform_state_stationary(self, grid, params):
        q = np.full(grid.n_theta, 1 / (2 * np.pi))
        u1 = np.full(grid.n_theta, 0.7)
        u2 = np.full(grid.n_theta, params.K)
        rhs = rate_values(grid, state_rhs(grid, q, u1, u2, params.alpha, np.zeros(grid.n_theta)))
        assert np.max(np.abs(rhs)) <= 1e-12

    def test_pure_source(self, grid, params):
        q = np.full(grid.n_theta, 1 / (2 * np.pi))
        zero = np.zeros(grid.n_theta)
        src = np.sin(2 * grid.theta)
        rhs = rate_values(grid, state_rhs(grid, q, zero, zero, params.alpha, src))
        assert np.max(np.abs(rhs - src)) <= 1e-14

    def test_matches_quadrature_oracle(self, grid, params, cosine_density):
        # -(d/dtheta)(w[q] q) with w from the O(n^2) oracle and spectral derivative
        q = cosine_density
        zero = np.zeros(grid.n_theta)
        rhs = rate_values(grid, state_rhs(grid, q.values, zero, np.ones(grid.n_theta), params.alpha, zero))
        w_oracle = interaction_quadrature(grid, q.values, params.alpha)
        expected = -grid.deriv(w_oracle * q.values)
        assert np.max(np.abs(rhs - expected)) <= 1e-10

    def test_grid_mismatch(self, grid, params):
        # a control row sampled on another grid cannot combine with the state
        other = CircleGrid(64)
        with pytest.raises(ValueError):
            state_rhs(
                grid,
                np.ones(grid.n_theta),
                np.zeros(other.n_theta),
                np.ones(grid.n_theta),
                params.alpha,
                np.zeros(grid.n_theta),
            )


class TestSolveState:
    def test_heat_equation_exact(self, grid, cosine_density):
        # u1 = u2 = 0: only diffusion acts, handled by the exact propagator
        params = CouplingParams(D=0.25, K=1.0)
        tg = TimeGrid(1.0, 200)
        controls = ControlSet(u2=Trajectory.constant(grid, tg, 0.0))
        traj = solve_state(cosine_density, controls, params, tg)
        exact = (1 + np.exp(-0.25) * np.cos(grid.theta)) / (2 * np.pi)
        assert np.max(np.abs(traj.data[-1] - exact)) <= 1e-8

    def test_second_order_in_time_with_transport(self, grid, params):
        q0 = gaussian_q0(grid)
        ref = solve_state(q0, ControlSet(), params, TimeGrid(1.0, 6400)).data[-1]
        errs = []
        for n_t in (200, 400):
            sol = solve_state(q0, ControlSet(), params, TimeGrid(1.0, n_t)).data[-1]
            errs.append(np.max(np.abs(sol - ref)))
        assert errs[0] / errs[1] >= 3.5

    def test_mass_conserved_random_controls(self, grid, params, rng):
        tg = TimeGrid(1.0, 400)
        u1 = np.outer(np.ones(tg.n_t + 1), 0.5 * np.sin(grid.theta))
        u2 = np.full((tg.n_t + 1, grid.n_theta), params.K)
        u2 += 0.3 * np.cos(grid.theta)[None, :]
        controls = ControlSet(u1=Trajectory(grid, tg, u1), u2=Trajectory(grid, tg, u2))
        traj = solve_state(gaussian_q0(grid), controls, params, tg)
        assert np.max(np.abs(traj.mass() - 1.0)) <= 1e-10

    def test_transport_bound_along_solve(self, grid, params):
        tg = TimeGrid(10.0, 2000)
        traj = solve_state(gaussian_q0(grid), ControlSet(), params, tg)
        for k in range(0, tg.n_t + 1, 50):
            w = interaction_values(grid, traj.data[k], params.alpha)
            assert np.max(np.abs(w)) <= 1.0 + 1e-6

    def test_approximate_positivity_default_resolution(self, grid, params):
        traj = solve_state(gaussian_q0(grid), ControlSet(), params, TimeGrid(10.0, 2000))
        assert traj.data.min() >= -1e-6

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_uncontrolled_reaches_fixed_point(self, grid, alpha):
        params = CouplingParams(alpha=alpha, D=0.25, K=1.0)
        traj = solve_state(gaussian_q0(grid), ControlSet(), params, TimeGrid(40.0, 2000))
        _, R, _, _ = sync_series(traj)
        R_star = rotating_wave(params).R_star
        assert abs(R[-1] - R_star) / R_star <= 0.02
        # nondecreasing after the initial transient
        tail = R[len(R) // 4 :]
        assert np.all(np.diff(tail) >= -1e-7)

    def test_cfl_violation_rejected(self, grid, params):
        tg = TimeGrid(10.0, 100)  # dt = 0.1 >> CFL limit for speed ~1
        with pytest.raises(CFLError, match="need dt <="):
            solve_state(gaussian_q0(grid), ControlSet(), params, tg)

    def test_unnormalized_q0_rejected(self, grid, params):
        with pytest.raises(ValueError, match="integrate to 1"):
            solve_state(Field.constant(grid, 1.0), ControlSet(), params, TimeGrid(1.0, 200))

    def test_negative_q0_rejected(self, grid, params):
        q0 = Field(grid, 1 / (2 * np.pi) + 0.5 * np.cos(grid.theta))  # unit mass, negative near pi
        with pytest.raises(ValueError, match="q0 must be nonnegative"):
            solve_state(q0, ControlSet(), params, TimeGrid(1.0, 200))

    @pytest.mark.parametrize("n_theta, n_t", [(64, 200), (128, 100)], ids=["theta", "time"])
    def test_off_grid_control_rejected(self, grid, params, n_theta, n_t):
        u1 = Trajectory.constant(CircleGrid(n_theta), TimeGrid(1.0, n_t), 0.0)
        with pytest.raises(ValueError, match="control 'u1' is not on the solver grid"):
            solve_state(gaussian_q0(grid), ControlSet(u1=u1), params, TimeGrid(1.0, 200))

    def test_source_injects_mass(self, grid, params):
        # linear-source mode: a nonzero-mean source changes the total mass
        tg = TimeGrid(1.0, 200)
        src = Trajectory.constant(grid, tg, 0.1 / (2 * np.pi))
        traj = solve_state(gaussian_q0(grid), ControlSet(source=src), params, tg)
        assert grid.quad(traj.data[tg.n_t]) == pytest.approx(1.1, abs=1e-6)

    def test_allocates_one_history(self, coarse_grid, params, traced_peak):
        # the stepped rows, adopted by the Trajectory without a copy, plus
        # row-sized buffers
        tgrid = TimeGrid(4.0, 800)
        q0 = gaussian_q0(coarse_grid)
        u1 = Trajectory.constant(coarse_grid, tgrid, 0.1)
        history = (tgrid.n_t + 1) * coarse_grid.n_theta * 8
        peak = traced_peak(lambda: solve_state(q0, ControlSet(u1=u1), params, tgrid))
        assert peak <= 1.2 * history

    def test_negativity_warning_names_the_caller(self, coarse_grid, params):
        tg = TimeGrid(0.5, 50)
        sink = Trajectory.constant(coarse_grid, tg, -0.5)
        with pytest.warns(ResolutionWarning, match="state density reached min") as record:
            solve_state(gaussian_q0(coarse_grid), ControlSet(source=sink), params, tg)
        assert [w.filename for w in record] == [__file__]


class TestAdjoint:
    def test_constant_p_leaves_only_mismatch(self, grid, params):
        p = np.full(grid.n_theta, 4.2)
        q = np.full(grid.n_theta, 1 / (2 * np.pi))
        u1 = np.full(grid.n_theta, 0.3)
        u2 = np.ones(grid.n_theta)
        mismatch = np.cos(grid.theta)
        out_hat, out = adjoint_rate(grid, grid.deriv(p), q, u1, u2, params.alpha, mismatch, alpha_r=2.0)
        assert np.max(np.abs(out - 2.0 * mismatch)) <= 1e-12
        assert np.max(np.abs(rate_values(grid, out_hat) - out)) <= 1e-12

    def test_zero_everywhere(self, grid, params):
        zero = np.zeros(grid.n_theta)
        out_hat, out = adjoint_rate(grid, zero, zero, zero, zero, params.alpha, zero, alpha_r=1.0)
        assert np.max(np.abs(out)) <= 1e-15
        assert np.max(np.abs(out_hat)) <= 1e-15

    def test_duality_spot_check(self, grid, params, rng):
        # <w*[u2 p' q], psi> == <w[psi], u2 p' q> for random band-limited fields
        p = random_bandlimited(grid, rng)
        q = random_bandlimited(grid, rng)
        psi = random_bandlimited(grid, rng)
        u2 = 1.0 + 0.5 * np.cos(grid.theta)
        inner_arg = u2 * grid.deriv(p.values) * q.values
        lhs = grid.quad(adjoint_values(grid, inner_arg, params.alpha) * psi.values)
        rhs = grid.quad(interaction_values(grid, psi.values, params.alpha) * inner_arg)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))

    def test_off_grid_target_rejected(self, grid, params):
        q_traj = solve_state(gaussian_q0(grid), ControlSet(), params, TimeGrid(1.0, 200))
        z_traj = Trajectory.constant(grid, TimeGrid(1.0, 100), 0.0)
        with pytest.raises(ValueError, match="target trajectory is not on the state grid"):
            solve_adjoint(q_traj, z_traj, ControlSet(), params, (1.0, 10.0))

    def test_target_equals_state_gives_zero_adjoint(self, grid, params):
        tg = TimeGrid(1.0, 200)
        q_traj = solve_state(gaussian_q0(grid), ControlSet(), params, tg)
        p_traj = solve_adjoint(q_traj, q_traj, ControlSet(), params, (1.0, 10.0))
        assert np.max(np.abs(p_traj.data)) == 0.0

    def test_backward_heat_decay(self, grid):
        # alpha_r = 0, u1 = u2 = 0: p solves the heat equation backward in time
        params = CouplingParams(D=0.25, K=1.0)
        tg = TimeGrid(1.0, 200)
        q_traj = Trajectory.from_field(Field.constant(grid, 1 / (2 * np.pi)), tg)
        z_data = q_traj.data.copy()
        z_data[-1] = z_data[-1] - np.cos(grid.theta)  # terminal mismatch = cos
        z_traj = Trajectory(grid, tg, z_data)
        controls = ControlSet(u2=Trajectory.constant(grid, tg, 0.0))
        p = solve_adjoint(q_traj, z_traj, controls, params, (0.0, 1.0))
        exact0 = np.exp(-0.25) * np.cos(grid.theta)
        assert np.max(np.abs(p.data[0] - exact0)) <= 1e-10

    def test_linear_source_specialization(self, grid, params, rng):
        # with u2 = K = 1 and zero lag the adjoint kernel flips sign, so the
        # general backward rate reduces to w[q] p' - w[q p'] + mismatch
        p = random_bandlimited(grid, rng).values
        q = random_bandlimited(grid, rng).values
        mis = random_bandlimited(grid, rng).values
        ones = np.ones(grid.n_theta)
        dp = grid.deriv(p)
        _, general = adjoint_rate(grid, dp, q, 0.0 * ones, ones, 0.0, mis, 1.0)
        reduced = (
            interaction_values(grid, q, 0.0) * dp
            - interaction_values(grid, q * dp, 0.0)
            + mis
        )
        assert np.max(np.abs(general - reduced)) <= 1e-12


def whole_history_adjoint_rate(grid, alpha, q, z, u1, u2, alpha_r, scale, gains):
    """The adjoint rate with its speed, carried density and forcing made once
    for the whole history, as they were before they were made by blocks."""
    speed = interaction_values(grid, q, alpha)
    speed *= u2
    speed += u1
    speed *= scale
    carried = u2 * q
    basis = grid.moment_basis
    lagged = (scale * grid.d_theta) * adjoint_kernel_table(grid, alpha)
    forcing = None
    if alpha_r != 0.0:
        forcing = q - z
        forcing *= scale * alpha_r
    g, r = np.empty((2, grid.n_theta))

    def rate(m, dp, c, stage, out):
        np.multiply(carried[m], dp, out=g)
        np.multiply(speed[m], dp, out=r)
        np.add(r, np.vecdot(g, basis) @ lagged, out=r)
        if forcing is not None:
            np.add(r, forcing[m], out=r)
        rfft(r, out)
        gain = gains[stage]
        if gain is not None:
            np.multiply(gain, out, out=out)
        return r

    return rate


class TestAdjointRowBlocks:
    """solve_adjoint makes the adjoint rate's speed, carried density and
    forcing one block of ROW_BLOCK rows at a time; the adjoint must equal the
    one from whole-history terms bit for bit, for row counts below, at and
    straddling the block, at a phase lag."""

    @pytest.mark.parametrize("n_rows", [101, ROW_BLOCK, ROW_BLOCK + 1, 601])
    @pytest.mark.parametrize("u2_history", [False, True], ids=["absent_u2", "u2_history"])
    def test_matches_whole_history_terms(self, n_rows, u2_history, monkeypatch):
        grid, tg = CircleGrid(16), TimeGrid(1.0, n_rows - 1)
        params = CouplingParams(alpha=0.5, D=0.25, K=1.0)
        rng = np.random.default_rng(n_rows)
        shape = (n_rows, grid.n_theta)
        controls = {"u1": Trajectory(grid, tg, 0.3 * rng.standard_normal(shape))}
        if u2_history:
            controls["u2"] = Trajectory(grid, tg, 1.0 + 0.2 * rng.standard_normal(shape))
        controls = ControlSet(**controls)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)  # rough controls may dip negative
            q = solve_state(gaussian_q0(grid), controls, params, tg)
        z = Trajectory.from_field(gaussian_q0(grid, mean=3 * np.pi / 2, sigma=0.4), tg)
        blocked = solve_adjoint(q, z, controls, params, (0.7, 10.0))
        monkeypatch.setattr(dynamics, "_adjoint_rate", whole_history_adjoint_rate)
        whole = solve_adjoint(q, z, controls, params, (0.7, 10.0))
        assert np.array_equal(blocked.data, whole.data)


def reference_state(q0, u1, u2, source, params, tg):
    """The state by a plain-numpy Lawson-Heun: np.fft transforms and a fresh
    temporary for every expression, in the solver's order of operations.
    u1, u2 and source are histories or None; an absent u2 is the scalar K,
    folded into the coupling table as solve_state folds it."""
    grid, n, dt = q0.grid, q0.grid.n_theta, tg.dt
    prop = grid.heat_multiplier(params.D, dt)
    slope = -grid._ik_first
    gains = ((dt * prop * slope, dt * prop), (0.5 * dt * slope, 0.5 * dt))
    table = interaction_coefficient_table(grid, params.alpha, params.K if u2 is None else 1.0)

    def rate(k, q, q_hat, stage):
        speed = (q_hat[1:2] * table).real
        if u2 is not None:
            speed = speed * u2[k]
        if u1 is not None:
            speed = speed + u1[k]
        flux_gain, source_gain = gains[stage]
        if source is None:
            return flux_gain * np.fft.rfft(speed * q)
        flux_hat = np.fft.rfft(np.stack((speed * q, source[k])))
        return flux_gain * flux_hat[0] + source_gain * flux_hat[1]

    y = q0.values
    y_hat = np.fft.rfft(y)
    rows = [y]
    for a in range(tg.n_t):
        p_y = prop * y_hat
        pred = p_y + rate(a, y, y_hat, 0)
        half = 0.5 * (p_y + pred)
        y_hat = half + rate(a + 1, np.fft.irfft(pred, n), pred, 1)
        y = np.fft.irfft(y_hat, n)
        rows.append(y)
    return np.array(rows)


def reference_adjoint(q, z, u1, u2, params, weights, tg):
    """The adjoint by the plain-numpy mirror of reference_state in reversed
    time, with its rate's terms made for the whole history; u1 and u2 are
    histories (an absent control is its baseline's)."""
    grid, n, dt = q.grid, q.grid.n_theta, tg.dt
    alpha_r, alpha_t = weights
    prop = grid.heat_multiplier(params.D, dt)
    lift = grid._ik_first
    scale = 0.5 * dt
    qd, zd = q.data, z.data
    speed = (interaction_values(grid, qd, params.alpha) * u2 + u1) * scale
    carried = u2 * qd
    forcing = (qd - zd) * (scale * alpha_r)
    lagged = (scale * grid.d_theta) * adjoint_kernel_table(grid, params.alpha)
    gain = 2.0 * prop

    def rate(m, dp, stage):
        r = speed[m] * dp + np.vecdot(carried[m] * dp, grid.moment_basis) @ lagged + forcing[m]
        r_hat = np.fft.rfft(r)
        return (gain * r_hat if stage == 0 else r_hat), r

    rows = np.empty_like(qd)
    rows[-1] = alpha_t * (qd[-1] - zd[-1])
    y_hat = np.fft.rfft(rows[-1])
    for a in range(tg.n_t, 0, -1):
        p_y = prop * y_hat
        pred = p_y + rate(a, np.fft.irfft(lift * y_hat, n), 0)[0]
        half = (p_y + pred) * 0.5
        x, h = np.fft.irfft(np.stack((lift * pred, half)), n)
        inc_hat, inc = rate(a - 1, x, 1)
        y_hat = half + inc_hat
        rows[a - 1] = h + inc
    return rows


class TestStepperReference:
    """solve_state and solve_adjoint step in buffers made once per solve,
    through transforms bound once per solve; their histories must equal the
    plain-numpy Lawson-Heun above byte for byte."""

    @pytest.mark.parametrize("name, offset, scale", [("u1", 0.0, 0.3), ("u2", 1.3, 0.2), ("source", 0.0, 0.05)])
    def test_matches_plain_numpy_stepper(self, name, offset, scale):
        grid, tg = CircleGrid(32), TimeGrid(1.0, 60)
        params = CouplingParams(alpha=0.5, D=0.25, K=1.3)
        ramp = np.cos(np.pi * tg.times / tg.T)[:, None]
        bump = random_bandlimited(grid, np.random.default_rng(7), k_max=4).values
        controls = ControlSet(**{name: Trajectory(grid, tg, offset + scale * ramp * bump)})
        q0 = gaussian_q0(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)  # rough controls may dip negative
            q = solve_state(q0, controls, params, tg)
        u1, u2, src = (None if controls.get(name) is None else controls.get(name).data for name in ("u1", "u2", "source"))
        assert q.data.tobytes() == reference_state(q0, u1, u2, src, params, tg).tobytes()

        z = Trajectory.from_field(gaussian_q0(grid, mean=3 * np.pi / 2, sigma=0.4), tg)
        p = solve_adjoint(q, z, controls, params, (0.7, 10.0))
        u1, u2 = (controls.array(name, grid, tg, params) for name in ("u1", "u2"))
        assert p.data.tobytes() == reference_adjoint(q, z, u1, u2, params, (0.7, 10.0), tg).tobytes()


class TestBatchedStepper:
    """The rfft-space stepper on a stack of control histories."""

    @staticmethod
    def stacked_controls(grid, tg, rng, n_probes):
        """u1, u2 and source stacks of smooth space-time histories."""
        ramp = np.cos(np.pi * tg.times / tg.T)[:, None]

        def history(scale, offset=0.0):
            return offset + scale * ramp * random_bandlimited(grid, rng, k_max=4).values[None, :]

        return {
            "u1": np.stack([history(0.3) for _ in range(n_probes)]),
            "u2": np.stack([history(0.2, 1.0) for _ in range(n_probes)]),
            "source": np.stack([history(0.05) for _ in range(n_probes)]),
        }

    def test_batch_matches_single_solves(self, coarse_grid, rng):
        grid, tg = coarse_grid, TimeGrid(1.0, 200)
        params = CouplingParams(alpha=0.5, D=0.25, K=1.0)
        q0 = gaussian_q0(grid)
        controls = self.stacked_controls(grid, tg, rng, 4)
        batch = _solve_states(q0, controls, params, tg)
        assert batch.shape == (4, tg.n_t + 1, grid.n_theta)
        for i in range(4):
            cs = ControlSet(**{n: Trajectory(grid, tg, arr[i]) for n, arr in controls.items()})
            # each single solve dips to -1.3e-3 .. -1.5e-2, and solve_state says so
            with pytest.warns(ResolutionWarning, match=r"^state density reached min -\d\.\d{3}e-0[23]; increase"):
                single = solve_state(q0, cs, params, tg).data
            assert np.max(np.abs(batch[i] - single)) <= 1e-13
            assert np.array_equal(batch[i, 0], q0.values)

    def test_batch_rows_bit_equal_to_single_solves(self, rng):
        # the batched finite differences of gradient_check rely on this
        grid, tg = CircleGrid(32), TimeGrid(1.0, 100)
        params = CouplingParams(alpha=0.5, D=0.25, K=1.0)
        q0 = gaussian_q0(grid)
        controls = self.stacked_controls(grid, tg, rng, 4)
        batch = _solve_states(q0, controls, params, tg)
        for i in range(4):
            single = _solve_states(q0, {n: arr[i] for n, arr in controls.items()}, params, tg)
            assert np.array_equal(batch[i], single)

    @pytest.mark.parametrize("names", [("u1", "u2", "source"), ("u2",)])
    def test_streamed_rows_bit_equal_to_the_stored_stack(self, rng, names):
        # with `fill`, no state is stored: each row goes to `consume` while
        # the control buffers hold that row of every history
        grid, tg = CircleGrid(32), TimeGrid(1.0, 100)
        params = CouplingParams(alpha=0.5, D=0.25, K=1.0)
        q0 = gaussian_q0(grid)
        stacks = {n: arr.reshape(2, 2, *arr.shape[1:]) for n, arr in self.stacked_controls(grid, tg, rng, 4).items()
                  if n in names}
        stored = _solve_states(q0, stacks, params, tg)
        rows = {n: np.empty((2, 2, grid.n_theta)) for n in stacks}

        def fill(k):
            for n, row in rows.items():
                row[...] = stacks[n][..., k, :]

        seen = []

        def consume(k, q):
            assert all(np.array_equal(row, stacks[n][..., k, :]) for n, row in rows.items())
            assert np.array_equal(q, stored[..., k, :])
            seen.append(k)
            return True

        assert _solve_states(q0, rows, params, tg, fill=fill, consume=consume) is None
        assert seen == list(range(tg.n_t + 1))

    def test_one_cfl_violating_probe_rejects_the_batch(self, coarse_grid, rng):
        grid, tg = coarse_grid, TimeGrid(1.0, 200)
        controls = self.stacked_controls(grid, tg, rng, 3)
        controls["u1"][1] *= 200.0
        with pytest.raises(CFLError, match="need dt <="):
            _solve_states(gaussian_q0(grid), controls, CouplingParams(), tg)

    def test_non_finite_probe_raises(self, coarse_grid, rng):
        grid, tg = coarse_grid, TimeGrid(1.0, 200)
        controls = self.stacked_controls(grid, tg, rng, 3)
        controls["source"][2, 5, 7] = np.inf  # first used by the stage-2 rate of step 5
        with pytest.raises(NumericsError, match="state became non-finite at step 5"), np.errstate(invalid="ignore"):
            _solve_states(gaussian_q0(grid), controls, CouplingParams(), tg)

    def test_non_finite_single_history_names_its_step(self, coarse_grid):
        grid, tg = coarse_grid, TimeGrid(1.0, 200)
        source = np.full((tg.n_t + 1, grid.n_theta), 0.01)
        source[40, 7] = np.inf  # first used by the stage-2 rate of step 40
        with pytest.raises(NumericsError, match=r"state became non-finite at step 40 \(t=0.2\)"), np.errstate(
            invalid="ignore"
        ):
            _solve_states(gaussian_q0(grid), {"source": source}, CouplingParams(), tg)

    def test_non_finite_adjoint_names_its_step_in_reversed_order(self):
        # solve_adjoint checks no CFL limit: a huge finite u1 row overflows it
        grid, tg, params = CircleGrid(32), TimeGrid(1.0, 200), CouplingParams()
        u1 = np.full((tg.n_t + 1, grid.n_theta), 0.2)
        u1[120] = 1e300
        q = solve_state(gaussian_q0(grid), ControlSet(), params, tg)
        z = Trajectory.from_field(gaussian_q0(grid, mean=3 * np.pi / 2, sigma=0.4), tg)
        controls = ControlSet(u1=Trajectory(grid, tg, u1))
        with pytest.raises(NumericsError, match=r"adjoint became non-finite at step 119 \(t=0.595\)"), np.errstate(
            over="ignore", invalid="ignore"
        ):
            solve_adjoint(q, z, controls, params, (1.0, 10.0))

    def test_first_non_finite_screens_row_sums_exactly(self):
        data = np.zeros((2, 6, 8))
        data[:, 2] = 1e308  # finite rows whose sums overflow
        data[1, 4] = -1e308
        assert first_non_finite(data, range(6)) is None
        assert first_non_finite(data[0], range(5, -1, -1)) is None
        data[0, 1, 3] = np.nan
        data[1, 4, 0] = np.inf
        assert first_non_finite(data, range(6)) == 1
        assert first_non_finite(data, range(5, -1, -1)) == 4
        assert first_non_finite(data[1], range(6)) == 4
        assert first_non_finite(data, range(2, 6)) == 4

    @pytest.mark.parametrize("with_source", [False, True])
    def test_four_fft_calls_per_step(self, coarse_grid, monkeypatch, with_source):
        grid, tg, params = coarse_grid, TimeGrid(1.0, 200), CouplingParams()
        src = Trajectory.constant(grid, tg, 0.01) if with_source else None
        controls = ControlSet(u1=Trajectory.constant(grid, tg, 0.2), source=src)
        z = Trajectory.from_field(gaussian_q0(grid, mean=3 * np.pi / 2, sigma=0.4), tg)
        # every transform, bound once per solve or made through the package's
        # helpers, is a call of a pocketfft gufunc; none goes through np.fft
        pocketfft = np.fft._pocketfft_umath
        calls = {
            **{(pocketfft, name): 0 for name in ("rfft_n_even", "irfft")},
            **{(np.fft, name): 0 for name in ("rfft", "irfft")},
        }
        for module, name in calls:
            original = getattr(module, name)

            def counted(*args, _key=(module, name), _original=original, **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        def counts():
            transforms = calls[pocketfft, "rfft_n_even"] + calls[pocketfft, "irfft"]
            public = calls[np.fft, "rfft"] + calls[np.fft, "irfft"]
            calls.update(dict.fromkeys(calls, 0))
            return transforms, public

        q = solve_state(gaussian_q0(grid), controls, params, tg)
        assert counts() == (4 * tg.n_t + 1, 0)
        solve_adjoint(q, z, controls, params, (1.0, 10.0))
        assert counts() == (4 * tg.n_t + 1, 0)
        # a streamed solve of D directions x 2 steps, as gradient_check makes
        # it, transforms all of its probes together, whatever D is
        given = {n: controls.array(n, grid, tg, params) for n in ("u1", "source") if controls.get(n) is not None}
        for n_dirs in (1, 3):
            rows = {n: np.empty((n_dirs, 2, grid.n_theta)) for n in given}

            def fill(k):
                for n, row in rows.items():
                    row[...] = given[n][k]

            rows_seen = []
            _solve_states(gaussian_q0(grid), rows, params, tg, fill=fill, consume=lambda k, y: rows_seen.append(k) or True)
            assert counts() == (4 * tg.n_t + 1, 0)
            assert rows_seen == list(range(tg.n_t + 1))


class TestScalarBaselines:
    """A control left out of the ControlSet stays a scalar baseline inside the
    state solver only; the adjoint reads it as a view of its baseline row.
    Either way it must act as its explicit history (u1 = 0, u2 = K) does, and
    in the adjoint bit for bit."""

    @pytest.mark.parametrize("mode", [ControlMode.VELOCITY, ControlMode.INTERACTION, ControlMode.LINEAR_SOURCE])
    def test_absent_equals_explicit_baseline(self, coarse_grid, rng, mode):
        grid, tg = coarse_grid, TimeGrid(1.0, 200)
        params = CouplingParams(alpha=0.5, D=0.25, K=1.3)
        ramp = np.cos(np.pi * tg.times / tg.T)[:, None]
        offset = {"u1": 0.0, "u2": params.K, "source": 0.0}
        scale = {"u1": 0.2, "u2": 0.2, "source": 0.005}
        (name,) = mode.active_controls
        shape = random_bandlimited(grid, rng, k_max=4).values[None, :]
        given = {name: Trajectory(grid, tg, offset[name] + scale[name] * ramp * shape)}
        baselines = {n: Trajectory.constant(grid, tg, offset[n]) for n in ("u1", "u2") if n != name}
        absent, explicit = ControlSet(**given), ControlSet(**given, **baselines)
        q0 = gaussian_q0(grid)
        z = Trajectory.from_field(gaussian_q0(grid, mean=3 * np.pi / 2, sigma=0.4), tg)
        q_absent = solve_state(q0, absent, params, tg)
        q_explicit = solve_state(q0, explicit, params, tg)
        assert np.max(np.abs(q_absent.data - q_explicit.data)) <= 1e-14
        p_absent = solve_adjoint(q_absent, z, absent, params, (1.0, 10.0))
        p_explicit = solve_adjoint(q_absent, z, explicit, params, (1.0, 10.0))
        assert np.array_equal(p_absent.data, p_explicit.data)

    @pytest.mark.parametrize("name", ["u1", "u2", "source"])
    def test_absent_control_array_is_a_read_only_baseline_view(self, coarse_grid, params, name):
        tg = TimeGrid(1.0, 20)
        arr = ControlSet().array(name, coarse_grid, tg, params)
        baseline = params.K if name == "u2" else 0.0
        assert not arr.flags.writeable
        assert arr.dtype == np.float64
        assert np.array_equal(arr, np.full((tg.n_t + 1, coarse_grid.n_theta), baseline))
        assert arr.strides[0] == 0  # one row, repeated in time
