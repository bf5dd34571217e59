"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The reference scenario throughout is T = 10, D = 0.25, alpha = 0, K = 1 with
a wrapped-Gaussian initial density at pi/2 (sigma 0.8) steered to a
wrapped-Gaussian target at 3*pi/2 (sigma 0.4).
"""

import json
import time

import numpy as np
import pytest

from kurasteer import (
    CircleGrid,
    ControlMode,
    ControlSet,
    ControlShape,
    CostWeights,
    CouplingParams,
    OcpProblem,
    OptimizerConfig,
    TimeGrid,
    Trajectory,
    gradient_check,
    optimize,
    order_parameter,
    solve_state,
    stationary_density,
    stationary_fixed_point,
    sync_series,
)
from kurasteer.checks import check_nonlocal_equivalence, check_spectral_identities
from kurasteer.cli import main
from kurasteer.grid import random_bandlimited
from kurasteer.oracles import (
    ParticleEnsemble,
    moment_interaction_drift,
    pairwise_interaction_drift,
    simulate_particles,
)
from kurasteer.scenarios import DensitySpec


def verdict(num: int, ok: bool, budget: float, elapsed: float, detail: str) -> None:
    stamp = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"ACCEPTANCE {num:2d} {stamp}  [{elapsed:6.1f}s/{budget:.0f}s]  {detail}")
    assert ok, detail
    assert elapsed <= budget, f"runtime {elapsed:.1f}s exceeded budget {budget:.0f}s"


@pytest.fixture(scope="module")
def scenario():
    grid = CircleGrid(128)
    params = CouplingParams(alpha=0.0, D=0.25, K=1.0)
    q0 = DensitySpec(kind="wrapped_gaussian", mean=np.pi / 2, sigma=0.8).build(grid)
    target = DensitySpec(kind="wrapped_gaussian", mean=3 * np.pi / 2, sigma=0.4).build(grid)
    return grid, params, q0, target


@pytest.fixture(scope="module")
def baseline_run(scenario):
    grid, params, q0, target = scenario
    tgrid = TimeGrid(10.0, 2000)
    traj = solve_state(q0, ControlSet(), params, tgrid)
    return tgrid, traj


def crossing_time(times, R, threshold):
    hits = np.nonzero(R >= threshold)[0]
    return times[hits[0]] if hits.size else np.inf


def coarse_problem(mode, n_theta=64, n_t=200, T=1.0, initial=ControlSet()):
    grid = CircleGrid(n_theta)
    tgrid = TimeGrid(T, n_t)
    params = CouplingParams(alpha=0.0, D=0.25, K=1.0)
    q0 = DensitySpec(kind="wrapped_gaussian", mean=np.pi / 2, sigma=0.8).build(grid)
    zf = DensitySpec(kind="wrapped_gaussian", mean=3 * np.pi / 2, sigma=0.4).build(grid)
    return OcpProblem(
        grid=grid, tgrid=tgrid, params=params, mode=mode, shape=ControlShape.SPACE_TIME,
        weights=CostWeights(), optimizer=OptimizerConfig(), q0=q0,
        target=Trajectory.from_field(zf, tgrid), initial=initial,
    )


def test_criterion_01_spectral_identities():
    t0 = time.time()
    out = check_spectral_identities(seed=0, n_pairs=100, sizes=(16, 64, 128))
    verdict(
        1, out["passed"], 5.0, time.time() - t0,
        f"Green residual {out['max_green_residual']:.2e} <= 1e-10, "
        f"duality residual {out['max_duality_residual']:.2e} <= 1e-12",
    )


def test_criterion_02_nonlocal_operator_equivalence():
    t0 = time.time()
    out = check_nonlocal_equivalence(seed=1, n_fields=100, sizes=(16, 64, 128))
    verdict(
        2, out["passed"], 5.0, time.time() - t0,
        f"moment-identity vs O(n^2) quadrature residual {out['max_residual']:.2e} <= 1e-12",
    )


def test_criterion_03_transport_field_bound(scenario):
    grid, params, q0, _ = scenario
    t0 = time.time()
    tgrid = TimeGrid(10.0, 2000)
    # steady rotation plus an interaction modulation: a representative
    # controlled run at the reference parameters
    u1 = Trajectory(grid, tgrid, np.tile(0.5 * np.sin(grid.theta), (tgrid.n_t + 1, 1)))
    u2 = Trajectory(grid, tgrid, np.full((tgrid.n_t + 1, grid.n_theta), params.K)
                    + 0.3 * np.cos(grid.theta)[None, :])
    traj = solve_state(q0, ControlSet(u1=u1, u2=u2), params, tgrid)
    c_c = traj.data @ grid.cos_theta * grid.d_theta
    c_s = traj.data @ grid.sin_theta * grid.d_theta
    w_sup = float(np.max(np.hypot(c_c, c_s)))  # sup_theta |w[q]| equals R
    verdict(3, w_sup <= 1.0 + 1e-6, 30.0, time.time() - t0,
            f"max_t sup_theta |w[q]| = {w_sup:.8f} <= 1 + 1e-6")


def test_criterion_04_mass_conservation(scenario, baseline_run):
    grid, params, q0, target = scenario
    tgrid, baseline = baseline_run
    t0 = time.time()
    drift_sim = float(np.max(np.abs(baseline.mass() - 1.0)))
    # a short optimizer run: every internal solve re-verifies the per-step
    # mass guard built into solve_state, and the accepted state is checked here
    prob = OcpProblem(
        grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
        shape=ControlShape.SPACE_TIME, weights=CostWeights(),
        optimizer=OptimizerConfig(max_iters=3), q0=q0,
        target=Trajectory.from_field(target, tgrid),
    )
    res = optimize(prob)
    drift_opt = float(np.max(np.abs(res.state.mass() - 1.0)))
    ok = drift_sim <= 1e-8 and drift_opt <= 1e-8
    verdict(4, ok, 30.0, time.time() - t0,
            f"mass drift: simulate {drift_sim:.2e}, optimized state {drift_opt:.2e} <= 1e-8")


def test_criterion_05_heat_equation_exactness(scenario):
    from kurasteer import Field

    grid, _, _, _ = scenario
    t0 = time.time()
    params = CouplingParams(alpha=0.0, D=0.25, K=1.0)
    q0 = Field(grid, (1 + np.cos(grid.theta)) / (2 * np.pi))
    exact = (1 + np.exp(-0.25) * np.cos(grid.theta)) / (2 * np.pi)

    def heat_error(n_t):
        controls = ControlSet(u2=Trajectory.constant(grid, TimeGrid(1.0, n_t), 0.0))
        traj = solve_state(q0, controls, params, TimeGrid(1.0, n_t))
        return float(np.max(np.abs(traj.data[-1] - exact)))

    e200, e400 = heat_error(200), heat_error(400)

    # The diffusion propagator is exact per mode, so the pure heat test sits
    # at the roundoff floor and the dt-halving ratio is degenerate there; the
    # second-order claim is then demonstrated with transport switched on.
    if e200 > 1e-13:
        ratio_ok = e400 <= e200 / 3.5
        ratio_note = f"heat-error ratio {e200 / max(e400, 1e-300):.1f} >= 3.5"
    else:
        q0g = DensitySpec(kind="wrapped_gaussian", mean=np.pi / 2, sigma=0.8).build(grid)
        ref = solve_state(q0g, ControlSet(), params, TimeGrid(1.0, 6400)).data[-1]
        errs = [
            float(np.max(np.abs(solve_state(q0g, ControlSet(), params, TimeGrid(1.0, n)).data[-1] - ref)))
            for n in (200, 400)
        ]
        ratio = errs[0] / errs[1]
        ratio_ok = ratio >= 3.5
        ratio_note = f"heat test at roundoff ({e200:.1e}); transport-on ratio {ratio:.2f} >= 3.5"
    verdict(5, e200 <= 1e-8 and ratio_ok, 5.0, time.time() - t0,
            f"heat error (n_t=200) {e200:.2e} <= 1e-8; {ratio_note}")


def test_criterion_06_stationary_synchronization(scenario):
    grid, params, q0, _ = scenario
    t0 = time.time()
    traj = solve_state(q0, ControlSet(), params, TimeGrid(40.0, 2000))
    _, R, psi, _ = sync_series(traj)
    fp = stationary_fixed_point(params)
    rel = abs(R[-1] - fp.R_star) / fp.R_star
    q_star = stationary_density(grid, params, psi=psi[-1])
    l2 = float(np.sqrt(grid.quad((traj.data[-1] - q_star.values) ** 2)))
    ok = rel <= 0.02 and l2 <= 1e-2
    verdict(6, ok, 60.0, time.time() - t0,
            f"R(40)={R[-1]:.6f} vs R*={fp.R_star:.6f} (rel {rel:.2e} <= 2e-2); "
            f"profile L2 error {l2:.2e} <= 1e-2")


def test_criterion_07_adjoint_gradient_checks():
    t0 = time.time()
    details = []
    ok = True
    for mode in (ControlMode.VELOCITY, ControlMode.INTERACTION, ControlMode.LINEAR_SOURCE):
        rep200 = gradient_check(coarse_problem(mode, n_t=200), n_directions=5, seed=0)
        rep400 = gradient_check(coarse_problem(mode, n_t=400), n_directions=5, seed=0)
        floor200 = float(np.mean([d.min_rel_error for d in rep200.directions]))
        floor400 = float(np.mean([d.min_rel_error for d in rep400.directions]))
        mode_ok = rep200.passed and floor400 < floor200
        ok = ok and mode_ok
        details.append(f"{mode.value}: worst {max(d.min_rel_error for d in rep200.directions):.1e}, "
                       f"floor {floor200:.1e}->{floor400:.1e}")
    verdict(7, ok, 120.0, time.time() - t0, "; ".join(details))


@pytest.fixture(scope="module")
def velocity_result(scenario, baseline_run):
    grid, params, q0, target = scenario
    tgrid, _ = baseline_run
    prob = OcpProblem(
        grid=grid, tgrid=tgrid, params=params, mode=ControlMode.VELOCITY,
        shape=ControlShape.SPACE_TIME, weights=CostWeights(),
        optimizer=OptimizerConfig(max_iters=100), q0=q0,
        target=Trajectory.from_field(target, tgrid),
    )
    t0 = time.time()
    res = optimize(prob)
    return res, time.time() - t0


@pytest.mark.slow
def test_criterion_08_velocity_mode_end_to_end(scenario, baseline_run, velocity_result):
    grid, params, q0, target = scenario
    tgrid, baseline = baseline_run
    res, elapsed = velocity_result
    z = target.values
    err_base = float(grid.quad((baseline.data[-1] - z) ** 2))
    err_ctrl = float(grid.quad((res.state.data[-1] - z) ** 2))
    threshold = 0.9 * order_parameter(target).R
    tb, Rb, _, _ = sync_series(baseline)
    cross_base = crossing_time(tb, Rb, threshold)
    tc, Rc, _, _ = sync_series(res.state)
    cross_ctrl = crossing_time(tc, Rc, threshold)
    costs = [r.J for r in res.iterates]
    ok = (
        res.final.iteration <= 100
        and err_ctrl <= 0.5 * err_base
        and cross_ctrl < cross_base
        and all(b < a for a, b in zip(costs, costs[1:]))
    )
    verdict(8, ok, 600.0, elapsed,
            f"terminal error {err_ctrl:.2e} <= 50% of {err_base:.2e}; "
            f"R crosses {threshold:.3f} at t={cross_ctrl:.2f} < {cross_base:.2f}; "
            f"{len(costs) - 1} accepted steps, strictly decreasing")


@pytest.mark.slow
def test_criterion_09_interaction_mode_end_to_end(scenario, baseline_run):
    grid, params, q0, target = scenario
    tgrid, baseline = baseline_run
    # documented basin-exploration option: seeded band-limited perturbation of
    # the baseline interaction strength (the landscape is sensitive to the
    # initial control)
    rng = np.random.default_rng(1)
    bump = random_bandlimited(grid, rng, scale=0.3).values
    u2_init = Trajectory(
        grid, tgrid, np.full((tgrid.n_t + 1, grid.n_theta), params.K) + bump[None, :]
    )
    prob = OcpProblem(
        grid=grid, tgrid=tgrid, params=params, mode=ControlMode.INTERACTION,
        shape=ControlShape.SPACE_TIME, weights=CostWeights(),
        optimizer=OptimizerConfig(max_iters=200), q0=q0,
        target=Trajectory.from_field(target, tgrid), initial=ControlSet(u2=u2_init),
    )
    t0 = time.time()
    res = optimize(prob)
    elapsed = time.time() - t0
    z = target.values
    err_base = float(grid.quad((baseline.data[-1] - z) ** 2))
    err_ctrl = float(grid.quad((res.state.data[-1] - z) ** 2))
    threshold = 0.9 * order_parameter(target).R
    tb, Rb, _, _ = sync_series(baseline)
    cross_base = crossing_time(tb, Rb, threshold)
    tc, Rc, _, _ = sync_series(res.state)
    cross_ctrl = crossing_time(tc, Rc, threshold)
    costs = [r.J for r in res.iterates]
    ok = (
        res.final.iteration <= 200
        and err_ctrl <= 0.5 * err_base
        and cross_ctrl < cross_base
        and all(b < a for a, b in zip(costs, costs[1:]))
    )
    verdict(9, ok, 900.0, elapsed,
            f"terminal error {err_ctrl:.2e} <= 50% of {err_base:.2e}; "
            f"R crosses {threshold:.3f} at t={cross_ctrl:.2f} < {cross_base:.2f}; "
            f"{len(costs) - 1} accepted steps, strictly decreasing")


def test_criterion_10_microscopic_cross_validation(scenario, baseline_run):
    grid, params, q0, _ = scenario
    tgrid, baseline = baseline_run
    t0 = time.time()
    _, R_pde, _, _ = sync_series(baseline)
    sups = []
    for seed in range(8):
        ens = ParticleEnsemble.from_density(q0, 2000, rng_seed=seed)
        R_N, _ = simulate_particles(ens, None, params, tgrid)
        sups.append(float(np.max(np.abs(R_N - R_pde))))
    mean_sup = float(np.mean(sups))

    rng = np.random.default_rng(42)
    thetas = rng.uniform(0, 2 * np.pi, 512)
    drift_err = float(
        np.max(np.abs(moment_interaction_drift(thetas, 0.0) - pairwise_interaction_drift(thetas, 0.0)))
    )
    ok = mean_sup <= 0.05 and drift_err <= 1e-10
    verdict(10, ok, 300.0, time.time() - t0,
            f"mean over 8 seeds of sup_t |R_N - R_PDE| = {mean_sup:.4f} <= 0.05; "
            f"O(N) vs O(N^2) drift at N=512: {drift_err:.2e} <= 1e-10")


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    out = tmp_path / "det"
    args = [
        "optimize", "--out", str(out), "--seed", "7",
        "--set", "discretization.n_theta=64",
        "--set", "discretization.n_t=600",
        "--set", "discretization.T=3.0",
        "--set", "optimizer.max_iters=5",
        "--set", "initial_controls.perturbation_scale=0.1",
    ]
    names = ("convergence.csv", "timeseries.csv", "summary.json",
             "state.f64", "state.f64.json", "adjoint.f64", "control_u1.f64")
    assert main(args) == 0
    first = {n: (out / n).read_bytes() for n in names}
    assert main(args) == 0
    second = {n: (out / n).read_bytes() for n in names}
    identical = all(first[n] == second[n] for n in names)
    verdict(11, identical, 60.0, time.time() - t0,
            "two optimize runs with identical config+seed are byte-identical "
            f"across {len(names)} output files")
