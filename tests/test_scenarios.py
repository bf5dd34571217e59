import numpy as np
import pytest

from kurasteer.coupling import polar_order
from kurasteer.scenarios import DensitySpec


class TestDensitySpec:
    def test_uniform(self, grid):
        q = DensitySpec.from_dict({"kind": "uniform"}, "scenario.q0").build(grid)
        assert np.all(q.values == q.values[0])
        assert grid.quad(q.values) == pytest.approx(1.0, abs=1e-12)

    def test_wrapped_gaussian_normalized_and_centered(self, grid):
        q = DensitySpec.from_dict(
            {"kind": "wrapped_gaussian", "mean": 3 * np.pi / 2, "sigma": 0.4}, "scenario.q0"
        ).build(grid)
        assert grid.quad(q.values) == pytest.approx(1.0, abs=1e-12)
        assert np.all(q.values >= 0.0)
        R, psi = polar_order(grid, q.values)
        assert psi == pytest.approx(3 * np.pi / 2, abs=1e-8)
        # circular moment magnitude of a wrapped Gaussian is exp(-sigma^2/2)
        assert R == pytest.approx(np.exp(-0.08), abs=1e-9)

    def test_wide_gaussian_still_normalized(self, grid):
        q = DensitySpec(kind="wrapped_gaussian", mean=0.0, sigma=2.0).build(grid)
        assert grid.quad(q.values) == pytest.approx(1.0, abs=1e-12)

    def test_mixture(self, grid):
        spec = DensitySpec.from_dict(
            {
                "kind": "mixture",
                "components": [
                    {"weight": 2.0, "mean": 1.0, "sigma": 0.5},
                    {"weight": 1.0, "mean": 4.0, "sigma": 0.3},
                ],
            },
            "scenario.q0",
        )
        q = spec.build(grid)
        assert grid.quad(q.values) == pytest.approx(1.0, abs=1e-12)
        assert np.all(q.values >= 0.0)

    def test_from_file_round_trip(self, grid, tmp_path):
        q = DensitySpec(kind="wrapped_gaussian", mean=2.0, sigma=0.5).build(grid)
        path = tmp_path / "density.f64"
        q.values.astype("<f8").tofile(path)
        back = DensitySpec.from_dict({"kind": "from_file", "path": str(path)}, "scenario.q0").build(grid)
        assert np.max(np.abs(back.values - q.values)) <= 1e-15

    def test_from_file_wrong_length(self, grid, tmp_path):
        path = tmp_path / "density.f64"
        np.ones(17).astype("<f8").tofile(path)
        with pytest.raises(ValueError, match=r"^scenario\.q0\.path: .* holds 17 samples"):
            DensitySpec.from_dict({"kind": "from_file", "path": str(path)}, "scenario.q0").build(grid)

    @pytest.mark.parametrize(
        "bad, message",
        [(-0.5, "density is negative"), (0.0, "density has zero mass"), (np.nan, "non-finite"), (np.inf, "non-finite")],
        ids=["negative", "zero", "nan", "inf"],
    )
    def test_negative_density_rejected(self, grid, tmp_path, bad, message):
        # a bad sample, or all samples zero, stops the build with an error that
        # names the spec's key
        path = tmp_path / "density.f64"
        values = np.full(grid.n_theta, 0.0 if bad == 0.0 else 1.0)
        values[0] = bad
        values.astype("<f8").tofile(path)
        spec = DensitySpec.from_dict({"kind": "from_file", "path": str(path)}, "scenario.q0")
        with pytest.raises(ValueError, match=rf"^scenario\.q0\.path: .*{message}"):
            spec.build(grid)

    @pytest.mark.parametrize("bad", [{"kind": "gaussian"}, {"kind": "mixture", "components": []}])
    def test_invalid_specs(self, bad):
        with pytest.raises(ValueError):
            DensitySpec.from_dict(bad, "scenario.q0")

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"kind": "uniform", "sigma": 9}, "sigma"),
            ({"kind": "wrapped_gaussian", "mean": 0.0, "sigma": 0.4, "path": "q.f64"}, "path"),
            ({"kind": "from_file", "path": "q.f64", "components": []}, "components"),
            ({"kind": "mixture", "components": [{"weight": 1, "mean": 0, "sigma": 0.3, "mu": 1}]}, "mu"),
        ],
    )
    def test_unused_keys_rejected(self, spec, key):
        with pytest.raises(ValueError, match=key):
            DensitySpec.from_dict(spec, "scenario.q0")

    def test_nonpositive_sigma_rejected(self, grid):
        with pytest.raises(ValueError):
            DensitySpec(kind="wrapped_gaussian", mean=0.0, sigma=0.0).build(grid)
