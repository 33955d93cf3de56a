"""Command-line surface: configs, outputs, manifests, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from opendicke.cli import main
from opendicke.config import ConfigError, load_config
from opendicke.params import map_to_dicke

REPO = Path(__file__).resolve().parents[1]
FIG5_CONFIG = REPO / "configs" / "fig5_physical.ini"

DICKE_SETS = [
    "--set", "dicke.omega=300", "--set", "dicke.omega0=1",
    "--set", "dicke.lam=5.0", "--set", "dicke.lam_prime=0",
    "--set", "dicke.kappa=200", "--set", "dicke.atom_number=1e5",
]


def read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    return header, rows


def write_config(tmp_path: Path, text: str) -> str:
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    return str(cfg)


class TestConfigParsing:
    def test_fig5_physical_block_round_trips(self):
        cfg = load_config(str(FIG5_CONFIG))
        assert cfg.physical is not None
        dk = map_to_dicke(cfg.physical)
        assert dk.lam == pytest.approx(9.0, abs=1e-9)
        assert dk.lam_prime * 120 == pytest.approx(dk.lam, abs=1e-9)

    def test_unknown_mode_rejected(self, tmp_path):
        path = write_config(tmp_path, "[run]\nmode = frobnicate\n")
        with pytest.raises(ConfigError, match="mode"):
            load_config(path)

    def test_non_numeric_value_diagnosed(self, tmp_path):
        path = write_config(tmp_path, "[run]\nmode = g2\n[dicke]\nomega = fast\n")
        with pytest.raises(ConfigError, match="omega"):
            load_config(path)

    def test_override_injection(self, tmp_path):
        path = write_config(
            tmp_path,
            "[run]\nmode = spectrum\n[dicke]\nomega = 300\nomega0 = 1\n"
            "lam = 0\nlam_prime = 0\nkappa = 200\natom_number = 1e5\n")
        cfg = load_config(path, overrides=["dicke.kappa=100"])
        assert cfg.dicke.kappa == 100.0


class TestSubcommands:
    def test_map_params_emits_dicke_json(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["map-params", "--config", str(FIG5_CONFIG), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "dicke_params.json").read_text())
        assert payload["lam"] == pytest.approx(9.0, abs=1e-9)
        manifest = json.loads((out / "manifest.json").read_text())
        assert "dicke_params.json" in manifest["outputs"]

    def test_spectrum_run_and_bare_mode_limit(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["spectrum", "--out", str(out), *DICKE_SETS,
                   "--set", "grid.lam_min=0", "--set", "grid.lam_max=10",
                   "--set", "grid.lam_points=11", "--plots"])
        assert rc == 0
        header, rows = read_csv(out / "spectrum.csv")
        assert header[0] == "lam[omega0]"
        pol = int(rows[0][-1])
        # at lam = 0 the polariton branch sits exactly at (omega0, 0)
        assert rows[0][2 + 2 * pol] == pytest.approx(1.0)
        assert rows[0][3 + 2 * pol] == pytest.approx(0.0)
        assert (out / "spectrum_plot.py").exists()

    def test_evolve_conserves_pseudo_momentum(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["evolve", "--out", str(out), *DICKE_SETS,
                   "--set", "evolve.t_max=20", "--set", "evolve.samples=50"])
        assert rc == 0
        _, rows = read_csv(out / "trajectory.csv")
        j = [row[-1] for row in rows]
        assert max(j) - min(j) < 1e-8 * j[0]

    def test_g2_run(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["g2", "--out", str(out), *DICKE_SETS,
                   "--set", "grid.tau_span=50", "--set", "grid.tau_points=128"])
        assert rc == 0
        _, rows = read_csv(out / "g2.csv")
        assert rows[0][3] == pytest.approx(3.0, abs=1e-6)

    def test_photon_flux_above_threshold_is_numeric_failure(self, tmp_path):
        rc = main(["photon-flux", "--out", str(tmp_path / "o"), *DICKE_SETS,
                   "--set", "grid.lam_min=1", "--set", "grid.lam_max=15",
                   "--set", "grid.lam_points=4"])
        assert rc == 3

    def test_spaced_override_without_config(self, tmp_path):
        # overrides are parsed once, with or without a config file
        out = tmp_path / "out"
        rc = main(["map-params", "--out", str(out), *DICKE_SETS,
                   "--set", "dicke.lam = 9"])
        assert rc == 0
        payload = json.loads((out / "dicke_params.json").read_text())
        assert payload["lam"] == 9.0

    @pytest.mark.parametrize("argv, output", [
        (["map-params", *DICKE_SETS, "--set", "dicke.lam=nan"], "dicke_params.json"),
        (["photon-flux", *DICKE_SETS, "--set", "grid.lam_list=nan"], "photon_flux.csv"),
    ])
    def test_non_finite_value_is_config_failure(self, tmp_path, argv, output):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        assert not (out / output).exists()

    @pytest.mark.parametrize("sets", [
        ["grid.tau_span=50", "grid.tau_points=0"],
        ["grid.tau_span=50", "grid.tau_points=1"],
        ["grid.tau_span=50", "grid.tau_points=2.5"],
        ["grid.tau_span=-5", "grid.tau_points=64"],
        ["grid.tau_span=0", "grid.tau_points=64"],
        ["grid.tau_span=50"],
        ["grid.tau_pionts=64"],
        ["grid.lam_points=2.5"],
        ["grid.lam_points=0"],
        ["grid.nu_points=2.5"],
        ["grid.nu_points=-1"],
        ["evolve.samples=0"],
        ["evolve.samples=-3"],
        ["evolve.samples=2.5"],
        ["evolve.t_max=0"],
        ["evolve.t_max=-1"],
        ["modulation.t_max=0"],
        ["modulation.t_max=-1"],
        ["run.outt=x"],
        ["figure.ids=fig1"],
    ], ids=" ".join)
    def test_invalid_input_is_one_line_config_failure(self, tmp_path, capsys, sets):
        # refused while the configuration is built, before any solver runs
        out = tmp_path / "o"
        overrides = [arg for s in sets for arg in ("--set", s)]
        assert main(["g2", "--out", str(out), *DICKE_SETS, *overrides]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value, out_format", [
        (float("nan"), "csv"), (float("inf"), "csv"), (-float("inf"), "json")])
    def test_non_finite_output_is_numeric_failure(self, tmp_path, capsys,
                                                   monkeypatch, value, out_format):
        from opendicke import cli
        from opendicke.figures import Table

        monkeypatch.setattr(cli, "spectrum_table", lambda name, p, grid: Table(
            name, ["lam[omega0]", "re_omega_1[omega0]"], [[1.0, 0.5], [2.0, value]]))
        out = tmp_path / "o"
        rc = main(["spectrum", "--out", str(out), "--format", out_format,
                   *DICKE_SETS, "--set", "grid.lam_list=1 2"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert "table spectrum, column re_omega_1[omega0]" in err
        assert not (out / f"spectrum.{out_format}").exists()

    @pytest.mark.parametrize("tau_sets", [[], ["grid.tau_span=50", "grid.tau_points=64"]],
                             ids=["default", "explicit"])
    def test_biased_g2_resolves_the_operating_point_once(self, tmp_path, monkeypatch,
                                                         tau_sets):
        from opendicke import meanfield

        calls = []
        newton = meanfield.newton_steady_state

        def counted(*args, **kwargs):
            calls.append(args)
            return newton(*args, **kwargs)

        monkeypatch.setattr(meanfield, "newton_steady_state", counted)
        out = tmp_path / "o"
        rc = main(["g2", "--out", str(out), *DICKE_SETS, "--set", "dicke.lam=9",
                   "--set", "dicke.lam_prime=0.025",
                   *[arg for s in tau_sets for arg in ("--set", s)]])
        assert rc == 0
        assert len(calls) == 1

    def test_biased_photon_flux_above_threshold(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["photon-flux", "--out", str(out), *DICKE_SETS,
                   "--set", "dicke.lam_prime=0.03", "--set", "grid.lam_list=12"])
        assert rc == 0
        _, rows = read_csv(out / "photon_flux.csv")
        assert len(rows) == 1 and rows[0][1] > 0

    def test_missing_grid_is_config_failure(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["steady-state", "--out", str(out), *DICKE_SETS])
        assert rc == 2
        assert not (out / "steady_states.csv").exists()

    def test_modulate_time_series(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["modulate", "--out", str(out), *DICKE_SETS,
                   "--set", "dicke.lam=8.3", "--set", "modulation.eps=0.02",
                   "--set", "modulation.time_series_lam=8.3",
                   "--set", "modulation.time_series_nu=1.2",
                   "--set", "modulation.t_max=200"])
        assert rc == 0
        header, rows = read_csv(out / "modulate_timeseries.csv")
        assert header == ["t[1/omega0]", "re_beta_over_N[1]", "alpha2_over_N[1]"]
        assert len(rows) > 100


class TestDeterminism:
    def test_identical_configs_give_identical_bytes(self, tmp_path):
        args = ["spectrum", *DICKE_SETS,
                "--set", "grid.lam_min=0", "--set", "grid.lam_max=12",
                "--set", "grid.lam_points=9", "--format", "both"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        for name in ("spectrum.csv", "spectrum.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        assert m1["config_hash"] == m2["config_hash"]


class TestReproduceFigure:
    def test_fig1_bundle(self, tmp_path):
        out = tmp_path / "fig1"
        rc = main(["reproduce-figure", "fig1", "--out", str(out), "--plots"])
        assert rc == 0
        header, rows = read_csv(out / "fig1_spectrum.csv")
        pol = int(rows[0][-1])
        assert rows[0][2 + 2 * pol] == pytest.approx(1.0)
        assert (out / "fig1_spectrum_zoom.csv").exists()
        assert (out / "fig1_plot.py").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) >= {"fig1_spectrum.csv",
                                            "fig1_spectrum_zoom.csv"}

    def test_fig5_requires_physical_block(self, tmp_path):
        rc = main(["reproduce-figure", "fig5", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_fig5_with_canonical_geometry(self, tmp_path):
        out = tmp_path / "fig5"
        rc = main(["reproduce-figure", "fig5", "--config", str(FIG5_CONFIG),
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "fig5b_density.csv")
        assert header[0] == "x[pump_wavelength]"
        x = np.array([r[0] for r in rows])
        plus = np.array([r[1] for r in rows])
        minus = np.array([r[2] for r in rows])
        # opposite trap displacements select density patterns shifted by
        # half a pump wavelength
        from util import correlation_shift
        shift = correlation_shift(plus, minus, x[1] - x[0], max_shift=0.9)
        assert abs(shift - 0.5) < 0.02
        # smooth biased branches on both sides
        for name in ("fig5c_branches_plus.csv", "fig5d_branches_minus.csv"):
            _, brows = read_csv(out / name)
            alphas = [complex(r[2], r[3]) for r in brows]
            assert all(abs(a) > 0 for a in alphas)

    def test_fig4_bundle_reduced(self, tmp_path, monkeypatch):
        # shrink the canonical map so the plumbing test stays fast
        from opendicke import figures

        reduced = dict(figures.FIGURE_PARAMS["fig4"], map_points=3)
        monkeypatch.setitem(figures.FIGURE_PARAMS, "fig4", reduced)
        out = tmp_path / "fig4"
        rc = main(["reproduce-figure", "fig4", "--out", str(out), "--workers", "2"])
        assert rc == 0
        header, rows = read_csv(out / "fig4ab_response_map.csv")
        assert header[2] == "max_alpha2_over_N[1]"
        assert len(rows) == 9
        _, cell_rows = read_csv(out / "fig4c_timeseries.csv")
        assert max(r[1] for r in cell_rows) > 1e-2   # resonant growth

    def test_unknown_figure_id(self, tmp_path):
        rc = main(["reproduce-figure", "fig9", "--out", str(tmp_path / "x")])
        assert rc == 2
