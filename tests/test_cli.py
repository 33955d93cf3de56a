"""Command-line surface: configs, outputs, manifests, determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from datetime import timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opendicke import meanfield
from opendicke.cli import main
from opendicke.config import MAX_POINTS, SECTIONS, ConfigError, load_config
from opendicke.correlations import photon_number_closed_form, two_time_correlations
from opendicke.figures import CANONICAL_PHYSICAL
from opendicke.params import DickeParams, map_to_dicke

REPO = Path(__file__).resolve().parents[1]
FIG5_CONFIG = REPO / "configs" / "fig5_physical.ini"
README = REPO / "README.md"

DICKE_SETS = [
    "--set", "dicke.omega=300", "--set", "dicke.omega0=1",
    "--set", "dicke.lam=5.0", "--set", "dicke.lam_prime=0",
    "--set", "dicke.kappa=200", "--set", "dicke.atom_number=1e5",
]
#: the canonical [physical] block as overrides, all but its atom number
PHYSICAL_SETS = [f"physical.{key}={value!r}" for key, value
                 in CANONICAL_PHYSICAL.items() if key != "atom_number"]


def read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    return header, rows


def write_config(tmp_path: Path, text: str) -> str:
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    return str(cfg)


def run_cli(argv):
    """Exit code and stderr of the CLI in a fresh interpreter, warnings as a user sees them."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src") + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "opendicke.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


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

    def test_counts_up_to_max_points_accepted(self):
        # parsed only; no grid of this size is built
        cfg = load_config(None, ["run.mode=modulate", f"grid.lam_points={MAX_POINTS}",
                                 "grid.nu_points=1", "grid.tau_span=50",
                                 f"grid.tau_points={MAX_POINTS}",
                                 f"evolve.samples={MAX_POINTS}"])
        assert cfg.grid["lam_points"] == cfg.grid["tau_points"] == MAX_POINTS
        assert cfg.evolve["samples"] == MAX_POINTS

    def test_readme_names_every_config_key(self):
        text = README.read_text()
        config_format = text[text.index("## Config format"):]
        config_format = config_format[:config_format.index("\n## ", 1)]
        physical_ini = FIG5_CONFIG.read_text()
        for section, keys in SECTIONS.items():
            assert f"[{section}]" in config_format, section
            for key in keys:
                named = re.compile(rf"(?<![\w.]){key}(?!\w)")
                assert named.search(config_format) or (
                    section == "physical" and named.search(physical_ini)), f"{section}.{key}"


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
        # finite, but its square overflows a Python float
        (["map-params", "--config", str(FIG5_CONFIG),
          "--set", "physical.cavity_wavevector=1e300"], "dicke_params.json"),
    ])
    def test_non_finite_value_is_config_failure(self, tmp_path, argv, output):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        assert not (out / output).exists()

    @pytest.mark.parametrize("value, accepted", [
        ("100000.9", False), ("1e5", True), ("100000.0", True)])
    def test_physical_atom_number_must_be_integral(self, tmp_path, capsys,
                                                   value, accepted):
        out = tmp_path / "o"
        rc = main(["map-params", "--config", str(FIG5_CONFIG), "--out", str(out),
                   "--set", f"physical.atom_number={value}"])
        if accepted:
            assert rc == 0
            payload = json.loads((out / "dicke_params.json").read_text())
            assert payload["atom_number"] == 100000
        else:
            assert rc == 2
            assert capsys.readouterr().err == (
                "configuration error: [physical] atom_number must be an integer, "
                "got 100000.9\n")
            assert not out.exists()

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
        # spans below 1e-30: 5e-324 made the samples collide (a traceback),
        # 1e-300 stalled LSODA at its smallest step
        ["modulation.t_max=1e-300"],
        ["modulation.t_max=5e-324"],
        ["evolve.t_max=5e-324"],
        ["grid.tau_span=5e-324", "grid.tau_points=64"],
        ["modulation.time_series_lam=-1"],
        ["modulation.eps=-3"],
        ["modulation.eps=0"],
        ["modulation.eps=0.2"],
        ["modulation.seed=0.7"],
        ["modulation.seed=-0.5"],
        ["dicke.kappa=1e31"],
        ["run.outt=x"],
        ["figure.ids=fig1"],
        # a misspelt section
        ["modulate.t_max=1e-300"],
        [f"grid.lam_points={MAX_POINTS + 1}"],
        [f"grid.nu_points={MAX_POINTS + 1}"],
        ["grid.tau_span=50", f"grid.tau_points={MAX_POINTS + 1}"],
        [f"evolve.samples={MAX_POINTS + 1}"],
        # 2048 x 1024 response-map cells
        ["grid.lam_min=1", "grid.lam_max=2", "grid.lam_points=2048",
         "grid.nu_min=1", "grid.nu_max=2", "grid.nu_points=1024"],
        # an atom count is an integer; it used to be truncated silently
        [*PHYSICAL_SETS, "physical.atom_number=100000.9"],
    ], ids=" ".join)
    def test_invalid_input_is_one_line_config_failure(self, tmp_path, capsys, sets):
        # refused while the configuration is built, before any solver runs
        out = tmp_path / "o"
        overrides = [arg for s in sets for arg in ("--set", s)]
        assert main(["g2", "--out", str(out), *DICKE_SETS, *overrides]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["0", "-1"])
    def test_non_positive_workers_flag_is_config_failure(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        rc = main(["spectrum", "--out", str(out), "--workers", flag, *DICKE_SETS,
                   "--set", "grid.lam_list=1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not out.exists()

    def test_evolve_default_w0_follows_given_beta0(self, tmp_path):
        # w0 defaults to the negative root of |beta0|^2 + w0^2 = N^2/4
        out = tmp_path / "o"
        rc = main(["evolve", "--out", str(out), *DICKE_SETS,
                   "--set", "evolve.beta0_re=30000", "--set", "evolve.beta0_im=-4000",
                   "--set", "evolve.t_max=1", "--set", "evolve.samples=3"])
        assert rc == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert rows[0][3:5] == [30000.0, -4000.0]
        assert rows[0][5] < 0
        assert rows[0][6] == pytest.approx(0.25e10, rel=1e-12)

    @pytest.mark.parametrize("w0", [0.0, -4e4, 5e4 + 1.0])
    def test_evolve_w0_off_the_bloch_sphere_is_config_failure(self, tmp_path, capsys, w0):
        # default beta0 = 1e-3 N = 100, so |beta0|^2 + w0^2 misses N^2/4 = 2.5e9
        out = tmp_path / "o"
        rc = main(["evolve", "--out", str(out), *DICKE_SETS,
                   "--set", f"evolve.w0={w0!r}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "w0" in err
        assert not (out / "trajectory.csv").exists()

    def test_evolve_positive_w0_root_runs(self, tmp_path):
        out = tmp_path / "o"
        w0 = math.sqrt(0.25e10 - 3e4 ** 2)
        rc = main(["evolve", "--out", str(out), *DICKE_SETS,
                   "--set", "evolve.beta0_re=30000", "--set", f"evolve.w0={w0!r}",
                   "--set", "evolve.t_max=1", "--set", "evolve.samples=3"])
        assert rc == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert rows[0][5] == w0
        assert rows[0][6] == pytest.approx(0.25e10, rel=1e-12)

    def test_evolve_work_limit_is_numeric_failure(self, tmp_path, capsys, monkeypatch):
        # a huge initial field precesses the spin at ~1e29 omega0
        monkeypatch.setattr(meanfield, "MAX_RHS_EVALS", 10 ** 4)
        out = tmp_path / "o"
        rc = main(["evolve", "--out", str(out), *DICKE_SETS,
                   "--set", "evolve.alpha0_re=1e30", "--set", "evolve.t_max=1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: integration stopped after 10000 "
                       "right-hand-side evaluations\n")
        assert not (out / "trajectory.csv").exists()

    def test_evolve_beta0_beyond_bloch_sphere_is_config_failure(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["evolve", "--out", str(out), *DICKE_SETS,
                   "--set", "evolve.beta0_re=60000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert not (out / "trajectory.csv").exists()

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

    @pytest.mark.parametrize("sets", [
        ["modulation.time_series_lam=8.3", "modulation.time_series_nu=1.2"],
        ["grid.lam_list=8.3", "grid.nu_min=1.2", "grid.nu_max=1.2", "grid.nu_points=1"],
    ], ids=["time-series", "ridge-cell"])
    def test_modulate_work_limit_is_numeric_failure(self, tmp_path, capsys,
                                                    monkeypatch, sets):
        # at the default t_max the cell spends 9e4 evaluations, the series 1.8e5
        monkeypatch.setattr(meanfield, "MAX_RHS_EVALS", 10 ** 4)
        out = tmp_path / "o"
        rc = main(["modulate", "--out", str(out), *DICKE_SETS,
                   *[arg for s in sets for arg in ("--set", s)]])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: integration stopped after 10000 "
                       "right-hand-side evaluations\n")
        assert not list(out.glob("*.csv"))

    def test_photon_flux_of_the_marginal_normal_phase(self, tmp_path):
        # at lam = 1e-6 rounding alone makes the normal phase grow at
        # +1e-16 omega0; the moment guard passes it as marginal
        out = tmp_path / "o"
        rc = main(["photon-flux", "--out", str(out), *DICKE_SETS,
                   "--set", "grid.lam_list=1e-6 1e-4"])
        assert rc == 0
        _, rows = read_csv(out / "photon_flux.csv")
        p = DickeParams(300.0, 1.0, 5.0, 0.0, 200.0, 1e5)
        assert [lam for lam, _ in rows] == [1e-6, 1e-4]
        for lam, flux in rows:
            closed = 2.0 * p.kappa * photon_number_closed_form(p, lam)
            assert flux == pytest.approx(closed, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("argv, code", [
        (["steady-state", *DICKE_SETS], 2),
        (["spectrum", *DICKE_SETS, "--set", "grid.lam_list=5 1"], 2),
        (["modulate", *DICKE_SETS, "--set", "grid.lam_list=5"], 2),
        (["evolve", *DICKE_SETS, "--set", "evolve.beta0_re=6e4"], 2),
        (["reproduce-figure", "fig9"], 2),
        (["reproduce-figure", "fig5"], 2),
        (["g2"], 2),
        (["g2", *DICKE_SETS, "--set", "dicke.lam=0", "--set", "grid.tau_span=50",
          "--set", "grid.tau_points=3"], 3),
        (["photon-flux", *DICKE_SETS, "--set", "grid.lam_list=12"], 3),
    ], ids=["steady-state-no-grid", "spectrum-unsorted", "modulate-no-nu-grid",
            "evolve-beta0", "fig9", "fig5-no-physical", "g2-no-model", "g2-lam-0",
            "photon-flux-above-threshold"])
    def test_refused_run_writes_nothing(self, tmp_path, argv, code):
        out = tmp_path / "o"
        rc, err = run_cli([*argv, "--out", str(out)])
        assert rc == code
        assert err.startswith(("configuration error:", "numerical failure:"))
        assert err.count("\n") == 1, err
        assert not out.exists()

    def test_warning_is_one_line_after_success(self, tmp_path):
        # 17 points over 50/omega0 cannot resolve the soft mode at lam = 5
        tau_sets = ["--set", "grid.tau_span=50", "--set", "grid.tau_points=17"]
        out = tmp_path / "o"
        rc, err = run_cli(["g2", *DICKE_SETS, *tau_sets, "--out", str(out)])
        assert rc == 0
        assert err.startswith("warning: tau grid spacing") and err.count("\n") == 1, err
        # the table holds the correlators as computed
        p = DickeParams(300.0, 1.0, 5.0, 0.0, 200.0, 1e5)
        with pytest.warns(UserWarning, match="cannot resolve"):
            series = two_time_correlations(p, np.linspace(0.0, 50.0, 17))
        _, rows = read_csv(out / "g2.csv")
        expected = np.column_stack([series.tau, series.g1.real, series.g1.imag, series.g2])
        assert np.array_equal(rows, expected)


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


#: canonical figure settings shrunk so that every bundle runs in seconds
FIGURE_REDUCTIONS = {
    "fig2": dict(lam_values=np.array([6.0])),
    "fig3": dict(lam_values=(6.0,)),
    "fig4": dict(map_points=2),
    "fig5": dict(points=8),
}
TAU_SETS = ["--set", "grid.tau_span=50", "--set", "grid.tau_points=64"]


class TestPlotScripts:
    @pytest.mark.parametrize("argv, scripts", [
        (["map-params", *DICKE_SETS], []),
        (["steady-state", *DICKE_SETS, "--set", "grid.lam_list=1 2"],
         ["steady_states_plot.py"]),
        (["evolve", *DICKE_SETS, "--set", "evolve.t_max=1", "--set", "evolve.samples=3"],
         []),
        (["spectrum", *DICKE_SETS, "--set", "grid.lam_list=1 2"], ["spectrum_plot.py"]),
        (["photon-flux", *DICKE_SETS, "--set", "grid.lam_list=1 2"], []),
        (["g2", *DICKE_SETS, *TAU_SETS], ["g2_plot.py"]),
        (["g2-map", *DICKE_SETS, *TAU_SETS, "--set", "grid.lam_list=5"],
         ["g2_fft_map_plot.py"]),
        (["modulate", *DICKE_SETS, "--set", "grid.lam_list=5", "--set", "grid.nu_min=0.6",
          "--set", "grid.nu_max=0.6", "--set", "grid.nu_points=1"],
         ["response_map_plot.py"]),
        (["modulate", *DICKE_SETS, "--set", "modulation.time_series_lam=5",
          "--set", "modulation.time_series_nu=0.6", "--set", "modulation.t_max=20"], []),
        (["reproduce-figure", "fig1"], ["fig1_plot.py"]),
        (["reproduce-figure", "fig2"], ["fig2_plot.py"]),
        (["reproduce-figure", "fig3"], ["fig3_plot.py"]),
        (["reproduce-figure", "fig4"], ["fig4_plot.py"]),
        (["reproduce-figure", "fig5", "--config", str(FIG5_CONFIG)], ["fig5_plot.py"]),
    ], ids=["map-params", "steady-state", "evolve", "spectrum", "photon-flux", "g2",
            "g2-map", "modulate-map", "modulate-timeseries", "fig1", "fig2", "fig3",
            "fig4", "fig5"])
    def test_plot_script_named_by_figure_or_single_table(self, tmp_path, monkeypatch,
                                                         argv, scripts):
        from opendicke import figures

        for fig_id, reduced in FIGURE_REDUCTIONS.items():
            monkeypatch.setitem(figures.FIGURE_PARAMS, fig_id,
                                dict(figures.FIGURE_PARAMS[fig_id], **reduced))
        out = tmp_path / "o"
        assert main([*argv, "--plots", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*_plot.py")) == scripts
        manifest = json.loads((out / "manifest.json").read_text())
        for name in scripts:
            assert name in manifest["outputs"]
            # every table the script loads was written next to it
            for table in re.findall(r'load\("([^"]+)"\)', (out / name).read_text()):
                assert (out / table).exists(), table


#: pools for fuzzing ``--set`` items; counts stay small, so that no example
#: asks for more than a few hundred grid points
FUZZ_NUMBER_KEYS = ["dicke.omega", "dicke.omega0", "dicke.lam", "dicke.lam_prime",
                    "dicke.kappa", "dicke.atom_number", "grid.lam_list",
                    "grid.lam_min", "grid.lam_max"]
FUZZ_COUNT_KEYS = ["grid.lam_points", "run.workers"]
FUZZ_ODD_KEYS = ["dicke.frob", "grid.bogus", "grid.tau_points", "run.format",
                 "run.plots", "run.mode", "figure.id", "nosection.key",
                 "physical.kappa", "evolve.samples"]
FUZZ_NUMBERS = ["0", "-0", "0.5", "3", "12", "-1", "2.5", "-2.5", "1e-3", "1e-300",
                "1e300", "-1e300", "1 2", "12 3"]
FUZZ_COUNTS = ["0", "1", "2.5", "-3", "300"]
FUZZ_MALFORMED = ["", "x", "nan", "inf", "-inf", "1e400", "1,,2", "true", "csv", "fig1"]


def _override_items():
    """One to three well-formed items, then at most one malformed item."""
    def item(keys, values):
        return st.builds(lambda k, v: f"{k}={v}", st.sampled_from(keys), values)

    numbers = st.sampled_from(FUZZ_NUMBERS) | st.floats(-1e3, 1e3).map(repr)
    any_key = FUZZ_NUMBER_KEYS + FUZZ_COUNT_KEYS + FUZZ_ODD_KEYS
    valid = (item(FUZZ_NUMBER_KEYS, numbers)
             | item(FUZZ_COUNT_KEYS, st.sampled_from(FUZZ_COUNTS)))
    malformed = (item(any_key, st.sampled_from(FUZZ_MALFORMED))
                 | item(FUZZ_ODD_KEYS, numbers)
                 | st.builds(lambda k, v: f"{k}{v}", st.sampled_from(any_key), numbers)
                 | st.builds(lambda v: f"dicke={v}", numbers))
    return st.lists(valid, min_size=1, max_size=3).flatmap(
        lambda items: st.lists(malformed, max_size=1).map(lambda odd: items + odd))


#: ``[evolve]`` pools; t_max and samples never exceed the base run's 1 and 20
FUZZ_STATE_KEYS = ["evolve.alpha0_re", "evolve.alpha0_im", "evolve.beta0_re",
                   "evolve.beta0_im", "evolve.w0"]
FUZZ_STATE_NUMBERS = FUZZ_NUMBERS + ["5e4", "-5e4", "4e4", "-1e30", "1e30"]
FUZZ_T_MAX = ["1", "0.5", "1e-3", "1e-300", "0", "-1"]
FUZZ_SAMPLES = ["1", "2", "20", "0", "-3", "2.5"]


def _evolve_items():
    """One to three ``[evolve]`` items, then at most one malformed item.

    A start on the Bloch sphere, beta0 with either root w0, is one of them.
    """
    def item(keys, values):
        return st.builds(lambda k, v: f"{k}={v}", st.sampled_from(keys), values)

    def on_sphere(beta, sign):
        return [f"evolve.beta0_re={beta!r}",
                f"evolve.w0={sign * math.sqrt(0.25e10 - beta * beta)!r}"]

    numbers = st.sampled_from(FUZZ_STATE_NUMBERS) | st.floats(-6e4, 6e4).map(repr)
    valid = (item(FUZZ_STATE_KEYS, numbers).map(lambda i: [i])
             | item(["evolve.t_max"], st.sampled_from(FUZZ_T_MAX)
                    | st.floats(0.0, 1.0).map(repr)).map(lambda i: [i])
             | item(["evolve.samples"], st.sampled_from(FUZZ_SAMPLES)).map(lambda i: [i])
             | st.builds(on_sphere, st.floats(-5e4, 5e4), st.sampled_from([-1.0, 1.0])))
    malformed = (item(FUZZ_STATE_KEYS + ["evolve.samples", "evolve.bogus"],
                      st.sampled_from(FUZZ_MALFORMED))
                 | st.builds(lambda k, v: f"{k}{v}", st.sampled_from(FUZZ_STATE_KEYS),
                             numbers))
    return st.lists(valid, min_size=1, max_size=3).flatmap(
        lambda items: st.lists(malformed, max_size=1).map(
            lambda odd: [i for group in items for i in group] + odd))


#: one driven (lam, nu): a one-cell response map or a time series; t_max
#: never exceeds 50, a fortieth of the default run
FUZZ_DRIVE_KEYS = ["modulation.eps", "modulation.seed", "dicke.lam_prime", "dicke.lam"]
FUZZ_DRIVE_NUMBERS = ["0.02", "0.1", "0.199", "0.2", "0", "-0.01", "1e-4", "0.49",
                      "0.5", "1e-300", "3", "8.3", "12"]
FUZZ_DRIVE_T_MAX = ["50", "10", "1", "1e-3", "1e-300", "0", "-1"]
#: explicit tau grids of at most 256 points
FUZZ_TAU_KEYS = ["grid.tau_span", "dicke.lam", "dicke.lam_prime"]
FUZZ_TAU_POINTS = ["2", "3", "17", "256", "1", "0", "-3", "2.5"]


def _items(keys, numbers, extra, malformed_keys):
    """One to three items (``extra`` is a strategy for more), then at most one malformed item."""
    def item(keys, values):
        return st.builds(lambda k, v: f"{k}={v}", st.sampled_from(keys), values)

    valid = item(keys, numbers) | extra
    malformed = (item(malformed_keys, st.sampled_from(FUZZ_MALFORMED))
                 | st.builds(lambda k, v: f"{k}{v}", st.sampled_from(keys), numbers))
    return st.lists(valid, min_size=1, max_size=3).flatmap(
        lambda items: st.lists(malformed, max_size=1).map(lambda odd: items + odd))


#: ``[physical]`` items: any number, or a canonical value scaled by 1/2 to 2
FUZZ_PHYSICAL_KEYS = [f"physical.{key}" for key in SECTIONS["physical"]]


def _scaled_physical(key: str, factor: float) -> str:
    return f"physical.{key}={CANONICAL_PHYSICAL[key] * factor!r}"


def _driven_cell(series: bool, lam: float, nu: float) -> list[str]:
    if series:
        return [f"modulation.time_series_lam={lam!r}", f"modulation.time_series_nu={nu!r}"]
    return [f"grid.lam_list={lam!r}", f"grid.nu_min={nu!r}", f"grid.nu_max={nu!r}",
            "grid.nu_points=1"]


def _run_quietly(argv):
    """Exit code, stderr and the trajectory rows (None without a table) of a run."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        rc = main([*argv, "--out", tmp])
        table = Path(tmp) / "trajectory.csv"
        rows = read_csv(table)[1] if table.exists() else None
    return rc, err.getvalue(), rows


def _assert_exit_contract(argv, rc, text):
    assert rc in (0, 2, 3), (argv, rc)
    assert "Traceback" not in text
    if rc:
        assert text.count("\n") == 1 and text.startswith(
            ("configuration error:", "numerical failure:")), (argv, text)


class TestFailureContract:
    @settings(max_examples=150, deadline=timedelta(seconds=20), database=None)
    @given(mode=st.sampled_from(["map-params", "spectrum", "steady-state", "photon-flux"]),
           items=_override_items())
    # finite inputs whose squares overflow a Python float
    @example(mode="spectrum", items=["dicke.omega=1e300"])
    @example(mode="steady-state", items=["dicke.kappa=1e300"])
    @example(mode="photon-flux", items=["grid.lam_list=1e300"])
    def test_fuzzed_overrides_keep_the_exit_contract(self, mode, items):
        """Exit 0, 2 or 3, with one stderr line on failure and no traceback."""
        argv = [mode, *DICKE_SETS, "--set", "grid.lam_min=1", "--set", "grid.lam_max=8",
                "--set", "grid.lam_points=3",
                *[arg for item in items for arg in ("--set", item)]]
        rc, text, _ = _run_quietly(argv)
        _assert_exit_contract(argv, rc, text)

    @settings(max_examples=60, deadline=timedelta(seconds=20), database=None)
    @given(items=_evolve_items())
    # a start off the Bloch sphere, and a precession at ~1e29 omega0 that
    # only the work limit stops
    @example(items=["evolve.w0=0"])
    @example(items=["evolve.alpha0_re=1e30"])
    def test_fuzzed_evolve_keeps_the_exit_contract(self, items):
        """As above for ``evolve``; a run that starts must start on the sphere.

        The integrator's work limit is lowered so that an example that
        reaches it takes about a second.
        """
        argv = ["evolve", *DICKE_SETS, "--set", "evolve.t_max=1",
                "--set", "evolve.samples=20",
                *[arg for item in items for arg in ("--set", item)]]
        with mock.patch.object(meanfield, "MAX_RHS_EVALS", 10 ** 5):
            rc, text, rows = _run_quietly(argv)
        _assert_exit_contract(argv, rc, text)
        if rc == 0:
            assert rows[0][6] == pytest.approx(0.25e10, rel=1e-6), (argv, rows[0])

    @settings(max_examples=80, deadline=timedelta(seconds=20), database=None)
    @given(cell=st.builds(_driven_cell, st.booleans(), st.floats(-12.0, 15.0),
                          st.floats(-0.5, 3.0)),
           items=_items(FUZZ_DRIVE_KEYS,
                        st.sampled_from(FUZZ_DRIVE_NUMBERS) | st.floats(-1.0, 1.0).map(repr),
                        st.sampled_from(FUZZ_DRIVE_T_MAX).map(lambda v: f"modulation.t_max={v}")
                        | st.floats(0.0, 50.0).map(lambda v: f"modulation.t_max={v!r}"),
                        FUZZ_DRIVE_KEYS + ["modulation.t_max", "modulation.bogus"]))
    # a run of 1e9 / omega0 that only the work limit stops, on the ridge
    @example(cell=_driven_cell(True, 8.3, 1.2), items=["modulation.t_max=1e9"])
    @example(cell=_driven_cell(False, 8.3, 1.2), items=["modulation.t_max=1e9"])
    # a map row below -lam_c took the resonance formula's square root of a
    # negative number
    @example(cell=_driven_cell(False, -11.0, 1.0), items=[])
    def test_fuzzed_modulate_keeps_the_exit_contract(self, cell, items):
        """As above for ``modulate``, on one cell or one time series.

        The work limit is lowered as for ``evolve``.
        """
        argv = ["modulate", *DICKE_SETS, "--set", "modulation.t_max=50",
                *[arg for item in [*cell, *items] for arg in ("--set", item)]]
        with mock.patch.object(meanfield, "MAX_RHS_EVALS", 10 ** 5):
            rc, text, _ = _run_quietly(argv)
        _assert_exit_contract(argv, rc, text)

    @settings(max_examples=80, deadline=timedelta(seconds=20), database=None)
    @given(items=_items(FUZZ_TAU_KEYS, st.sampled_from(FUZZ_NUMBERS)
                        | st.floats(-1e3, 1e3).map(repr),
                        st.sampled_from(FUZZ_TAU_POINTS).map(lambda v: f"grid.tau_points={v}"),
                        FUZZ_TAU_KEYS + ["grid.tau_points"]))
    @example(items=["dicke.lam=0"])
    @example(items=["dicke.lam=12", "dicke.lam_prime=0.03"])
    def test_fuzzed_g2_keeps_the_exit_contract(self, items):
        """As above for ``g2`` on an explicit tau grid."""
        argv = ["g2", *DICKE_SETS, "--set", "grid.tau_span=50", "--set", "grid.tau_points=64",
                *[arg for item in items for arg in ("--set", item)]]
        rc, text, _ = _run_quietly(argv)
        _assert_exit_contract(argv, rc, text)

    @settings(max_examples=150, deadline=timedelta(seconds=20), database=None)
    @given(items=_items(FUZZ_PHYSICAL_KEYS, st.sampled_from(FUZZ_NUMBERS)
                        | st.floats(-1e3, 1e3).map(repr),
                        st.builds(_scaled_physical, st.sampled_from(sorted(CANONICAL_PHYSICAL)),
                                  st.floats(0.5, 2.0)),
                        FUZZ_PHYSICAL_KEYS + ["physical.bogus"]))
    @example(items=["physical.cavity_wavevector=1e300"])
    def test_fuzzed_physical_keeps_the_exit_contract(self, items):
        """As above for ``map-params`` on the canonical fig5 geometry."""
        argv = ["map-params", "--config", str(FIG5_CONFIG),
                *[arg for item in items for arg in ("--set", item)]]
        rc, text, _ = _run_quietly(argv)
        _assert_exit_contract(argv, rc, text)
