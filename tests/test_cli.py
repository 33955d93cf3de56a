"""Command-line surface: configs, outputs, manifests, determinism."""

import contextlib
import csv
import functools
import importlib
import itertools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from datetime import timedelta
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opendicke import _floattext, cli, figures, meanfield, modulation
from opendicke.cli import build_parser, main
from opendicke.config import MAX_POINTS, MODES, SECTIONS, ConfigError, load_config
from opendicke.correlations import (ThresholdError, photon_flux,
                                    photon_number_closed_form, two_time_correlations)
from opendicke.figures import Table
from opendicke.params import DickeParams, map_to_dicke
from opendicke.runio import NonFiniteValue, RunWriter

from conftest import blas_thread_vars
from util import DOPRI5_ERROR, ODEPACK_ERROR, FailingOde, failing_odeint

REPO = Path(__file__).resolve().parents[1]
FIG5_CONFIG = REPO / "configs" / "fig5_physical.ini"
README = REPO / "README.md"

DICKE_SETS = [
    "--set", "dicke.omega=300", "--set", "dicke.omega0=1",
    "--set", "dicke.lam=5.0", "--set", "dicke.lam_prime=0",
    "--set", "dicke.kappa=200", "--set", "dicke.atom_number=1e5",
]
#: the canonical fig5 geometry: the keys FIG5_CONFIG sets in [physical]
CANONICAL_PHYSICAL = {key: value for key, value
                      in vars(load_config(str(FIG5_CONFIG)).physical).items()
                      if key != "hbar"}
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


def python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with the package's sources on its path."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src") + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_cli(argv):
    """Exit code and stderr of the CLI in a fresh interpreter, warnings as a user sees them."""
    proc = python("-m", "opendicke.cli", *argv)
    return proc.returncode, proc.stderr


class TestConfigParsing:
    def test_fig5_physical_block_round_trips(self):
        cfg = load_config(str(FIG5_CONFIG))
        assert cfg.physical is not None
        dk = map_to_dicke(cfg.physical)
        assert dk.lam == pytest.approx(9.0, abs=1e-9)
        assert dk.lam_prime * 120 == pytest.approx(dk.lam, abs=1e-9)

    def test_fig5_mapping_raises_no_warning(self):
        # stricter than ``-W error::scipy.integrate.IntegrationWarning``, which
        # the interpreter ignores: it reads -W before site-packages is on the path
        physical = load_config(str(FIG5_CONFIG)).physical
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            map_to_dicke(physical)

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

    def test_readme_names_only_code_that_exists(self):
        # `module.name` must resolve in opendicke.<module>; a `section.key`
        # config reference such as `modulation.eps` is not code
        modules = [path.stem for path in (REPO / "src" / "opendicke").glob("*.py")]
        cited = set(re.findall(rf"`({'|'.join(modules)})\.(\w+)`", README.read_text()))
        assert cited
        for module, name in sorted(cited):
            if name not in SECTIONS.get(module, ()):
                assert hasattr(importlib.import_module(f"opendicke.{module}"), name), \
                    f"{module}.{name}"


class TestSubcommands:
    def test_successive_runs_share_no_arguments(self, tmp_path):
        assert build_parser() is build_parser()
        first, second, third = (tmp_path / name for name in ("a", "b", "c"))
        assert main(["steady-state", "--out", str(first), *DICKE_SETS,
                     "--set", "grid.lam_min=0", "--set", "grid.lam_max=4",
                     "--set", "grid.lam_points=3", "--workers", "2",
                     "--format", "json", "--plots"]) == 0
        assert main(["map-params", "--config", str(FIG5_CONFIG),
                     "--out", str(second)]) == 0
        # the first run's lam_min and lam_max must not complete this grid
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(["steady-state", "--out", str(third), *DICKE_SETS,
                         "--set", "grid.lam_points=2"]) == 2
        assert "missing coupling grid" in err.getvalue()
        assert main(["steady-state", "--out", str(third), *DICKE_SETS,
                     "--set", "grid.lam_min=1", "--set", "grid.lam_max=2",
                     "--set", "grid.lam_points=2"]) == 0
        params = [json.loads((out / "manifest.json").read_text())["resolved_params"]
                  for out in (first, second, third)]
        assert [p["mode"] for p in params] == ["steady-state", "map-params", "steady-state"]
        assert [p["workers"] for p in params] == [2, 1, 1]
        assert [p["format"] for p in params] == ["json", "csv", "csv"]
        assert "grid" not in params[1] and "dicke" not in params[1]
        assert params[2]["grid"] == {"lam_min": 1.0, "lam_max": 2.0, "lam_points": 2}
        assert sorted(p.name for p in third.iterdir()) == ["manifest.json",
                                                           "steady_states.csv"]

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

    def test_time_series_tables_write_the_solver_arrays(self):
        """The driven and ``evolve`` tables are the integrators' samples, bit for bit."""
        p = DickeParams(300.0, 1.0, 5.0, 0.0, 200.0, 1e5)     # as DICKE_SETS
        t_eval = np.linspace(0.0, 50.0, modulation.DRIVEN_SAMPLES)
        traj = modulation.driven_trajectory(p, 8.3, 1.2, t_max=50.0)
        y = modulation._driven_run(p, 8.3, 1.2, 0.02, 1e-4, t_eval, rtol=1e-8, atol=1e-14)
        assert traj.t.tobytes() == t_eval.tobytes()
        assert traj.y[:4].tobytes() == y.tobytes()
        w = [-math.sqrt(max(0.25 - br ** 2 - bi ** 2, 0.0)) for br, bi in zip(y[2], y[3])]
        assert traj.y[4].tolist() == w and max(w) < 0.0
        rows = figures.timeseries_table("ts", traj).rows
        assert rows.tobytes() == np.column_stack([t_eval, y[2], y[0] ** 2 + y[1] ** 2]).tobytes()

        (table,) = cli._run_evolve(load_config(None, [
            *DICKE_SETS[1::2], "run.mode=evolve", "evolve.t_max=2", "evolve.samples=9",
            "evolve.alpha0_re=0.5", "evolve.beta0_re=100"]))
        state0 = meanfield.MeanFieldState(0.5 + 0j, 100 + 0j,
                                          meanfield._w_from_beta(100 + 0j, 1e5))
        t, y = meanfield.integrate(state0, p, (0.0, 2.0), t_eval=np.linspace(0.0, 2.0, 9))
        assert table.rows[:, 0].tobytes() == t.tobytes()
        assert table.rows[:, 1:6].tobytes() == y.T.tobytes()

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
        ["modulation.time_series_lam=8.3"],
        ["modulation.time_series_nu=1.2"],
        # the sign rules of SECTIONS: every listed coupling >= 0, every frequency > 0
        ["grid.lam_list=2 -1"],
        ["grid.lam_min=-1"],
        ["grid.nu_min=0"],
        ["grid.nu_max=-1"],
        ["modulation.time_series_lam=8.3", "modulation.time_series_nu=-1.2"],
        ["modulation.time_series_lam=8.3", "modulation.time_series_nu=0"],
        ["grid.lam_list=3", "grid.lam_min=1", "grid.lam_max=2", "grid.lam_points=3"],
        ["grid.lam_list=3", "grid.lam_points=3"],
        ["grid.lam_list=3", "grid.lam_min=1"],
        ["grid.lam_list=3", "grid.lam_max=2"],
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
        # the displacement bound is a constant, not a key
        [*PHYSICAL_SETS, "physical.atom_number=100000",
         "physical.max_displacement_fraction=0.2"],
        # a leading mode name runs that mode in place of g2: the grids are
        # checked when the mode reads them
        ["modulate", "grid.lam_list=5", "grid.nu_min=2", "grid.nu_max=1",
         "grid.nu_points=3"],
    ], ids=" ".join)
    def test_invalid_input_is_one_line_config_failure(self, tmp_path, capsys, sets):
        # refused while the configuration is built, before any solver runs
        out = tmp_path / "o"
        mode, sets = (sets[0], sets[1:]) if sets[0] in MODES else ("g2", sets)
        overrides = [arg for s in sets for arg in ("--set", s)]
        assert main([mode, "--out", str(out), *DICKE_SETS, *overrides]) == 2
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

    def test_weak_bias_steady_state_stays_on_the_biased_branch(self, tmp_path):
        # a weak bias on a fine grid through lam_c: every point above lam = 0
        # is the stable root whose Re beta has the sign of lam'
        out = tmp_path / "o"
        rc = main(["steady-state", "--out", str(out), *DICKE_SETS,
                   "--set", "dicke.lam=0", "--set", "dicke.lam_prime=0.0001",
                   "--set", "grid.lam_min=0", "--set", "grid.lam_max=20",
                   "--set", "grid.lam_points=1000"])
        assert rc == 0
        header, rows = read_csv(out / "steady_states.csv")
        rows = np.array(rows)
        lam, re_beta = rows[:, 0], rows[:, header.index("re_beta[1]")]
        stable = rows[:, header.index("stable[bool]")]
        assert len(rows) == 1000
        assert np.all(stable[lam > 0] == 1.0)
        assert np.all(re_beta[lam > 0] > 0)

    def test_steady_state_through_weak_bias_threshold(self, tmp_path):
        # 0.327198981782771 is 1.00075 lam_c: Newton used to stall there, exit 3
        out = tmp_path / "o"
        rc = main(["steady-state", "--out", str(out),
                   "--set", "dicke.omega=0.8258750103613945",
                   "--set", "dicke.omega0=0.4487237448381642", "--set", "dicke.lam=0",
                   "--set", "dicke.lam_prime=1.09138248947855e-05",
                   "--set", "dicke.kappa=0.3239196979980446",
                   "--set", "dicke.atom_number=3761382",
                   "--set", "grid.lam_list=0.3 0.327198981782771 0.35"])
        assert rc == 0
        header, rows = read_csv(out / "steady_states.csv")
        assert [row[header.index("stable[bool]")] for row in rows] == [1.0, 1.0, 1.0]

    def test_steady_state_outside_validity_is_one_numerical_failure(self, tmp_path, capsys):
        # at lam = 1e9 the symmetry-broken |beta|/N rounds to 1/2
        out = tmp_path / "o"
        rc = main(["steady-state", "--out", str(out), *DICKE_SETS,
                   "--set", "grid.lam_list=5 1e9"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numerical failure: |beta_ss|/N = 0.5 >= 1/2 is outside validity\n")
        assert not out.exists() or not any(out.iterdir())

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

    @pytest.mark.parametrize("t_max", ["1e-30", "1e30"])
    def test_floquet_cell_at_extreme_spans(self, tmp_path, capsys, monkeypatch, t_max):
        # a stable off-ridge cell is sampled from its Floquet solution at
        # any span; at 1e30 / omega0 its exponential tables underflow to 0
        def no_integration(*args, **kwargs):
            raise AssertionError("the cell was integrated")

        monkeypatch.setattr(modulation, "solve_ivp", no_integration)
        out = tmp_path / "o"
        rc = main(["modulate", "--out", str(out), *DICKE_SETS,
                   "--set", "grid.lam_list=5", "--set", "grid.nu_min=1.6",
                   "--set", "grid.nu_max=1.6", "--set", "grid.nu_points=1",
                   "--set", f"modulation.t_max={t_max}"])
        assert rc == 0
        assert "warning:" not in capsys.readouterr().err
        _, rows = read_csv(out / "response_map.csv")
        assert len(rows) == 1 and np.all(np.isfinite(rows[0]))

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

    def test_modulate_odepack_error_is_numeric_failure(self, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setattr(scipy.integrate, "odeint", failing_odeint)
        out = tmp_path / "o"
        rc = main(["modulate", "--out", str(out), *DICKE_SETS,
                   "--set", "modulation.time_series_lam=8.3",
                   "--set", "modulation.time_series_nu=1.2"])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"numerical failure: driven run (lam=8.3, nu=1.2) failed: {ODEPACK_ERROR}\n")
        assert not list(out.glob("*.csv"))

    def test_evolve_dopri5_error_is_numeric_failure(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(scipy.integrate, "ode", FailingOde)
        out = tmp_path / "o"
        rc = main(["evolve", "--out", str(out), *DICKE_SETS,
                   "--set", "evolve.t_max=1", "--set", "evolve.samples=5"])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"numerical failure: integration failed: {DOPRI5_ERROR}\n")
        assert not (out / "trajectory.csv").exists()

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

    def test_photon_flux_at_a_tiny_coupling(self, tmp_path):
        # the closed-form moments resolve a coupling far below any damping
        # the cavity can impart on the atomic mode
        out = tmp_path / "o"
        rc = main(["photon-flux", "--out", str(out), *DICKE_SETS,
                   "--set", "grid.lam_list=1e-155"])
        assert rc == 0
        _, rows = read_csv(out / "photon_flux.csv")
        p = DickeParams(300.0, 1.0, 5.0, 0.0, 200.0, 1e5)
        closed = 2.0 * p.kappa * photon_number_closed_form(p, 1e-155)
        assert rows[0][0] == 1e-155 and closed > 0.0
        assert rows[0][1] == pytest.approx(closed, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("argv, code", [
        (["steady-state", *DICKE_SETS], 2),
        (["spectrum", *DICKE_SETS, "--set", "grid.lam_list=5 1"], 2),
        (["modulate", *DICKE_SETS, "--set", "grid.lam_list=5"], 2),
        (["modulate", *DICKE_SETS, "--set", "grid.lam_list=5", "--set", "grid.nu_min=0",
          "--set", "grid.nu_max=1", "--set", "grid.nu_points=3"], 2),
        (["evolve", *DICKE_SETS, "--set", "evolve.beta0_re=6e4"], 2),
        (["reproduce-figure", "fig9"], 2),
        (["reproduce-figure", "fig5"], 2),
        (["g2"], 2),
        (["g2", *DICKE_SETS, "--set", "dicke.lam=0", "--set", "grid.tau_span=50",
          "--set", "grid.tau_points=3"], 3),
        (["photon-flux", *DICKE_SETS, "--set", "grid.lam_list=12"], 3),
        # a lone time-series key used to be ignored: the map was written, exit 0
        (["modulate", *DICKE_SETS, "--set", "grid.lam_list=5", "--set", "grid.nu_min=0.6",
          "--set", "grid.nu_max=1", "--set", "grid.nu_points=2",
          "--set", "modulation.time_series_lam=5"], 2),
        # lam_list used to win silently: one row, not three
        (["spectrum", *DICKE_SETS, "--set", "grid.lam_list=3", "--set", "grid.lam_min=1",
          "--set", "grid.lam_max=2", "--set", "grid.lam_points=3"], 2),
        # a time series at nu = -1.2 used to run and exit 0
        (["modulate", *DICKE_SETS, "--set", "grid.lam_list=5", "--set", "grid.nu_min=0.6",
          "--set", "grid.nu_max=1", "--set", "grid.nu_points=2",
          "--set", "modulation.time_series_lam=5",
          "--set", "modulation.time_series_nu=-1.2"], 2),
    ], ids=["steady-state-no-grid", "spectrum-unsorted", "modulate-no-nu-grid",
            "modulate-nu-0", "evolve-beta0", "fig9", "fig5-no-physical", "g2-no-model", "g2-lam-0",
            "photon-flux-above-threshold", "modulate-lone-time-series-key",
            "spectrum-list-and-range", "modulate-time-series-nu-negative"])
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


def _bits(values) -> np.ndarray:
    """The float64 bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


#: finite float64 values that a number format can get wrong: signed zeros,
#: integral values on either side of 1e15 and 1e16, subnormals
EDGE_VALUES = [0.0, -0.0, 1.0, -50000.0, 1e15 - 1, 1e15, 1e15 + 1, -1e15,
               1e16 - 2, 1e16, 1e16 + 2, -1e16, 2.0 ** 60, 5e-324, -5e-324,
               2.2250738585072014e-308 / 3, 0.1, 1 / 3, 1.7976931348623157e308]


class TestNumberFormat:
    @settings(max_examples=200, deadline=None, database=None)
    @given(rows=st.integers(1, 4).flatmap(lambda width: st.lists(
        st.lists(st.sampled_from(EDGE_VALUES)
                 | st.integers(-2 ** 62, 2 ** 62).map(float)
                 | st.floats(allow_nan=False, allow_infinity=False),
                 min_size=width, max_size=width), min_size=1, max_size=6)))
    def test_csv_and_json_write_every_number_one_way(self, rows):
        header = [f"c{j}" for j in range(len(rows[0]))]
        with tempfile.TemporaryDirectory() as tmp:
            writer = RunWriter(tmp, "test", {}, out_format="both")
            writer.write_table(Table("t", header, rows))
            csv_lines = (Path(tmp) / "t.csv").read_text().splitlines()
            payload = json.loads((Path(tmp) / "t.json").read_text())
        assert csv_lines[0] == ",".join(header)
        parsed = [[float(cell) for cell in line.split(",")] for line in csv_lines[1:]]
        assert np.array_equal(_bits(parsed), _bits(rows))
        assert np.array_equal(_bits(payload["rows"]), _bits(rows))
        for line, row in zip(csv_lines[1:], payload["rows"], strict=True):
            assert line == ",".join(json.dumps(value) for value in row)

    def test_steady_state_csv_and_json_agree_cell_for_cell(self, tmp_path):
        # across lam_c = 10.4083: zero fields, stability flags, both branches
        out = tmp_path / "o"
        assert main(["steady-state", "--out", str(out), "--format", "both", *DICKE_SETS,
                     "--set", "grid.lam_min=0", "--set", "grid.lam_max=14",
                     "--set", "grid.lam_points=15"]) == 0
        lines = (out / "steady_states.csv").read_text().splitlines()
        payload = json.loads((out / "steady_states.json").read_text())
        assert lines[0].split(",") == payload["columns"]
        cells = [line.split(",") for line in lines[1:]]
        assert cells == [[json.dumps(value) for value in row] for row in payload["rows"]]

    @staticmethod
    def written(rows, header) -> tuple[bytes, bytes]:
        """The CSV and JSON bytes ``write_table`` writes for one table."""
        with tempfile.TemporaryDirectory() as tmp:
            RunWriter(tmp, "test", {}, out_format="both").write_table(Table("t", header, rows))
            return (Path(tmp) / "t.csv").read_bytes(), (Path(tmp) / "t.json").read_bytes()

    def check_repr(self, values: np.ndarray):
        """Every cell is the ``repr`` of its value, the JSON file that of ``json.dumps``."""
        header = [f"c{j}" for j in range(values.shape[1])]
        rows = values.tolist()
        csv_bytes, json_bytes = self.written(values, header)
        lines = csv_bytes.decode().split("\n")
        assert lines[0] == ",".join(header) and lines[-1] == ""
        assert [line.split(",") for line in lines[1:-1]] == [list(map(repr, row)) for row in rows]
        assert json_bytes.decode() == json.dumps({"columns": header, "rows": rows},
                                                 sort_keys=True)

    def test_every_cell_is_repr_on_deterministic_samples(self):
        # powers of two and of ten with both neighbours, every subnormal
        # mantissa below 2^12 and the largest ones, signed zeros, and 1e5
        # random finite bit patterns, each with both signs
        def with_neighbours(x):
            return np.concatenate([np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)])

        bits = np.random.default_rng(23).integers(0, 2 ** 64, 120_000, dtype=np.uint64)
        noise = bits.view(np.float64)
        values = np.concatenate([
            with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
            with_neighbours(np.array([float(f"1e{e}") for e in range(-323, 309)])),
            np.arange(2 ** 12, dtype=np.uint64).view(np.float64),
            (2 ** 52 - np.arange(1, 2 ** 12, dtype=np.uint64)).view(np.float64),
            noise[np.isfinite(noise)][:100_000]])
        values = np.concatenate([values, -values])
        self.check_repr(values.reshape(-1, 2))

    @pytest.mark.parametrize("width", range(1, 9))
    def test_every_cell_is_repr_across_block_boundaries(self, width):
        # row counts 1, B - 1, B and B + 1 for the kernel's block of B values
        block = _floattext.BLOCK
        rng = np.random.default_rng(width)
        for n_rows in (1, block - 1, block, block + 1):
            mantissa = rng.standard_normal((n_rows, width))
            self.check_repr(mantissa * 10.0 ** rng.integers(-30, 30, (n_rows, width)))

    @pytest.mark.parametrize("digits", range(1, 18))
    def test_every_cell_is_repr_for_each_significant_digit_count(self, digits):
        # the last significant digit falls in the leading digit or in one of
        # the four groups of four digits after it, also after inner zeros;
        # decimal points from fixed 0.000ddd to ddd00.0 and exponent forms
        rng = np.random.default_rng(digits)
        mantissas = [10 ** (digits - 1) + (digits > 1), 10 ** digits - 1,
                     *rng.integers(10 ** (digits - 1), 10 ** digits, 60)]
        values = [float(f"{m}e{point - digits}") for m in mantissas
                  for point in (-300, -100, -5, -3, 0, 1, 5, 16, 17, 100, 300)]

        def significant(text):
            return len(text.lstrip("-").split("e")[0].replace(".", "").strip("0"))

        values = np.array([v for v in values if significant(repr(v)) == digits])
        assert values.size >= 100
        self.check_repr(np.concatenate([values, -values]).reshape(-1, 2))

    def test_rounding_interval_matches_python_int_reference(self):
        # Schubfach's vb, vbl and vbr (Giulietti's rop of g cb 2^h for cb =
        # 4c, 4c - 2 or 4c - 1, 4c + 2) against three exact Python-int
        # products each: random bit patterns, every exponent field with
        # c = 2^52 and with odd and even c, and subnormals
        m63, m64 = 2 ** 63 - 1, 2 ** 64 - 1

        def floor_log10(x: Fraction) -> int:
            k = len(str(x.numerator)) - len(str(x.denominator))
            while Fraction(10) ** k > x:
                k -= 1
            while Fraction(10) ** (k + 1) <= x:
                k += 1
            return k

        def floor_log2_pow10(e: int) -> int:
            return (10 ** e).bit_length() - 1 if e >= 0 else -(10 ** -e).bit_length()

        @functools.cache
        def scale(bq: int, irregular: bool) -> tuple[int, int, int, int]:
            """k, h, g1 and g0 of Giulietti's figure 9 for exponent field bq."""
            q = max(bq, 1) - 1075
            k = floor_log10(Fraction(3 if irregular else 4, 4) * Fraction(2) ** q)
            g = Fraction(10) ** -k / Fraction(2) ** (floor_log2_pow10(-k) - 125) // 1 + 1
            return k, q + floor_log2_pow10(-k) + 2, g >> 63, g & m63

        def rop(g1: int, g0: int, cp: int) -> int:
            x1 = (g0 * cp) >> 64
            y0, y1 = (g1 * cp) & m64, (g1 * cp) >> 64
            z = ((y0 >> 1) + x1) & m64
            return ((y1 + (z >> 63)) & m64) | ((((z & m63) + m63) & m64) >> 63)

        rng = np.random.default_rng(30)
        fields = np.arange(2047, dtype=np.uint64) << np.uint64(52)
        mantissas = np.array([0, 1, 2, 2 ** 52 - 2, 2 ** 52 - 1], dtype=np.uint64)
        bits = np.concatenate([rng.integers(0, 2 ** 64, 210_000, dtype=np.uint64),
                               (fields[:, None] | mantissas).ravel(),
                               rng.integers(1, 2 ** 52, 2000, dtype=np.uint64)])
        finite = (bits >> np.uint64(52)) & np.uint64(2047) != 2047
        bits = bits[finite & (bits << np.uint64(1) != 0)]
        assert bits.size >= 200_000
        _, k, vb, vbl, vbr = _floattext._bounds(bits, _floattext._tables().scales)
        expected = []
        for b in bits.tolist():
            bq, t = b >> 52 & 2047, b & (2 ** 52 - 1)
            irregular = t == 0 and bq > 1
            k_ref, h, g1, g0 = scale(bq, irregular)
            cb = (t | (bq > 0) << 52) << 2
            expected.append((k_ref, rop(g1, g0, cb << h), rop(g1, g0, (cb - 2 + irregular) << h),
                             rop(g1, g0, (cb + 2) << h)))
        assert list(zip(k.tolist(), vb.tolist(), vbl.tolist(), vbr.tolist())) == expected

    @pytest.mark.parametrize("header, rows, csv_bytes, json_bytes", [
        (["a", "b[1]"], [], b"a,b[1]\n", b'{"columns": ["a", "b[1]"], "rows": []}'),
        (["a", "b"], np.empty((0, 2)), b"a,b\n", b'{"columns": ["a", "b"], "rows": []}'),
        (["x[1]"], [[1.0], [-0.0], [1e16], [2.5e-5]], b"x[1]\n1.0\n-0.0\n1e+16\n2.5e-05\n",
         b'{"columns": ["x[1]"], "rows": [[1.0], [-0.0], [1e+16], [2.5e-05]]}'),
    ], ids=["no-rows", "no-rows-array", "one-column"])
    def test_edge_table_bytes(self, header, rows, csv_bytes, json_bytes):
        assert self.written(rows, header) == (csv_bytes, json_bytes)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_cell_refused(self, tmp_path, value):
        # the first bad cell in row order is (1, b); (2, a) is bad too
        rows = [[0.0, 1.0, 2.0], [3.0, value, 4.0], [value, 5.0, value]]
        writer = RunWriter(str(tmp_path), "test", {}, out_format="both")
        with pytest.raises(NonFiniteValue, match=re.escape(
                f"table t, column b: non-finite value {value!r}")):
            writer.write_table(Table("t", ["a", "b", "c"], rows))
        assert not list(tmp_path.iterdir())
        proc = python("-c", """
import sys
from opendicke import cli
from opendicke.figures import Table
value = float(sys.argv[1])
rows = [[0.0, 1.0, 2.0], [3.0, value, 4.0], [value, 5.0, value]]
cli.spectrum_table = lambda name, p, grid: Table(name, ["a", "b", "c"], rows)
sys.exit(cli.main(sys.argv[2:]))""", repr(value), "spectrum", "--out", str(tmp_path / "o"),
            *DICKE_SETS, "--set", "grid.lam_list=1 2")
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure: table spectrum, column b:")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not (tmp_path / "o" / "spectrum.csv").exists()


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

    # a figure runs at its canonical parameters; only fig5 reads [physical]
    @pytest.mark.parametrize("fig_id, item", [
        (fig_id, item) for fig_id in ("fig1", "fig2", "fig3", "fig4", "fig5")
        for item in ("dicke.kappa=50", "grid.lam_points=3", "modulation.eps=0.05",
                     "evolve.samples=5", "physical.kappa=200")
        if (fig_id, item) != ("fig5", "physical.kappa=200")])
    def test_unread_section_refused(self, tmp_path, capsys, fig_id, item):
        section = item.split(".")[0]
        config = ["--config", str(FIG5_CONFIG)] if fig_id == "fig5" else []
        out = tmp_path / "x"
        rc = main(["reproduce-figure", fig_id, *config, "--set", item, "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("configuration error:")
        assert f"[{section}]" in err[0]
        assert not out.exists()


#: modules that a run which integrates nothing must not load
COSTLY = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.linalg",
          "concurrent.futures.process")


def costly_modules_after(statements: str, *argv: str) -> set:
    """The COSTLY modules loaded once ``statements`` ran in a fresh interpreter."""
    proc = python("-c", f"{statements}\nimport sys\n"
                        f"print(*(m for m in {COSTLY!r} if m in sys.modules))", *argv)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


RUN_MAIN = "import sys\nfrom opendicke.cli import main\nassert main(sys.argv[1:]) == 0"


class TestColdStart:
    """A fresh process imports SciPy's integrators only when it integrates."""

    def test_import_and_config_load_no_scipy(self):
        loaded = costly_modules_after(
            "import sys\nimport opendicke.cli\nfrom opendicke.config import load_config\n"
            "load_config(sys.argv[1])", str(FIG5_CONFIG))
        assert loaded == set()

    def test_number_text_kernel_loads_at_the_first_table_write(self, tmp_path):
        proc = python("-c", """
import sys
import opendicke.cli
from opendicke.config import load_config
from opendicke.figures import Table
from opendicke.runio import RunWriter
load_config(sys.argv[1])
print("opendicke._floattext" in sys.modules)
RunWriter(sys.argv[2], "test", {}).write_table(Table("t", ["a"], [[1.0]]))
print(sys.modules["opendicke._floattext"]._tables.cache_info().currsize)""",
                      str(FIG5_CONFIG), str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "1"]

    @pytest.mark.parametrize("mode, sets", [
        ("spectrum", ["--set", "grid.lam_list=1 2"]),
        ("steady-state", ["--set", "grid.lam_list=1 2"]),
        ("photon-flux", ["--set", "grid.lam_list=1 2"]),
        ("g2", []),
    ], ids=["spectrum", "steady-state", "photon-flux", "g2"])
    def test_run_integrates_nothing(self, tmp_path, mode, sets):
        # the README's list of runs that start without the integrators
        loaded = costly_modules_after(
            RUN_MAIN, mode, *DICKE_SETS, *sets, "--out", str(tmp_path / mode))
        assert not loaded & {"scipy.integrate", "scipy.linalg"}

    def test_tongue_cell_reaches_the_integrator(self, tmp_path):
        # 0.8 lam_c at nu = 1.2 lies inside the first tongue, so LSODA runs
        loaded = costly_modules_after(
            RUN_MAIN, "modulate", *DICKE_SETS, "--set", "grid.lam_list=8.326663997864532",
            "--set", "grid.nu_min=1.2", "--set", "grid.nu_max=1.2",
            "--set", "grid.nu_points=1", "--set", "modulation.t_max=100",
            "--out", str(tmp_path / "modulate"))
        assert "scipy.integrate" in loaded

    def test_map_workers_fork_after_the_integrators_load(self):
        # each forked worker would otherwise import scipy.integrate itself at
        # its first integrated cell; the executor records instead of forking
        proc = python("-c", """
import concurrent.futures, sys
from opendicke import modulation as mod
from opendicke.params import DickeParams
seen = []
class Recording:
    def __init__(self, max_workers):
        seen.append("scipy.integrate" in sys.modules)
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def map(self, fn, cells, chunksize=1):
        return map(fn, cells)
concurrent.futures.ProcessPoolExecutor = Recording
mod.os.cpu_count = lambda: 2
p = DickeParams(300.0, 1.0, 8.0, 0.0, 200.0, 1e5)
before = "scipy.integrate" in sys.modules
mod.driven_response_map(p, [8.0], [1.6, 1.7], t_max=150.0, workers=2)
print(before, *seen)""")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]


#: runs the console command's entry in a child process, then prints the
#: BLAS variables as the run left them
ENTRY_RUN = """import os, sys
from opendicke.__main__ import BLAS_THREAD_VARS, main
assert "numpy" not in sys.modules
assert main(sys.argv[1:]) == 0
print(*(os.environ.get(var, "-") for var in BLAS_THREAD_VARS))"""


class TestConsoleEntry:
    """The ``opendicke`` command pins the BLAS pools unless the user set them."""

    def test_entry_pins_the_benchmark_variables(self):
        from opendicke.__main__ import BLAS_THREAD_VARS
        assert BLAS_THREAD_VARS == blas_thread_vars()

    @pytest.mark.parametrize("user", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                             ids=["unset", "user-set"])
    def test_entry_sets_only_unset_variables(self, tmp_path, user):
        env = {key: value for key, value in os.environ.items()
               if key not in blas_thread_vars()}
        env.update(user, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", ENTRY_RUN, "steady-state", *DICKE_SETS,
             "--set", "grid.lam_list=1", "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [user.get(var, "1") for var in blas_thread_vars()]


#: canonical figure settings shrunk so that every bundle runs in seconds
FIGURE_REDUCTIONS = {
    "fig2": dict(lam_values=np.array([6.0])),
    "fig3": dict(lam_values=(6.0,)),
    "fig4": dict(map_points=2),
    "fig5": dict(points=8),
}
TAU_SETS = ["--set", "grid.tau_span=50", "--set", "grid.tau_points=64"]


def check_plot_script(out: Path, name: str):
    """The script compiles, and each column it reads heads the CSV it loaded.

    Columns are read as ``var["..."]`` or ``var[f"..."]`` from ``var =
    load("table")``; an f-string's fields take every value of the script's
    ``for k in range(a, b)`` loops.
    """
    text = (out / name).read_text()
    compile(text, name, "exec")
    loops = {var: range(int(a), int(b)) for var, a, b in
             re.findall(r"for (\w+) in range\((\d+), (\d+)\)", text)}
    loads = re.findall(r'(\w+) = load\("([^"]+)"\)', text)
    assert loads
    for var, table in loads:
        # every table the script loads was written next to it
        assert (out / table).exists(), table
        with open(out / table) as fh:
            header = set(next(csv.reader(fh)))
        for is_f, column in re.findall(rf'\b{var}\[(f?)"([^"]+)"\]', text):
            fields = re.findall(r"{(\w+)}", column) if is_f else []
            assert all(f in loops for f in fields), (name, column)
            for values in itertools.product(*(loops[f] for f in fields)):
                read = column.format(**dict(zip(fields, values))) if is_f else column
                assert read in header, (name, table, read)


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
        for fig_id, reduced in FIGURE_REDUCTIONS.items():
            monkeypatch.setitem(figures.FIGURE_PARAMS, fig_id,
                                dict(figures.FIGURE_PARAMS[fig_id], **reduced))
        out = tmp_path / "o"
        assert main([*argv, "--plots", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*_plot.py")) == scripts
        manifest = json.loads((out / "manifest.json").read_text())
        for name in scripts:
            assert name in manifest["outputs"]
            check_plot_script(out, name)


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


FUZZ_PHYSICAL_ITEMS = _items(
    FUZZ_PHYSICAL_KEYS, st.sampled_from(FUZZ_NUMBERS) | st.floats(-1e3, 1e3).map(repr),
    st.builds(_scaled_physical, st.sampled_from(sorted(CANONICAL_PHYSICAL)),
              st.floats(0.5, 2.0)),
    FUZZ_PHYSICAL_KEYS + ["physical.bogus"])


def _driven_cell(series: bool, lam: float, nu: float) -> list[str]:
    if series:
        return [f"modulation.time_series_lam={lam!r}", f"modulation.time_series_nu={nu!r}"]
    return [f"grid.lam_list={lam!r}", f"grid.nu_min={nu!r}", f"grid.nu_max={nu!r}",
            "grid.nu_points=1"]


#: ``reproduce-figure`` pools: ``[run]`` items, with no worker count above 2,
#: and the sections and keys that fig1-fig4 refuse
FUZZ_RUN_SETS = [f"run.{key}={value}" for key, values in (
    ("format", ("csv", "json", "both", "xml")), ("plots", ("true", "no", "1", "maybe")),
    ("workers", ("1", "2", "0", "-3", "2.5")), ("mode", ("g2",))) for value in values]
FUZZ_REFUSED_SETS = ["dicke.lam=1", "grid.lam_points=3", "modulation.eps=0.05",
                     "evolve.samples=5", "physical.kappa=200", "nosection.key=1",
                     "figure.bogus=1"]
#: flag groups, the last two with values that argparse rejects
FUZZ_FIGURE_FLAGS = [["--workers", "2"], ["--workers", "1"], ["--workers", "0"],
                     ["--workers", "-1"], ["--format", "json"], ["--format", "both"],
                     ["--plots"], ["--config", str(FIG5_CONFIG)],
                     ["--config", str(REPO / "configs" / "missing.ini")],
                     ["--workers", "x"], ["--format", "xml"]]


def _figure_argv(fig_ids):
    """A ``reproduce-figure`` command line for one of ``fig_ids``, or for none.

    The id comes as the positional argument, as a ``figure.id`` item, or
    not at all; up to two flag groups, one to three ``[run]`` or
    ``figure.id`` items and at most one refused or malformed item follow.
    """
    ids = st.sampled_from([*fig_ids, "fig5", "fig9", ""])
    valid = st.sampled_from(FUZZ_RUN_SETS) | ids.map(lambda v: f"figure.id={v}")
    keys = ["run.format", "run.plots", "run.workers", "figure.id"]
    malformed = (st.builds(lambda k, v: f"{k}={v}", st.sampled_from(keys),
                           st.sampled_from(FUZZ_MALFORMED))
                 | st.builds(lambda k, v: f"{k}{v}", st.sampled_from(keys), ids)
                 | ids.map(lambda v: f"figure={v}"))
    return st.builds(
        lambda fig, flags, items, odd: [
            "reproduce-figure", *([fig] if fig else []), *(f for g in flags for f in g),
            *[arg for item in items + odd for arg in ("--set", item)]],
        st.sampled_from([*fig_ids, None]),
        st.lists(st.sampled_from(FUZZ_FIGURE_FLAGS), max_size=2),
        st.lists(valid, min_size=1, max_size=3),
        st.lists(st.sampled_from(FUZZ_REFUSED_SETS) | malformed, max_size=1))


#: every figure at its reduced size
REDUCED_FIGURES = {fig_id: dict(figures.FIGURE_PARAMS[fig_id], **reduced)
                   for fig_id, reduced in FIGURE_REDUCTIONS.items()}


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
    @pytest.mark.parametrize("argv", [
        ["reproduce-figure", "fig1", "--workers", "x"],
        ["reproduce-figure", "fig1", "--workers", "1.5"],
        ["spectrum", *DICKE_SETS, "--format", "xml"],
        ["spectrum", *DICKE_SETS, "--bogus"],
        [],
        ["spectrum", "--bo\ngus"],
        ["spectrum", "--config", "a\nb.ini"],
    ], ids=["workers-x", "workers-1.5", "format-xml", "unknown-flag", "no-mode",
            "newline-flag", "newline-config"])
    def test_rejected_command_line_is_one_line(self, argv, capsys):
        """A command line that argparse rejects: exit 2, one line, no usage block.

        ``main`` returns the code; argparse on its own would raise SystemExit.
        """
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("configuration error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and "usage:" not in err

    @pytest.mark.parametrize("lam_list", [
        [2.0, 9.0, meanfield.critical_coupling(DickeParams(300.0, 1.0, 0.0, 0.0, 200.0, 1e5)),
         12.0],
        [2.0, 10.5, 12.0]], ids=["at-threshold", "above-threshold"])
    @pytest.mark.parametrize("mode", ["photon-flux", "g2-map"])
    def test_coupling_list_through_threshold_is_one_numerical_failure(
            self, tmp_path, capsys, mode, lam_list):
        """Exit 3 with the message of the first failing coupling alone; nothing written."""
        p = DickeParams(300.0, 1.0, 5.0, 0.0, 200.0, 1e5)
        with pytest.raises(ThresholdError) as alone:
            for lam in lam_list:
                photon_flux(p.with_coupling(lam))
        out = tmp_path / "o"
        rc = main([mode, "--out", str(out), *DICKE_SETS,
                   "--set", "grid.lam_list=" + " ".join(map(repr, lam_list))])
        assert rc == 3
        assert capsys.readouterr().err == f"numerical failure: {alone.value}\n"
        assert not out.exists()

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--help"])
        assert exc.value.code == 0
        assert "--workers" in capsys.readouterr().out

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
    @given(items=FUZZ_PHYSICAL_ITEMS)
    @example(items=["physical.cavity_wavevector=1e300"])
    def test_fuzzed_physical_keeps_the_exit_contract(self, items):
        """As above for ``map-params`` on the canonical fig5 geometry."""
        argv = ["map-params", "--config", str(FIG5_CONFIG),
                *[arg for item in items for arg in ("--set", item)]]
        rc, text, _ = _run_quietly(argv)
        _assert_exit_contract(argv, rc, text)

    @settings(max_examples=40, deadline=timedelta(seconds=20), database=None)
    @given(items=FUZZ_PHYSICAL_ITEMS)
    def test_fuzzed_fig5_keeps_the_exit_contract(self, items):
        """As above for ``reproduce-figure fig5`` at its reduced point count."""
        argv = ["reproduce-figure", "fig5", "--config", str(FIG5_CONFIG),
                *[arg for item in items for arg in ("--set", item)]]
        reduced = dict(figures.FIGURE_PARAMS["fig5"], **FIGURE_REDUCTIONS["fig5"])
        with mock.patch.dict(figures.FIGURE_PARAMS, fig5=reduced):
            rc, text, _ = _run_quietly(argv)
        _assert_exit_contract(argv, rc, text)

    @settings(max_examples=60, deadline=timedelta(seconds=20), database=None)
    @given(argv=_figure_argv(["fig1", "fig2", "fig3"]))
    @example(argv=["reproduce-figure", "--format", "both", "--plots",
                   "--set", "figure.id=fig2", "--set", "run.workers=2"])
    def test_fuzzed_figures_keep_the_exit_contract(self, argv):
        """As above for ``reproduce-figure`` fig1-fig3 at their reduced sizes."""
        with mock.patch.dict(figures.FIGURE_PARAMS, REDUCED_FIGURES):
            rc, text, _ = _run_quietly(argv)
        _assert_exit_contract(argv, rc, text)

    @settings(max_examples=6, deadline=timedelta(seconds=20), database=None)
    @given(argv=_figure_argv(["fig4"]))
    @example(argv=["reproduce-figure", "fig4", "--workers", "2", "--set", "run.plots=1"])
    def test_fuzzed_fig4_keeps_the_exit_contract(self, argv):
        """As above for fig4; its response map has two cells a side."""
        with mock.patch.dict(figures.FIGURE_PARAMS, REDUCED_FIGURES):
            rc, text, _ = _run_quietly(argv)
        _assert_exit_contract(argv, rc, text)
