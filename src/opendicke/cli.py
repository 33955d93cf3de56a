"""Command-line interface: one subcommand per analysis mode.

Every run reads an INI config (plus ``--set section.key=value`` overrides),
writes CSV/JSON tables and a manifest with per-output checksums into the
output directory, and exits 0 on success, 2 on configuration errors, 3 on
numerical failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from . import correlations as corr
from . import meanfield as mfd
from . import modulation as mod
from .config import MODES, ConfigError, RunConfig, load_config
from .figures import (G2_FFT_HEADER, MissingPhysicalParams, Table, branch_table,
                      g2_fft_rows, reproduce_figure, response_map_table,
                      spectrum_table, timeseries_table)
from .fluctuations import ValidityError
from .params import ParameterError
from .runio import RunWriter, figure_plot_script, plot_script

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _resolved_params(cfg: RunConfig) -> dict:
    out: dict = {"mode": cfg.mode, "format": cfg.out_format, "workers": cfg.workers}
    if cfg.dicke is not None:
        out["dicke"] = asdict(cfg.dicke)
    if cfg.physical is not None:
        out["physical"] = asdict(cfg.physical)
    for name in ("grid", "modulation", "evolve"):
        section = getattr(cfg, name)
        if section:
            out[name] = section
    if cfg.figure_id:
        out["figure_id"] = cfg.figure_id
    return out


def _run_map_params(cfg: RunConfig, writer: RunWriter) -> None:
    p = cfg.require_dicke()
    writer.write_json("dicke_params.json", asdict(p))


def _run_steady_state(cfg: RunConfig, writer: RunWriter) -> None:
    p = cfg.require_dicke()
    branch = mfd.steady_states(p, cfg.lam_grid())
    writer.write_table(branch_table("steady_states", branch, mfd.critical_coupling(p)))
    if cfg.plots:
        writer.write_script("steady_states_plot.py", plot_script("steady-state"))


def _run_evolve(cfg: RunConfig, writer: RunWriter) -> None:
    p = cfg.require_dicke()
    ev = cfg.evolve
    t_max = float(ev.get("t_max", 100.0 / p.omega0))
    samples = int(ev.get("samples", 2000))
    n = p.atom_number
    state0 = mfd.MeanFieldState(
        complex(ev.get("alpha0_re", 1e-3 * np.sqrt(n)), ev.get("alpha0_im", 0.0)),
        complex(ev.get("beta0_re", 1e-3 * n), ev.get("beta0_im", 0.0)),
        float(ev.get("w0", -np.sqrt(n * n / 4.0 - (1e-3 * n) ** 2))))
    traj = mfd.integrate(state0, p, (0.0, t_max),
                         t_eval=np.linspace(0.0, t_max, samples))
    rows = [[t, s.alpha.real, s.alpha.imag, s.beta.real, s.beta.imag, s.w,
             s.pseudo_momentum()]
            for t, s in zip(traj.t, traj.states)]
    writer.write_table(Table("trajectory",
                             ["t[1/omega0]", "re_alpha[1]", "im_alpha[1]",
                              "re_beta[1]", "im_beta[1]", "w[1]",
                              "pseudo_momentum[1]"], rows))


def _run_spectrum(cfg: RunConfig, writer: RunWriter) -> None:
    writer.write_table(spectrum_table("spectrum", cfg.require_dicke(), cfg.lam_grid()))
    if cfg.plots:
        writer.write_script("spectrum_plot.py", plot_script("spectrum"))


def _run_photon_flux(cfg: RunConfig, writer: RunWriter) -> None:
    p = cfg.require_dicke()
    grid = cfg.lam_grid()
    rows = []
    for lam in grid:
        q = p.with_coupling(float(lam))
        rows.append([lam, corr.photon_flux(q)])
    writer.write_table(Table("photon_flux",
                             ["lam[omega0]", "flux[omega0]"], rows))


def _correlations(cfg: RunConfig, p) -> corr.CorrelationSeries:
    g = cfg.grid
    if {"tau_span", "tau_points"} <= g.keys():
        tau = np.linspace(0.0, float(g["tau_span"]), int(g["tau_points"]))
        return corr.two_time_correlations(p, tau)
    return corr.default_correlations(p)


def _run_g2(cfg: RunConfig, writer: RunWriter) -> None:
    series = _correlations(cfg, cfg.require_dicke())
    rows = [[t, g1.real, g1.imag, g2v]
            for t, g1, g2v in zip(series.tau, series.g1, series.g2)]
    writer.write_table(Table("g2", ["tau[1/omega0]", "g1_re[1]", "g1_im[1]",
                                    "g2[1]"], rows))
    if cfg.plots:
        writer.write_script("g2_plot.py", plot_script("g2"))


def _run_g2_map(cfg: RunConfig, writer: RunWriter) -> None:
    p = cfg.require_dicke()
    rows = []
    for lam in cfg.lam_grid():
        series = _correlations(cfg, p.with_coupling(float(lam)))
        rows += g2_fft_rows(lam, series, p.omega0)
    writer.write_table(Table("g2_fft_map", G2_FFT_HEADER, rows))
    if cfg.plots:
        writer.write_script("g2_fft_map_plot.py", plot_script("g2-map"))


def _run_modulate(cfg: RunConfig, writer: RunWriter) -> None:
    p = cfg.require_dicke()
    msec = cfg.modulation
    eps = float(msec.get("eps", 0.02))
    t_max = msec.get("t_max")
    t_max = float(t_max) if t_max is not None else None
    seed = float(msec.get("seed", 1e-4))
    if {"time_series_lam", "time_series_nu"} <= msec.keys():
        traj = mod.driven_trajectory(p, float(msec["time_series_lam"]),
                                     float(msec["time_series_nu"]), eps=eps,
                                     seed=seed, t_max=t_max)
        writer.write_table(timeseries_table("modulate_timeseries", traj))
        return
    rmap = mod.driven_response_map(p, cfg.lam_grid(), cfg.nu_grid(), eps=eps,
                                   seed=seed, t_max=t_max, workers=cfg.workers)
    writer.write_table(response_map_table("response_map", p, rmap))
    if cfg.plots:
        writer.write_script("response_map_plot.py", plot_script("modulate"))


def _run_reproduce_figure(cfg: RunConfig, writer: RunWriter) -> None:
    from .figures import FIGURE_IDS

    fig_id = cfg.figure_id
    if not fig_id:
        raise ConfigError("reproduce-figure needs a figure id (fig1..fig5)")
    if fig_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {fig_id!r}; valid: {FIGURE_IDS}")
    tables = reproduce_figure(fig_id, physical=cfg.physical,
                              workers=cfg.workers)
    for table in tables:
        writer.write_table(table)
    if cfg.plots:
        script = figure_plot_script(fig_id)
        if script:
            writer.write_script(f"{fig_id}_plot.py", script)


_RUNNERS = {
    "map-params": _run_map_params,
    "steady-state": _run_steady_state,
    "evolve": _run_evolve,
    "spectrum": _run_spectrum,
    "photon-flux": _run_photon_flux,
    "g2": _run_g2,
    "g2-map": _run_g2_map,
    "modulate": _run_modulate,
    "reproduce-figure": _run_reproduce_figure,
}


def run(cfg: RunConfig) -> "RunWriter":
    writer = RunWriter(cfg.out_dir, cfg.mode, _resolved_params(cfg),
                       cfg.out_format)
    _RUNNERS[cfg.mode](cfg, writer)
    writer.finalize()
    return writer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opendicke",
        description="Steady states, excitation spectra and photodetection "
                    "observables of a driven condensate in a lossy cavity.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", help="INI run configuration")
        sp.add_argument("--out", help="output directory (overrides config)")
        sp.add_argument("--workers", type=int, help="parallel workers")
        sp.add_argument("--format", choices=("csv", "json", "both"),
                        help="output format (overrides config)")
        sp.add_argument("--plots", action="store_true",
                        help="emit plot scripts next to the data")
        sp.add_argument("--set", action="append", default=[], metavar="S.K=V",
                        help="override a config value, e.g. dicke.lam=9")
        if mode == "reproduce-figure":
            sp.add_argument("figure", nargs="?", help="fig1..fig5")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # command-line flags are overrides like any --set, applied after them
    overrides = [*args.set, f"run.mode={args.mode}"]
    if args.out:
        overrides.append(f"run.out={args.out}")
    if args.workers:
        overrides.append(f"run.workers={args.workers}")
    if args.format:
        overrides.append(f"run.format={args.format}")
    if args.plots:
        overrides.append("run.plots=true")
    if getattr(args, "figure", None):
        overrides.append(f"figure.id={args.figure}")
    try:
        cfg = load_config(args.config, overrides)
    except (ConfigError, ParameterError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        run(cfg)
    except (ConfigError, MissingPhysicalParams, ParameterError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (corr.ThresholdError, mfd.ConvergenceError, mfd.IntegrationError,
            ValidityError, RuntimeError, np.linalg.LinAlgError,
            ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
