"""Command-line interface: one subcommand per analysis mode.

Every run reads an INI config (plus ``--set section.key=value`` overrides),
writes CSV/JSON tables and a manifest with per-output checksums into the
output directory, and exits 0 on success, 2 on configuration errors, 3 on
numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import correlations as corr
from . import meanfield as mfd
from . import modulation as mod
from .config import FORMATS, MODES, ConfigError, RunConfig, load_config
from .figures import (G2_FFT_HEADER, Table, branch_table, g2_fft_rows,
                      reproduce_figure, response_map_table, spectrum_table,
                      timeseries_table)
from .fluctuations import ValidityError
from .params import ParameterError
from .runio import RunWriter, plot_script

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


def _run_steady_state(cfg: RunConfig) -> list[Table]:
    p = cfg.require_dicke()
    branch = mfd.steady_states(p, cfg.lam_grid())
    return [branch_table("steady_states", branch, mfd.critical_coupling(p))]


def _run_evolve(cfg: RunConfig) -> list[Table]:
    p = cfg.require_dicke()
    ev = cfg.evolve
    t_max = float(ev.get("t_max", 100.0 / p.omega0))
    samples = int(ev.get("samples", 2000))
    n = p.atom_number
    beta0 = complex(ev.get("beta0_re", 1e-3 * n), ev.get("beta0_im", 0.0))
    if abs(beta0) > n / 2.0:
        raise ConfigError(f"[evolve] |beta0| = {abs(beta0):g} exceeds N/2 = {n / 2.0:g}")
    state0 = mfd.MeanFieldState(
        complex(ev.get("alpha0_re", 1e-3 * np.sqrt(n)), ev.get("alpha0_im", 0.0)),
        beta0, ev.get("w0", mfd._w_from_beta(beta0, n)))
    if abs(state0.pseudo_momentum() - n * n / 4.0) > 1e-6 * n * n / 4.0:
        raise ConfigError(f"[evolve] |beta0|^2 + w0^2 = {state0.pseudo_momentum():g} "
                          f"differs from N^2/4 = {n * n / 4.0:g}")
    t, y = mfd.integrate(state0, p, (0.0, t_max), t_eval=np.linspace(0.0, t_max, samples))
    return [Table("trajectory", ["t[1/omega0]", "re_alpha[1]", "im_alpha[1]",
                                 "re_beta[1]", "im_beta[1]", "w[1]", "pseudo_momentum[1]"],
                  np.column_stack([t, y.T, y[2] ** 2 + y[3] ** 2 + y[4] ** 2]))]


def _run_spectrum(cfg: RunConfig) -> list[Table]:
    return [spectrum_table("spectrum", cfg.require_dicke(), cfg.lam_grid())]


def _run_photon_flux(cfg: RunConfig) -> list[Table]:
    p, lam = cfg.require_dicke(), cfg.lam_grid()
    rows = np.column_stack([lam, corr.photon_flux(p, lam)])
    return [Table("photon_flux", ["lam[omega0]", "flux[omega0]"], rows)]


def _correlations(cfg: RunConfig, p) -> corr.CorrelationSeries:
    g = cfg.grid
    if {"tau_span", "tau_points"} <= g.keys():
        tau = np.linspace(0.0, float(g["tau_span"]), int(g["tau_points"]))
        return corr.two_time_correlations(p, tau)
    return corr.default_correlations(p)


def _run_g2(cfg: RunConfig) -> list[Table]:
    series = _correlations(cfg, cfg.require_dicke())
    rows = np.column_stack([series.tau, series.g1.real, series.g1.imag, series.g2])
    return [Table("g2", ["tau[1/omega0]", "g1_re[1]", "g1_im[1]", "g2[1]"], rows)]


def _run_g2_map(cfg: RunConfig) -> list[Table]:
    p = cfg.require_dicke()
    rows = [g2_fft_rows(lam, _correlations(cfg, p.with_coupling(float(lam))), p.omega0)
            for lam in cfg.lam_grid()]
    return [Table("g2_fft_map", G2_FFT_HEADER, np.vstack(rows))]


def _run_modulate(cfg: RunConfig) -> list[Table]:
    p = cfg.require_dicke()
    msec = cfg.modulation
    # the keys given, so the defaults stay those of ``modulation``
    drive = {k: msec[k] for k in ("eps", "seed", "t_max") if k in msec}
    if {"time_series_lam", "time_series_nu"} <= msec.keys():
        traj = mod.driven_trajectory(p, msec["time_series_lam"], msec["time_series_nu"],
                                     **drive)
        return [timeseries_table("modulate_timeseries", traj)]
    rmap = mod.driven_response_map(p, cfg.lam_grid(), cfg.nu_grid(),
                                   workers=cfg.workers, **drive)
    return [response_map_table("response_map", p, rmap)]


def _run_reproduce_figure(cfg: RunConfig) -> list[Table]:
    return reproduce_figure(cfg.figure_id, physical=cfg.physical, workers=cfg.workers)


_RUNNERS = {
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
    """Compute the mode's tables, then write them, their plot script and the manifest."""
    writer = RunWriter(cfg.out_dir, cfg.mode, _resolved_params(cfg),
                       cfg.out_format)
    if cfg.mode == "map-params":
        writer.write_json("dicke_params.json", asdict(cfg.require_dicke()))
    else:
        tables = _RUNNERS[cfg.mode](cfg)
        for table in tables:
            writer.write_table(table)
        if cfg.plots:
            # a figure's script is named by its id, any other mode's by its one table
            key = cfg.figure_id if cfg.mode == "reproduce-figure" else tables[0].name
            script = plot_script(key)
            if script:
                writer.write_script(f"{key}_plot.py", script)
    writer.finalize()
    return writer


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError where argparse would print usage and exit 2.

    ``main`` reports it in one line; subparsers are built from this class.
    """

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="opendicke",
        description="Steady states, excitation spectra and photodetection "
                    "observables of a driven condensate in a lossy cavity.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", help="INI run configuration")
        sp.add_argument("--out", help="output directory (overrides config)")
        sp.add_argument("--workers", help="parallel workers, an integer >= 1")
        sp.add_argument("--format", help=f"output format, one of {', '.join(FORMATS)} "
                                         "(overrides config)")
        sp.add_argument("--plots", action="store_true",
                        help="emit plot scripts next to the data")
        sp.add_argument("--set", action="append", default=[], metavar="S.K=V",
                        help="override a config value, e.g. dicke.lam=9")
        if mode == "reproduce-figure":
            sp.add_argument("figure", nargs="?", help="fig1..fig5")
    return parser


def _overrides(args: argparse.Namespace) -> list[str]:
    """The command-line flags as overrides, applied after any --set."""
    overrides = [*args.set, f"run.mode={args.mode}"]
    if args.out:
        overrides.append(f"run.out={args.out}")
    overrides += [f"run.{key}={getattr(args, key)}" for key in ("workers", "format")
                  if getattr(args, key) is not None]
    if args.plots:
        overrides.append("run.plots=true")
    if getattr(args, "figure", None):
        overrides.append(f"figure.id={args.figure}")
    return overrides


def main(argv=None) -> int:
    # warnings are held back, so that a failure stays one line
    try:
        with warnings.catch_warnings(record=True) as caught:
            args = build_parser().parse_args(argv)
            run(load_config(args.config, _overrides(args)))
        lines, code = [f"warning: {warning.message}" for warning in caught], 0
    except (ConfigError, ParameterError, OSError) as exc:
        lines, code = [f"configuration error: {exc}"], EXIT_CONFIG
    except (RuntimeError, ValidityError, np.linalg.LinAlgError) as exc:
        lines, code = [f"numerical failure: {exc}"], EXIT_NUMERIC
    for line in lines:
        # line breaks escaped, so that each message stays one line
        print(line.replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
