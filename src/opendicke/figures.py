"""Canonical parameter sets and end-to-end reproduction of the five figures.

Each of the package's reference figures is reproducible as a set of CSV
tables plus an optional plot script.  The canonical parameters are pinned
here in one table; the dispersive operating point omega = 300 omega0,
kappa = 200 omega0 is shared by all figures.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import correlations as corr
from . import meanfield as mfd
from . import modulation as mod
from .config import FIGURE_IDS, ConfigError
from .fluctuations import spectrum_sweep
from .params import DickeParams, PhysicalParams, density_profile, map_to_dicke
from .runio import Table

#: shared dispersive operating point (frequencies in units of omega0)
BASE = dict(omega=300.0, omega0=1.0, kappa=200.0)

#: per-figure canonical settings
FIGURE_PARAMS = {
    # eigenfrequency sweep; lam_c/omega0 = 10.4083 at this operating point
    "fig1": dict(lam_over_lc=(0.0, 1.4), points=281,
                 zoom=(1.0 - 1e-5, 1.0 + 1e-5), zoom_points=201),
    # g2(tau) and its Fourier map below threshold, symmetric trap
    "fig2": dict(lam_values=np.linspace(0.5, 10.3, 25), atom_number=1e5,
                 long_time_lam=10.0),
    # beating of g2 for a displaced trap, bias lam' = lam/360
    "fig3": dict(lam_values=(2.0, 6.0, 8.0, 9.0, 10.0), bias_ratio=1.0 / 360.0,
                 atom_number=1e6),
    # modulation-spectroscopy response maps, depth eps = 1/50
    "fig4": dict(lam_over_lc=(0.5, 0.95), nu_over_omega0=(0.6, 2.2),
                 map_points=20, eps=1.0 / 50.0, atom_number=1e5,
                 cell=dict(lam_over_lc=0.8, nu=1.2)),
    # steady-state branches and displaced-trap density profiles at lam = 9
    "fig5": dict(lam_over_lc=(0.0, 2.0), points=160, atom_number=1e5,
                 density_lam=9.0),
}

def base_params(atom_number: float = 1e5, lam: float = 0.0,
                lam_prime: float = 0.0) -> DickeParams:
    return DickeParams(lam=lam, lam_prime=lam_prime,
                       atom_number=atom_number, **BASE)


BRANCH_HEADER = ["lam[omega0]", "lam_over_lam_c[1]", "re_alpha[1]", "im_alpha[1]",
                 "re_beta[1]", "im_beta[1]", "w[1]", "stable[bool]"]
G2_FFT_HEADER = ["lam[omega0]", "nu[omega0]", "log10_abs_fft[1]"]


def spectrum_table(name: str, p: DickeParams, lam_grid) -> Table:
    """Tracked eigenfrequencies over a coupling sweep, one row per coupling."""
    sw = spectrum_sweep(p, lam_grid)
    lam = sw.lam_grid
    rows = np.column_stack([lam, lam / mfd.critical_coupling(p), sw.frequencies.view(float),
                            np.full(lam.size, float(sw.polariton_index))])
    return Table(name, ["lam[omega0]", "lam_over_lam_c[1]",
                        "re_omega_1[omega0]", "im_omega_1[omega0]",
                        "re_omega_2[omega0]", "im_omega_2[omega0]",
                        "re_omega_3[omega0]", "im_omega_3[omega0]",
                        "re_omega_4[omega0]", "im_omega_4[omega0]",
                        "polariton_branch[index]"], rows)


def branch_table(name: str, branch: mfd.SteadyStateBranch, lc: float) -> Table:
    """Steady states with stability flags, one row per state."""
    lam = branch.lam
    return Table(name, BRANCH_HEADER, np.column_stack(
        [lam, lam / lc, branch.vectors, branch.flags == "stable"]))


def response_map_table(name: str, p: DickeParams, rmap: mod.ResponseMap) -> Table:
    """Driven response map, one row per (lam, nu) cell."""
    lc = mfd.critical_coupling(p)
    n_lam, n_nu = rmap.max_alpha2.shape
    rows = np.column_stack([np.repeat(rmap.lam_grid / lc, n_nu),
                            np.tile(rmap.nu_grid / p.omega0, n_lam),
                            rmap.max_alpha2.ravel(), rmap.max_re_beta.ravel(),
                            rmap.stabilized.ravel()])
    return Table(name, ["lam_over_lam_c[1]", "nu_over_omega0[1]", "max_alpha2_over_N[1]",
                        "max_rebeta_over_N[1]", "stabilized_flag[bool]"], rows)


def timeseries_table(name: str, traj: mfd.Trajectory) -> Table:
    """Scaled single-cell time series of the driven system."""
    return Table(name, ["t[1/omega0]", "re_beta_over_N[1]", "alpha2_over_N[1]"],
                 np.column_stack([traj.t, traj.y[2], traj.y[0] ** 2 + traj.y[1] ** 2]))


def g2_fft_rows(lam: float, series: corr.CorrelationSeries, omega0: float) -> np.ndarray:
    """Rows (lam, nu, log10 |FFT g2|) of the g2 spectrum up to nu = 3 omega0."""
    spec = corr.g2_spectrum(series)
    keep = spec.nu <= 3.0 * omega0
    nu = spec.nu[keep]
    return np.column_stack([np.full(nu.size, lam), nu, spec.log_magnitude[keep]])


def figure1_tables() -> list[Table]:
    cfg = FIGURE_PARAMS["fig1"]
    p = base_params()
    lc = mfd.critical_coupling(p)
    return [spectrum_table(name, p, np.linspace(lo, hi, npts) * lc)
            for name, (lo, hi), npts in (
                ("fig1_spectrum", cfg["lam_over_lc"], cfg["points"]),
                ("fig1_spectrum_zoom", cfg["zoom"], cfg["zoom_points"]))]


def figure2_tables() -> list[Table]:
    cfg = FIGURE_PARAMS["fig2"]
    n_atoms = cfg["atom_number"]
    g2_rows, fft_rows = [], []
    for lam in cfg["lam_values"]:
        p = base_params(n_atoms, lam=float(lam))
        series = corr.default_correlations(p)
        tau = series.tau[::16]
        g2_rows.append(np.column_stack([np.full(tau.size, lam), tau, series.g2[::16]]))
        fft_rows.append(g2_fft_rows(lam, series, p.omega0))
    series = corr.default_correlations(base_params(n_atoms, lam=cfg["long_time_lam"]))
    return [
        Table("fig2a_g2_tau", ["lam[omega0]", "tau[1/omega0]", "g2[1]"],
              np.vstack(g2_rows)),
        Table("fig2b_g2_fft", G2_FFT_HEADER, np.vstack(fft_rows)),
        Table("fig2c_g2_longtime", ["tau[1/omega0]", "g2[1]"],
              np.column_stack([series.tau[::4], series.g2[::4]])),
    ]


def figure3_tables() -> list[Table]:
    cfg = FIGURE_PARAMS["fig3"]
    rows = []
    for lam in cfg["lam_values"]:
        for bias in (cfg["bias_ratio"] * lam, 0.0):
            p = base_params(cfg["atom_number"], lam=lam, lam_prime=bias)
            series = corr.default_correlations(p)
            tau = series.tau[::8]
            rows.append(np.column_stack([np.full(tau.size, lam), np.full(tau.size, bias),
                                         tau, series.g2[::8]]))
    return [Table("fig3_g2_beating",
                  ["lam[omega0]", "lam_prime[omega0]", "tau[1/omega0]", "g2[1]"],
                  np.vstack(rows))]


def figure4_tables(workers: int = 1) -> list[Table]:
    cfg = FIGURE_PARAMS["fig4"]
    p = base_params(cfg["atom_number"])
    lc = mfd.critical_coupling(p)
    n = cfg["map_points"]
    lam_grid = np.linspace(*cfg["lam_over_lc"], n) * lc
    nu_grid = np.linspace(*cfg["nu_over_omega0"], n) * p.omega0
    rmap = mod.driven_response_map(p, lam_grid, nu_grid, eps=cfg["eps"],
                                   workers=workers)
    cell = cfg["cell"]
    traj = mod.driven_trajectory(p, cell["lam_over_lc"] * lc, cell["nu"],
                                 eps=cfg["eps"])
    return [response_map_table("fig4ab_response_map", p, rmap),
            timeseries_table("fig4c_timeseries", traj)]


def figure5_tables(physical: PhysicalParams) -> list[Table]:
    cfg = FIGURE_PARAMS["fig5"]
    p = base_params(cfg["atom_number"])
    lc = mfd.critical_coupling(p)
    grid = np.linspace(*cfg["lam_over_lc"], cfg["points"]) * lc
    tables = [branch_table("fig5a_branches", mfd.steady_states(p, grid), lc)]
    lam_density = cfg["density_lam"]
    mirrored = replace(physical, trap_displacement=-physical.trap_displacement)
    # density panel: one fixed trap, the two signs of the bias field select
    # the two organized configurations (patterns shifted by half a pump
    # wavelength); the branch panels below use the displaced geometries
    plus = map_to_dicke(physical)
    ratio = abs(plus.lam_prime / plus.lam)
    grid_x = np.linspace(*physical.support, 2001)
    columns = [grid_x]
    for sign in (+1.0, -1.0):
        ss = mfd.operating_point(plus.with_coupling(lam_density, sign * ratio * lam_density))
        columns.append(density_profile(physical, ss, grid_x))
    tables.append(Table(
        "fig5b_density",
        ["x[pump_wavelength]", "density_plus[atoms_per_length]",
         "density_minus[atoms_per_length]"], np.column_stack(columns)))
    for tag, panel, dk in (("plus", "c", plus), ("minus", "d", map_to_dicke(mirrored))):
        branch = mfd.steady_states(dk, grid[grid > 0],
                                   lam_prime_over_lam=dk.lam_prime / dk.lam)
        tables.append(branch_table(f"fig5{panel}_branches_{tag}", branch, lc))
    return tables


def reproduce_figure(fig_id: str | None, physical: PhysicalParams | None = None,
                     workers: int = 1) -> list[Table]:
    """All data tables of the named figure at canonical parameters.

    A missing or unknown id, and fig5 without the physical trap geometry
    that its displaced-trap panels (b)-(d) need, raise ConfigError before
    any table is computed.
    """
    if not fig_id:
        raise ConfigError("reproduce-figure needs a figure id (fig1..fig5)")
    if fig_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {fig_id!r}; valid: {FIGURE_IDS}")
    if fig_id == "fig1":
        return figure1_tables()
    if fig_id == "fig2":
        return figure2_tables()
    if fig_id == "fig3":
        return figure3_tables()
    if fig_id == "fig4":
        return figure4_tables(workers=workers)
    if physical is None:
        raise ConfigError(
            "fig5 panels (b)-(d) need a [physical] parameter block "
            "(see configs/fig5_physical.ini for the canonical geometry)")
    return figure5_tables(physical)
