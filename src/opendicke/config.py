"""Run configuration: INI-style key-value files with nested sections.

A run is described by a [run] section (mode, output directory, formats),
one of [dicke] or [physical] for the model parameters, and optional [grid],
[modulation], [evolve] and [figure] sections consumed by the individual
modes.  Command line flags override file values.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .params import (MAX_MAGNITUDE, DickeParams, ParameterError, PhysicalParams,
                     map_to_dicke)

MODES = ("steady-state", "evolve", "spectrum", "photon-flux", "g2", "g2-map",
         "modulate", "map-params", "reproduce-figure")
FORMATS = ("csv", "json", "both")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_DICKE_KEYS = ("omega", "omega0", "lam", "lam_prime", "kappa", "atom_number")
_PHYSICAL_KEYS = ("pump_cavity_detuning", "dispersive_shift", "pump_coupling",
                  "atom_number", "condensate_length", "cavity_length",
                  "trap_displacement", "cavity_wavevector", "atom_mass",
                  "kappa", "hbar", "max_displacement_fraction")
_PHYSICAL_OPTIONAL = ("hbar", "max_displacement_fraction")
_RUN_KEYS = ("mode", "out", "format", "plots", "workers")
_GRID_KEYS = ("lam_list", "lam_min", "lam_max", "lam_points",
              "nu_min", "nu_max", "nu_points", "tau_span", "tau_points")
_MODULATION_KEYS = ("eps", "t_max", "seed", "time_series_lam", "time_series_nu")
_EVOLVE_KEYS = ("t_max", "samples", "alpha0_re", "alpha0_im",
                "beta0_re", "beta0_im", "w0")
_FIGURE_KEYS = ("id",)


@dataclass
class RunConfig:
    mode: str
    out_dir: str = "./out"
    out_format: str = "csv"
    plots: bool = False
    workers: int = 1
    dicke: DickeParams | None = None
    physical: PhysicalParams | None = None
    grid: dict = field(default_factory=dict)
    modulation: dict = field(default_factory=dict)
    evolve: dict = field(default_factory=dict)
    figure_id: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; valid: {MODES}")
        if self.out_format not in FORMATS:
            raise ConfigError(f"unknown format {self.out_format!r}; valid: {FORMATS}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def require_dicke(self) -> DickeParams:
        """Model parameters, mapping the physical block if necessary."""
        if self.dicke is not None:
            return self.dicke
        if self.physical is not None:
            return map_to_dicke(self.physical)
        raise ConfigError("this mode needs a [dicke] or [physical] section")

    def lam_grid(self) -> np.ndarray:
        g = self.grid
        if "lam_list" in g:
            values = np.asarray(g["lam_list"], dtype=float)
        elif {"lam_min", "lam_max", "lam_points"} <= g.keys():
            values = np.linspace(float(g["lam_min"]), float(g["lam_max"]),
                                 int(g["lam_points"]))
        else:
            raise ConfigError(
                "missing coupling grid: give lam_list or lam_min/lam_max/lam_points")
        if values.size == 0:
            raise ConfigError("empty coupling grid")
        if np.any(np.diff(values) < 0):
            raise ConfigError("coupling grid must be sorted ascending")
        if values[0] < 0:
            raise ConfigError(f"couplings must be >= 0, got {values[0]:g}")
        return values

    def nu_grid(self) -> np.ndarray:
        g = self.grid
        if not {"nu_min", "nu_max", "nu_points"} <= g.keys():
            raise ConfigError("missing modulation grid: nu_min/nu_max/nu_points")
        values = np.linspace(float(g["nu_min"]), float(g["nu_max"]),
                             int(g["nu_points"]))
        if np.any(values <= 0):
            raise ConfigError("modulation frequencies must be positive")
        return values


def _parse_float(where: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: not a finite number: {raw!r}")
    if abs(value) > MAX_MAGNITUDE:
        raise ConfigError(f"{where}: above {MAX_MAGNITUDE:g} in magnitude: {raw!r}")
    return value


def _parse_float_list(where: str, text: str) -> list[float]:
    return [_parse_float(where, tok) for tok in text.replace(",", " ").split()]


def _require(name: str, values: dict, key: str, ok, wanted: str) -> None:
    if key in values and not ok(values[key]):
        raise ConfigError(f"[{name}] {key} must be {wanted}, got {values[key]:g}")


#: shortest time span (t_max, tau_span) a run may ask for: at 5e-324 its
#: samples collide, and at 1e-300 LSODA stalls at its smallest step
MIN_SPAN = 1.0 / MAX_MAGNITUDE


def _long_enough(value: float) -> bool:
    return value >= MIN_SPAN


def _section_floats(cp: configparser.ConfigParser, name: str) -> dict:
    out: dict = {}
    for key, raw in cp[name].items():
        where = f"[{name}] {key}"
        if key.endswith("_list"):
            out[key] = _parse_float_list(where, raw)
        else:
            out[key] = _parse_float(where, raw)
    return out


def load_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Parse a run configuration, applying ``section.key=value`` overrides.

    ``path`` names an INI file; without it the overrides are the whole
    configuration.  Values are taken literally (no ``%`` interpolation).
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    if path:
        try:
            with open(path) as fh:
                cp.read_file(fh, source=path)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc

    for item in overrides or ():
        target, eq, value = item.partition("=")
        section, dot, key = target.partition(".")
        if not (eq and dot):
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        section = section.strip()
        try:
            if not cp.has_section(section):
                cp.add_section(section)
            cp.set(section, key.strip(), value.strip())
        except (configparser.Error, ValueError) as exc:
            raise ConfigError(f"override {item!r}: {exc}") from exc

    return build_config(cp)


def build_config(cp: configparser.ConfigParser) -> RunConfig:
    if not cp.has_section("run"):
        raise ConfigError("missing [run] section")
    for name, known in (("run", _RUN_KEYS), ("dicke", _DICKE_KEYS),
                        ("physical", _PHYSICAL_KEYS), ("grid", _GRID_KEYS),
                        ("modulation", _MODULATION_KEYS),
                        ("evolve", _EVOLVE_KEYS), ("figure", _FIGURE_KEYS)):
        unknown = set(cp[name]) - set(known) if cp.has_section(name) else ()
        if unknown:
            raise ConfigError(f"[{name}]: unknown keys {sorted(unknown)}")
    run = cp["run"]
    mode = run.get("mode", "").strip()
    try:
        cfg = RunConfig(
            mode=mode,
            out_dir=run.get("out", "./out").strip(),
            out_format=run.get("format", "csv").strip(),
            plots=run.getboolean("plots", fallback=False),
            workers=run.getint("workers", fallback=1),
        )
    except ValueError as exc:
        raise ConfigError(f"[run]: {exc}") from exc

    if cp.has_section("dicke"):
        values = _section_floats(cp, "dicke")
        missing = set(_DICKE_KEYS) - set(values)
        if missing:
            raise ConfigError(f"[dicke]: missing keys {sorted(missing)}")
        try:
            cfg.dicke = DickeParams(**values)
        except ParameterError as exc:
            raise ConfigError(f"[dicke]: {exc}") from exc

    if cp.has_section("physical"):
        values = _section_floats(cp, "physical")
        missing = set(_PHYSICAL_KEYS) - set(_PHYSICAL_OPTIONAL) - set(values)
        if missing:
            raise ConfigError(f"[physical]: missing keys {sorted(missing)}")
        values["atom_number"] = int(values["atom_number"])
        try:
            cfg.physical = PhysicalParams(**values)
        except ParameterError as exc:
            raise ConfigError(f"[physical]: {exc}") from exc

    if cp.has_section("grid"):
        cfg.grid = _section_floats(cp, "grid")
        if len({"tau_span", "tau_points"} & cfg.grid.keys()) == 1:
            raise ConfigError("[grid]: give tau_span and tau_points together")
        for key, least in (("lam_points", 1), ("nu_points", 1), ("tau_points", 2)):
            _require("grid", cfg.grid, key,
                     lambda v, least=least: v.is_integer() and v >= least,
                     f"an integer >= {least}")
        _require("grid", cfg.grid, "tau_span", _long_enough, f">= {MIN_SPAN:g}")
    if cp.has_section("modulation"):
        cfg.modulation = _section_floats(cp, "modulation")
        _require("modulation", cfg.modulation, "t_max", _long_enough, f">= {MIN_SPAN:g}")
        # a deeper drive or a larger seed starts the cell off the Bloch sphere
        _require("modulation", cfg.modulation, "eps", lambda v: 0.0 < v < 0.2,
                 "in (0, 0.2)")
        _require("modulation", cfg.modulation, "seed", lambda v: abs(v) < 0.5,
                 "below 1/2 in magnitude")
        _require("modulation", cfg.modulation, "time_series_lam", lambda v: v >= 0.0,
                 ">= 0")
    if cp.has_section("evolve"):
        cfg.evolve = _section_floats(cp, "evolve")
        _require("evolve", cfg.evolve, "samples",
                 lambda v: v.is_integer() and v >= 1, "an integer >= 1")
        _require("evolve", cfg.evolve, "t_max", _long_enough, f">= {MIN_SPAN:g}")
    if cp.has_section("figure"):
        cfg.figure_id = cp["figure"].get("id", "").strip() or None
    return cfg
