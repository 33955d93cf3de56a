"""Run configuration: INI-style key-value files with nested sections.

A run is described by a [run] section (mode, output directory, formats),
one of [dicke] or [physical] for the model parameters, and optional [grid],
[modulation], [evolve] and [figure] sections consumed by the individual
modes.  ``SECTIONS`` lists every section, its keys and the rule each
number must pass; the [dicke] and [physical] keys are the fields of the
parameter dataclasses.  Command line flags override file values.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .params import (MAX_MAGNITUDE, DickeParams, ParameterError, PhysicalParams,
                     map_to_dicke)

MODES = ("steady-state", "evolve", "spectrum", "photon-flux", "g2", "g2-map",
         "modulate", "map-params", "reproduce-figure")
FORMATS = ("csv", "json", "both")
FIGURE_IDS = ("fig1", "fig2", "fig3", "fig4", "fig5")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


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
        return values

    def nu_grid(self) -> np.ndarray:
        g = self.grid
        if not {"nu_min", "nu_max", "nu_points"} <= g.keys():
            raise ConfigError("missing modulation grid: nu_min/nu_max/nu_points")
        values = np.linspace(float(g["nu_min"]), float(g["nu_max"]), int(g["nu_points"]))
        if np.any(np.diff(values) < 0):
            raise ConfigError("modulation grid must be sorted ascending")
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


#: shortest time span (t_max, tau_span) a run may ask for: at 5e-324 its
#: samples collide, and at 1e-300 LSODA stalls at its smallest step
MIN_SPAN = 1.0 / MAX_MAGNITUDE

#: most points a count may ask for (and most cells of a response map): the
#: grids and the map's cell list are built whole before any work starts
MAX_POINTS = 2 ** 20

#: a key read as text, not as a number
TEXT = "text"


def _count(least: int) -> tuple:
    return (lambda v: v.is_integer() and least <= v <= MAX_POINTS,
            f"an integer in [{least}, {MAX_POINTS}]")


_SPAN = (lambda v: v >= MIN_SPAN, f">= {MIN_SPAN:g}")
_INTEGER = (float.is_integer, "an integer")
_COUPLING = (lambda v: v >= 0.0, ">= 0")
_FREQUENCY = (lambda v: v > 0.0, "> 0")


def _model_keys(cls) -> dict:
    """A parameter dataclass's fields as keys; an ``int`` field takes integers."""
    types = get_type_hints(cls)
    return {f.name: _INTEGER if types[f.name] is int else None for f in fields(cls)}


#: every section and its keys; a numeric key maps to its rule, None (any
#: finite number) or a (check, wanted) pair, which a ``_list`` key's every
#: value must pass.  The model keys are the fields of the parameter
#: dataclasses, whose own checks apply.
SECTIONS = {
    "run": dict.fromkeys(("mode", "out", "format", "plots", "workers"), TEXT),
    "dicke": _model_keys(DickeParams),
    "physical": _model_keys(PhysicalParams),
    "grid": {"lam_list": _COUPLING, "lam_min": _COUPLING, "lam_max": _COUPLING,
             "lam_points": _count(1), "nu_min": _FREQUENCY, "nu_max": _FREQUENCY,
             "nu_points": _count(1), "tau_span": _SPAN, "tau_points": _count(2)},
    "modulation": {
        # a deeper drive or a larger seed starts the cell off the Bloch sphere
        "eps": (lambda v: 0.0 < v < 0.2, "in (0, 0.2)"),
        "t_max": _SPAN,
        "seed": (lambda v: abs(v) < 0.5, "below 1/2 in magnitude"),
        "time_series_lam": _COUPLING,
        "time_series_nu": _FREQUENCY},
    "evolve": {"t_max": _SPAN, "samples": _count(1), "alpha0_re": None,
               "alpha0_im": None, "beta0_re": None, "beta0_im": None, "w0": None},
    "figure": {"id": TEXT},
}


def _section_values(cp: configparser.ConfigParser, name: str) -> dict:
    """The numbers of one section, each checked against its rule."""
    if name not in SECTIONS:
        raise ConfigError(f"unknown section [{name}]; valid: {list(SECTIONS)}")
    rules = SECTIONS[name]
    unknown = set(cp[name]) - set(rules)
    if unknown:
        raise ConfigError(f"[{name}]: unknown keys {sorted(unknown)}")
    out: dict = {}
    for key, raw in cp[name].items():
        rule, where = rules[key], f"[{name}] {key}"
        if rule is TEXT:
            continue
        listed = key.endswith("_list")
        values = [_parse_float(where, tok)
                  for tok in (raw.replace(",", " ").split() if listed else [raw])]
        for value in values:
            if rule is not None and not rule[0](value):
                raise ConfigError(f"{where} must be {rule[1]}, got {value:.15g}")
        out[key] = values if listed else values[0]
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
    values = {name: _section_values(cp, name) for name in cp.sections()}
    run = cp["run"]
    try:
        cfg = RunConfig(
            mode=run.get("mode", "").strip(),
            out_dir=run.get("out", "./out").strip(),
            out_format=run.get("format", "csv").strip(),
            plots=run.getboolean("plots", fallback=False),
            workers=run.getint("workers", fallback=1),
            grid=values.get("grid", {}),
            modulation=values.get("modulation", {}),
            evolve=values.get("evolve", {}),
            figure_id=cp.get("figure", "id", fallback="").strip() or None,
        )
    except ValueError as exc:
        raise ConfigError(f"[run]: {exc}") from exc

    if cfg.mode == "reproduce-figure":
        # a figure runs at its canonical parameters; only fig5 reads the trap
        # geometry of a [physical] section
        unread = {"dicke", "grid", "modulation", "evolve"}
        if cfg.figure_id in FIGURE_IDS and cfg.figure_id != "fig5":
            unread.add("physical")
        given = [f"[{name}]" for name in cp.sections() if name in unread]
        if given:
            figure = f" {cfg.figure_id}" if cfg.figure_id else ""
            raise ConfigError(f"reproduce-figure{figure} runs at canonical parameters "
                              f"and reads no {' or '.join(given)} section")

    for name, cls in (("dicke", DickeParams), ("physical", PhysicalParams)):
        if name not in values:
            continue
        required = {f.name for f in fields(cls) if f.default is MISSING}
        missing = required - values[name].keys()
        if missing:
            raise ConfigError(f"[{name}]: missing keys {sorted(missing)}")
        types = get_type_hints(cls)
        try:
            setattr(cfg, name, cls(**{k: types[k](v) for k, v in values[name].items()}))
        except ParameterError as exc:
            raise ConfigError(f"[{name}]: {exc}") from exc

    grid = cfg.grid
    for name, pair in (("grid", ("tau_span", "tau_points")),
                       ("modulation", ("time_series_lam", "time_series_nu"))):
        if len(set(pair) & getattr(cfg, name).keys()) == 1:
            raise ConfigError(f"[{name}]: give {pair[0]} and {pair[1]} together")
    if "lam_list" in grid and grid.keys() & {"lam_min", "lam_max", "lam_points"}:
        raise ConfigError("[grid]: give lam_list or lam_min/lam_max/lam_points, not both")
    couplings = len(grid["lam_list"]) if "lam_list" in grid else grid.get("lam_points", 1)
    cells = couplings * grid.get("nu_points", 1)
    if cells > MAX_POINTS:
        raise ConfigError(f"[grid]: {cells:.0f} response-map cells (couplings times "
                          f"nu_points), above {MAX_POINTS}")
    return cfg
