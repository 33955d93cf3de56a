"""Deterministic data emission: CSV/JSON tables, run manifest, plot scripts.

Identical runs must produce byte-identical data files.  Every number is
written one way, as Python's shortest round-trip ``repr`` of its float64
value: a CSV cell carries the same text as the same value in a JSON table,
and integral values carry ".0".  That text comes from the vectorised
Schubfach kernel ``_floattext.csv_body``, byte for byte what ``repr``
writes, with no Python call per number; a table is formatted once and its
JSON built from the CSV bytes.  The manifest records a sha256 checksum per
output so reproducibility is checkable after the fact.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__


@dataclass
class Table:
    """One CSV artifact: a name, a header naming columns and units, rows."""

    name: str
    header: list[str]
    rows: list[list[float]] | np.ndarray


class NonFiniteValue(RuntimeError):
    """A table holds NaN or an infinity; it is refused rather than written."""


class RunWriter:
    """Collects tables and writes CSV/JSON artifacts plus the manifest.

    ``manifest`` is the provenance record written next to the outputs.
    """

    def __init__(self, out_dir: str, mode: str, resolved_params: dict,
                 out_format: str = "csv"):
        self.out_dir = Path(out_dir)
        self.out_format = out_format
        canonical = json.dumps(resolved_params, sort_keys=True)
        self.manifest = {
            "tool": "opendicke", "tool_version": __version__, "mode": mode,
            "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
            "resolved_params": resolved_params, "wall_clock_s": 0.0, "outputs": {}}
        self._t0 = time.monotonic()

    def _write(self, name: str, data: bytes) -> None:
        """Write one file, creating the directory at the first write."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / name).write_bytes(data)

    def _emit(self, name: str, data: bytes) -> None:
        """Write one output and record the sha256 of the bytes written."""
        self._write(name, data)
        self.manifest["outputs"][name] = hashlib.sha256(data).hexdigest()

    def write_table(self, table: Table) -> None:
        # imported at the first table write: a run's start-up does not pay for it
        from . import _floattext

        values = np.asarray(table.rows, dtype=float)
        if not np.isfinite(values).all():
            i, j = np.argwhere(~np.isfinite(values))[0]
            raise NonFiniteValue(f"table {table.name}, column {table.header[j]}: "
                                 f"non-finite value {float(values[i, j])!r}")
        body = _floattext.csv_body(values)
        if self.out_format in ("csv", "both"):
            self._emit(f"{table.name}.csv", ",".join(table.header).encode() + b"\n" + body)
        if self.out_format in ("json", "both"):
            # json.dumps(payload, sort_keys=True) writes each float as its repr
            # and separates with ", ": the CSV cells become "[[a, b], [c, d]]"
            rows = b"[" + body.replace(b",", b", ").replace(b"\n", b"], [")[:-4] + b"]"
            self._emit(f"{table.name}.json", b'{"columns": ' + json.dumps(table.header).encode()
                       + b', "rows": [' + (rows if body else b"") + b"]}")

    def write_json(self, name: str, payload: dict) -> None:
        self._emit(name, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())

    def write_script(self, name: str, text: str) -> None:
        self._emit(name, text.encode())

    def finalize(self) -> Path:
        self.manifest["wall_clock_s"] = time.monotonic() - self._t0
        self._write("manifest.json",
                    (json.dumps(self.manifest, sort_keys=True, indent=2) + "\n").encode())
        return self.out_dir / "manifest.json"


PLOT_PREAMBLE = """\
#!/usr/bin/env python3
# Auto-generated plotting script; reads the CSV files written alongside it.
import csv
from pathlib import Path

import matplotlib.pyplot as plt


def load(name):
    with open(Path(__file__).parent / name) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {h: [] for h in header}
        for row in reader:
            for h, v in zip(header, row):
                cols[h].append(float(v))
    return cols
"""

#: shared bodies, formatted with the CSV table and the PNG file they use
_SPECTRUM_BODY = """
cols = load("{csv}.csv")
fig, axes = plt.subplots(2, 1, figsize=(7, 7), sharex=True)
for k in range(1, 5):
    axes[0].plot(cols["lam_over_lam_c[1]"], cols[f"re_omega_{{k}}[omega0]"], ".", ms=2)
    axes[1].plot(cols["lam_over_lam_c[1]"], cols[f"im_omega_{{k}}[omega0]"], ".", ms=2)
axes[0].set_ylabel("Re omega / omega0"); axes[0].set_ylim(-1.5, 1.5)
axes[1].set_ylabel("Im omega / omega0"); axes[1].set_ylim(-0.01, 0.001)
axes[1].set_xlabel("lam / lam_c")
plt.tight_layout(); plt.savefig("{png}.png", dpi=150)
"""
_RESPONSE_MAP_BODY = """
cols = load("{csv}.csv")
import numpy as np
lam = np.array(cols["lam_over_lam_c[1]"]); nu = np.array(cols["nu_over_omega0[1]"])
lam_u, nu_u = np.unique(lam), np.unique(nu)
for field, tag in (("max_alpha2_over_N[1]", "alpha2"), ("max_rebeta_over_N[1]", "rebeta")):
    z = np.array(cols[field]).reshape(lam_u.size, nu_u.size)
    plt.figure(figsize=(7, 5))
    plt.pcolormesh(lam_u, nu_u, np.log10(z + 1e-30).T, shading="nearest")
    plt.xlabel("lam / lam_c"); plt.ylabel("nu / omega0")
    plt.colorbar(label=f"log10 {{tag}}")
    plt.tight_layout(); plt.savefig(f"{png}_{{tag}}.png", dpi=150)
"""

#: plot bodies keyed by the run's figure id or by the name of its one table
PLOT_BODIES = {
    "spectrum": _SPECTRUM_BODY.format(csv="spectrum", png="spectrum"),
    "g2": """
cols = load("g2.csv")
plt.figure(figsize=(8, 4))
plt.plot(cols["tau[1/omega0]"], cols["g2[1]"])
plt.xlabel("tau * omega0"); plt.ylabel("g2(tau)")
plt.tight_layout(); plt.savefig("g2.png", dpi=150)
""",
    "g2_fft_map": """
cols = load("g2_fft_map.csv")
import numpy as np
lam = np.array(cols["lam[omega0]"]); nu = np.array(cols["nu[omega0]"])
z = np.array(cols["log10_abs_fft[1]"])
lam_u, nu_u = np.unique(lam), np.unique(nu)
grid = z.reshape(lam_u.size, nu_u.size)
plt.figure(figsize=(7, 5))
plt.pcolormesh(lam_u, nu_u, grid.T, shading="nearest")
plt.xlabel("lam / omega0"); plt.ylabel("nu / omega0"); plt.colorbar(label="log10 |FFT g2|")
plt.tight_layout(); plt.savefig("g2_fft_map.png", dpi=150)
""",
    "response_map": _RESPONSE_MAP_BODY.format(csv="response_map", png="response"),
    "steady_states": """
cols = load("steady_states.csv")
plt.figure(figsize=(7, 4))
stable = [s > 0.5 for s in cols["stable[bool]"]]
x = cols["lam_over_lam_c[1]"]; y = cols["re_alpha[1]"]
plt.plot([xi for xi, s in zip(x, stable) if s], [yi for yi, s in zip(y, stable) if s], "b.", label="stable")
plt.plot([xi for xi, s in zip(x, stable) if not s], [yi for yi, s in zip(y, stable) if not s], "r.", label="unstable")
plt.xlabel("lam / lam_c"); plt.ylabel("Re alpha"); plt.legend()
plt.tight_layout(); plt.savefig("steady_states.png", dpi=150)
""",
    "fig1": _SPECTRUM_BODY.format(csv="fig1_spectrum", png="fig1"),
    "fig2": """
cols = load("fig2a_g2_tau.csv")
import numpy as np
lam = np.array(cols["lam[omega0]"]); tau = np.array(cols["tau[1/omega0]"])
g2 = np.array(cols["g2[1]"])
lam_u = np.unique(lam)
fig, axes = plt.subplots(1, 2, figsize=(11, 4))
tau_u = tau[lam == lam_u[0]]
img = g2.reshape(lam_u.size, tau_u.size)
axes[0].pcolormesh(tau_u, lam_u, img, shading="nearest")
axes[0].set_xlabel("tau * omega0"); axes[0].set_ylabel("lam / omega0")
cols_f = load("fig2b_g2_fft.csv")
lam2 = np.array(cols_f["lam[omega0]"]); nu = np.array(cols_f["nu[omega0]"])
z = np.array(cols_f["log10_abs_fft[1]"])
lam2_u, nu_u = np.unique(lam2), np.unique(nu)
axes[1].pcolormesh(lam2_u, nu_u, z.reshape(lam2_u.size, nu_u.size).T, shading="nearest")
axes[1].set_xlabel("lam / omega0"); axes[1].set_ylabel("nu / omega0")
plt.tight_layout(); plt.savefig("fig2.png", dpi=150)
""",
    "fig3": """
cols = load("fig3_g2_beating.csv")
import numpy as np
lam = np.array(cols["lam[omega0]"]); lp = np.array(cols["lam_prime[omega0]"])
tau = np.array(cols["tau[1/omega0]"]); g2 = np.array(cols["g2[1]"])
lam_u = np.unique(lam)
fig, axes = plt.subplots(lam_u.size, 1, figsize=(8, 2.2 * lam_u.size), sharex=True)
for ax, lv in zip(axes, lam_u):
    biased = (lam == lv) & (lp != 0)
    flat = (lam == lv) & (lp == 0)
    ax.plot(tau[biased], g2[biased], "b-", label="displaced trap")
    ax.plot(tau[flat], g2[flat], "r--", label="symmetric trap")
    ax.set_ylabel(f"g2, lam={lv}")
axes[0].legend(); axes[-1].set_xlabel("tau * omega0")
plt.tight_layout(); plt.savefig("fig3.png", dpi=150)
""",
    "fig4": _RESPONSE_MAP_BODY.format(csv="fig4ab_response_map", png="fig4") + """
cols_c = load("fig4c_timeseries.csv")
plt.figure(figsize=(8, 3))
plt.plot(cols_c["t[1/omega0]"], cols_c["re_beta_over_N[1]"])
plt.xlabel("t * omega0"); plt.ylabel("Re beta / N")
plt.tight_layout(); plt.savefig("fig4c.png", dpi=150)
""",
    "fig5": """
cols = load("fig5a_branches.csv")
plt.figure(figsize=(7, 4))
stable = [s > 0.5 for s in cols["stable[bool]"]]
x = cols["lam_over_lam_c[1]"]; y = cols["re_alpha[1]"]
plt.plot([xi for xi, s in zip(x, stable) if s], [yi for yi, s in zip(y, stable) if s], "b.")
plt.plot([xi for xi, s in zip(x, stable) if not s], [yi for yi, s in zip(y, stable) if not s], "r.")
plt.xlabel("lam / lam_c"); plt.ylabel("Re alpha")
plt.tight_layout(); plt.savefig("fig5a.png", dpi=150)
try:
    cols_b = load("fig5b_density.csv")
    plt.figure(figsize=(7, 3.5))
    plt.plot(cols_b["x[pump_wavelength]"], cols_b["density_plus[atoms_per_length]"], label="lam' > 0")
    plt.plot(cols_b["x[pump_wavelength]"], cols_b["density_minus[atoms_per_length]"], label="lam' < 0")
    plt.xlabel("x / pump wavelength"); plt.ylabel("density"); plt.legend()
    plt.tight_layout(); plt.savefig("fig5b.png", dpi=150)
except FileNotFoundError:
    pass
""",
}


def plot_script(name: str) -> str | None:
    body = PLOT_BODIES.get(name)
    if body is None:
        return None
    return PLOT_PREAMBLE + body
