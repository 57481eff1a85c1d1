"""Experiment configuration: JSON files with validated defaults.

One config drives every experiment kind.  The limit bookkeeping of the
convergence experiments is explicit: microscopic sizes L (epsilon = 1/L)
and window sizes ell = L // ell_ratio are always carried together so
reports can index results by (epsilon, ell) in the order the limits are
taken.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_PROFILE = {
    "kind": "lambda-cos",
    "params": {
        "lam0": 0.25,
        "lam0_amp": 0.08,
        "lam1_amp": 0.1,
        "lam1_phase": -1.5707963267948966,
        "lam4": 2.5,
        "lam4_amp": 0.25,
        "lam4_phase": 0.7,
    },
}


@dataclass
class ExperimentConfig:
    kind: str = "checks"
    seed: int = 20240817
    out_dir: str = "runs/out"
    l_list: list = field(default_factory=lambda: [256, 512, 1024])
    ell_ratio: int = 16
    times: list = field(default_factory=lambda: [0.0, 0.02])
    n_cells: int = 256
    cfl: float = 0.4
    profile: dict = field(default_factory=lambda: json.loads(json.dumps(DEFAULT_PROFILE)))
    eos_domain: str = "brillouin"
    eos_d: int = 1
    bz_nodes: int = 4096
    table: dict | None = None
    tolerances: dict = field(default_factory=dict)
    # kind-specific extras (rate-scan grid, micro-run snapshot flag, ...)
    extra: dict = field(default_factory=dict)

    VALID_KINDS = (
        "hydro-compare",
        "entropy-track",
        "checks",
        "eos-table",
        "euler-run",
        "micro-run",
        "rate-scan",
    )

    def __post_init__(self):
        if self.kind not in self.VALID_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for L in self.l_list:
            ell = L // self.ell_ratio
            if not 8 <= ell <= L // 4:
                raise ValueError(
                    f"ell = L/{self.ell_ratio} = {ell} outside [8, L/4] for L = {L}"
                )
            if L % self.ell_ratio != 0:
                raise ValueError(f"ell_ratio {self.ell_ratio} must divide L = {L}")
        if self.table is not None:
            # a table section gives its rectangle inline; table files are retired
            problems = [f"no {k!r}" for k in ("rho_range", "eint_range") if k not in self.table]
            if "path" in self.table:
                problems.append("a 'path', but table files are retired: give the ranges inline")
            if problems:
                raise ValueError("table section has " + " and ".join(problems))

    @property
    def report_times(self) -> list:
        """The distinct report times, ascending."""
        return sorted(set(float(t) for t in self.times))

    def eos_model(self):
        from .. import eos

        return eos.EosModel(d=self.eos_d, domain=self.eos_domain, bz_nodes=self.bz_nodes)

    def closure(self):
        """Tabulated pressure closure when the config has a table section,
        direct Newton evaluation without one."""
        from .. import eos

        model = self.eos_model()
        table = None if self.table is None else eos_table(model, self.table)
        return eos.PressureClosure(model, table)

    def tolerance(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    def to_json(self) -> str:
        payload = {k: v for k, v in self.__dict__.items()}
        return json.dumps(payload, indent=2, sort_keys=True)

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def eos_table(model, section: dict):
    """The closure table of a table section: its rho_range x eint_range
    rectangle at its resolution, eos.TABLE_RESOLUTION when it names none."""
    from .. import eos

    resolution = section.get("resolution", eos.TABLE_RESOLUTION)
    return eos.tabulate(model, section["rho_range"], section["eint_range"], resolution)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    data = json.loads(Path(path).read_text())
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    extra = data.pop("extra", {})
    unknown = {k: v for k, v in data.items() if k not in known}
    for k in unknown:
        data.pop(k)
    extra.update(unknown)
    return ExperimentConfig(extra=extra, **data)


def write_manifest(out_dir, config: ExperimentConfig, extras: dict | None = None) -> Path:
    """One JSON manifest per run: config echo, versions, tolerances, content
    hash of the inputs.  No timestamps, keeping outputs bit-reproducible."""
    import numpy
    import scipy

    from .. import __version__

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": json.loads(config.to_json()),
        "config_sha256": config.content_hash(),
        "versions": {
            "fermi_euler": __version__,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if extras:
        manifest["results"] = extras
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path
