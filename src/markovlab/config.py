"""Run configuration: embedded defaults, strict JSON round-trip.

A config file may specify any subset of the keys; missing keys keep their
defaults, unknown keys anywhere are a hard error (they are always typos).
Tuples serialize as JSON lists.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

__all__ = [
    "ConfigError",
    "QuadratureConfig",
    "SupGridConfig",
    "PowerIterationConfig",
    "AcceptanceConfig",
    "LabConfig",
    "default_config",
    "config_to_dict",
    "config_to_json",
    "config_from_dict",
    "config_from_json",
    "load_config",
]


class ConfigError(ValueError):
    """Malformed configuration document."""


@dataclass(frozen=True)
class QuadratureConfig:
    exactness_margin: int = 0  # extra degrees of exactness on every rule
    node_cap: int = 2_000_000

    def validate(self) -> None:
        if self.exactness_margin < 0:
            raise ConfigError("exactness_margin must be >= 0")
        if self.node_cap < 1:
            raise ConfigError("node_cap must be positive")


@dataclass(frozen=True)
class SupGridConfig:
    density: int = 8  # points per polynomial degree on sup grids
    floor: int = 64

    def validate(self) -> None:
        if self.density < 1:
            raise ConfigError("sup-grid density must be >= 1")
        if self.floor < 1:
            raise ConfigError("sup-grid floor must be >= 1")


@dataclass(frozen=True)
class PowerIterationConfig:
    """Gates of the spectral factor solves (the section keeps its historical
    name). A degree is refused, like a conditioning failure, when its
    relative eigen residual ||M v - theta v|| / theta exceeds `tolerance`
    or its triangular-factor diagonal spreads past `condition_limit`."""

    tolerance: float = 1e-10
    condition_limit: float = 1e13

    def validate(self) -> None:
        if not (0 < self.tolerance < 1):
            raise ConfigError("residual tolerance must be in (0, 1)")
        if self.condition_limit <= 1:
            raise ConfigError("condition_limit must exceed 1")


@dataclass(frozen=True)
class AcceptanceConfig:
    """Windows and tolerances for the verification suite.

    The slope windows are falsifiability gates for the fitted exponents,
    deliberately wide; the index/degree ranges pin the sweeps they are
    fitted over.
    """

    criteria: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
    seed: int = 20260818
    area_rtol: float = 1e-12
    pullback_rtol: float = 1e-10
    pullback_samples: int = 100
    identity_rtol: float = 1e-12
    identity_samples: int = 200
    sharpness_max_index: int = 20
    sup_norm_slack: float = 1e-9
    extremal_index_range: tuple[int, int] = (4, 20)
    extremal_slope_window: tuple[float, float] = (3.7, 4.3)
    stability_max_shift: float = 0.05
    koornwinder_degree_range: tuple[int, int] = (4, 14)
    koornwinder_slope_window: tuple[float, float] = (3.2, 4.3)
    simplex_degree_range: tuple[int, int] = (4, 16)
    simplex_slope_window: tuple[float, float] = (1.6, 2.3)
    schur_degree_range: tuple[int, int] = (4, 16)
    schur_slope_max: float = 2.3
    schur_base_rtol: float = 1e-10
    wn_index_range: tuple[int, int] = (8, 40)
    wn_slope_window: tuple[float, float] = (5.5, 6.5)
    wn_alpha: float = 14.0
    wn_l: int = 3
    wn_p: float = 2.0
    sandwich_samples: int = 1000
    sandwich_orders: tuple[int, ...] = (1, 3, 5)
    oracle_rtol: float = 1e-8
    oracle_max_degree: int = 3

    def validate(self) -> None:
        for cid in self.criteria:
            if cid not in range(1, 12):
                raise ConfigError(f"unknown criterion id {cid}")
        for name in (
            "extremal_index_range",
            "koornwinder_degree_range",
            "simplex_degree_range",
            "schur_degree_range",
            "wn_index_range",
        ):
            lo, hi = getattr(self, name)
            if lo >= hi:
                raise ConfigError(f"{name} must be increasing")
        if self.wn_l < 1 or self.wn_l % 2 == 0:
            raise ConfigError("wn_l must be odd and >= 1")
        if self.wn_p < 1:
            raise ConfigError("wn_p must be >= 1")
        if self.sandwich_samples < 1:
            raise ConfigError("sandwich_samples must be positive")


@dataclass(frozen=True)
class LabConfig:
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    sup_grid: SupGridConfig = field(default_factory=SupGridConfig)
    power_iteration: PowerIterationConfig = field(default_factory=PowerIterationConfig)
    acceptance: AcceptanceConfig = field(default_factory=AcceptanceConfig)

    def validate(self) -> None:
        self.quadrature.validate()
        self.sup_grid.validate()
        self.power_iteration.validate()
        self.acceptance.validate()


def default_config() -> LabConfig:
    return LabConfig()


def config_to_dict(cfg) -> dict:
    out = {}
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if dataclasses.is_dataclass(v):
            out[f.name] = config_to_dict(v)
        elif isinstance(v, tuple):
            out[f.name] = list(v)
        else:
            out[f.name] = v
    return out


def config_to_json(cfg: LabConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def _coerce(name: str, template, value):
    """Coerce a JSON value to the type of the default it overrides."""
    if dataclasses.is_dataclass(template):
        return _from_dict(type(template), template, value, name)
    if isinstance(template, bool):  # bool before int: bool is an int subclass
        if not isinstance(value, bool):
            raise ConfigError(f"{name}: expected a boolean")
        return value
    if isinstance(template, int) and not isinstance(template, bool):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name}: expected an integer")
        return value
    if isinstance(template, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name}: expected a number")
        return float(value)
    if isinstance(template, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{name}: expected a list")
        elem = template[0]
        return tuple(_coerce(f"{name}[{i}]", elem, v) for i, v in enumerate(value))
    if isinstance(template, str):
        if not isinstance(value, str):
            raise ConfigError(f"{name}: expected a string")
        return value
    raise ConfigError(f"{name}: unsupported config field")


def _from_dict(cls, template, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"unknown config key(s) under {path or 'root'}: {sorted(unknown)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in data:
            kwargs[f.name] = _coerce(
                f"{path + '.' if path else ''}{f.name}",
                getattr(template, f.name),
                data[f.name],
            )
    return dataclasses.replace(template, **kwargs)


def config_from_dict(data: dict) -> LabConfig:
    cfg = _from_dict(LabConfig, default_config(), data, "")
    cfg.validate()
    return cfg


def config_from_json(text: str) -> LabConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return config_from_dict(data)


def load_config(path: str) -> LabConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return config_from_json(text)
