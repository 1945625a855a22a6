"""Run configuration: JSON in, JSON out, strict about what it accepts.

A config object looks like

    {
      "params": {"a": 1.0, "b": 0.2, "sigma": 0.5, "gamma": 1.5,
                 "r0": 1.0, "C": 1.0},
      "grid": {"t_end": 1.0, "n_steps": 1024},
      "n_paths": 100000,
      "seed": 42,
      "delta_rule": "derived",
      "aux_variant": "derived",
      "output": {"format": "csv", "path": "paths.csv"}
    }

"C" and everything from "delta_rule" down are optional.  Unknown keys are
rejected at every level; round-trips are lossless.  Nothing is coerced:
"n_paths", "seed" and "n_steps" take the count rule and every real value
the real rule of ckls.numerics, so floats for counts, booleans, JSON NaN
and Infinity, and ints past the float range are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path as FsPath

from .engine import TimeGrid
from .errors import ConfigError
from .numerics import require_count, require_real, require_seed
from .params import CklsParams

__all__ = ["RunConfig", "load_config", "parse_config"]

_PARAM_KEYS = {"a", "b", "sigma", "gamma", "r0", "C"}
_GRID_KEYS = {"t_end", "n_steps"}
_OUTPUT_KEYS = {"format", "path"}
_TOP_KEYS = {
    "params",
    "grid",
    "n_paths",
    "seed",
    "delta_rule",
    "aux_variant",
    "output",
}
_FORMATS = {"csv", "binary"}
_VARIANTS = {"paper", "derived"}


@dataclass(frozen=True)
class RunConfig:
    params: CklsParams
    c: float | None
    grid: TimeGrid
    n_paths: int
    seed: int
    delta_rule: str = "derived"
    aux_variant: str = "derived"
    output_format: str = "csv"
    output_path: str | None = None

    def to_dict(self) -> dict:
        params = self.params.to_dict()
        if self.c is not None:
            params["C"] = self.c
        return {
            "params": params,
            "grid": {"t_end": self.grid.t_end, "n_steps": self.grid.n_steps},
            "n_paths": self.n_paths,
            "seed": self.seed,
            "delta_rule": self.delta_rule,
            "aux_variant": self.aux_variant,
            "output": {"format": self.output_format, "path": self.output_path},
        }


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def parse_config(obj: dict) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"config must be an object, got {type(obj).__name__}")
    _reject_unknown(obj, _TOP_KEYS, "config")
    try:
        raw_params = obj["params"]
        raw_grid = obj["grid"]
        n_paths = obj["n_paths"]
        seed = obj["seed"]
    except KeyError as exc:
        raise ConfigError(f"missing required config key: {exc.args[0]}") from exc
    if not isinstance(raw_params, dict):
        raise ConfigError("params must be an object")
    _reject_unknown(raw_params, _PARAM_KEYS, "params")
    if not isinstance(raw_grid, dict):
        raise ConfigError("grid must be an object")
    _reject_unknown(raw_grid, _GRID_KEYS, "grid")
    raw_output = obj.get("output", {})
    if not isinstance(raw_output, dict):
        raise ConfigError("output must be an object")
    _reject_unknown(raw_output, _OUTPUT_KEYS, "output")

    delta_rule = obj.get("delta_rule", "derived")
    aux_variant = obj.get("aux_variant", "derived")
    for name, val in (("delta_rule", delta_rule), ("aux_variant", aux_variant)):
        if val not in _VARIANTS:
            raise ConfigError(f"{name} must be one of {sorted(_VARIANTS)}, got {val!r}")
    output_format = raw_output.get("format", "csv")
    if output_format not in _FORMATS:
        raise ConfigError(f"output format must be one of {sorted(_FORMATS)}, got {output_format!r}")

    try:
        # "C": null is the same as leaving C out
        reals = {k: require_real(k, v) for k, v in raw_params.items() if v is not None or k != "C"}
        params = CklsParams.from_dict(reals)
        c = reals.get("C")
        if c is not None and not c > 0:
            raise ConfigError(f"C must be positive, got {c}")
        grid = TimeGrid(
            t_end=require_real("t_end", raw_grid["t_end"]),
            n_steps=require_count("n_steps", raw_grid["n_steps"]),
        )
        n_paths = require_count("n_paths", n_paths)
        seed = require_seed(seed)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc

    return RunConfig(
        params=params,
        c=c,
        grid=grid,
        n_paths=n_paths,
        seed=seed,
        delta_rule=delta_rule,
        aux_variant=aux_variant,
        output_format=output_format,
        output_path=raw_output.get("path"),
    )


def load_config(path: str | FsPath) -> RunConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, an int past the digit limit, or bytes that are not text
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(obj)
