"""Flat key = value configuration with exact rational alpha weights.

Rationals are written "num/den" so they survive the round-trip; alpha and
n_list are comma-separated.  Unknown keys and out-of-range values raise
ConfigError naming the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError
from .graph import RayParams

_INT64_MAX = 2**63 - 1
# the most memory the convergence pass may take on one replica's walk
# window, and the most it holds a window step: tracemalloc peaks of a
# one-replica chunk, its draws included, read 238-253 bytes a step at
# n = 10^3 to 10^5, where each step carries two mesh times
WALK_BYTES_MAX = 2**30
PASS_BYTES_PER_STEP = 384


@dataclass
class RunConfig:
    N: int = 3
    alpha: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    seed: int = 20260826
    replicas: int = 10_000
    length: int = 1_000
    n_list: tuple[int, ...] = (100, 1_000, 10_000)
    T: float = 1.0
    s: float = 0.0
    x_ray: int = 1
    x_radius: float = 0.0
    output_dir: str = "artifacts"

    def ray_params(self) -> RayParams:
        if self.N < 1:
            raise ConfigError(f"N: need >= 1, got {self.N}")
        if len(self.alpha) != self.N:
            raise ConfigError(f"N, alpha: alpha has {len(self.alpha)} entries, "
                              f"need N = {self.N}")
        try:
            return RayParams(self.N, self.alpha)
        except ValueError as exc:
            raise ConfigError(f"alpha: {exc}") from exc

    def as_dict(self) -> dict:
        """Every key in field order; tuples are joined with ","."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {key: ",".join(map(str, v)) if isinstance(v, tuple) else v for key, v in values}


def _parse_fraction(text: str, key: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: bad rational {text!r}") from exc


_INT_KEYS = {f.name for f in fields(RunConfig) if type(f.default) is int}
_FLOAT_KEYS = {f.name for f in fields(RunConfig) if type(f.default) is float}


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _INT_KEYS:
            try:
                setattr(cfg, key, int(value))
            except ValueError as exc:
                raise ConfigError(f"{key}: expected integer, got {value!r}") from exc
        elif key in _FLOAT_KEYS:
            try:
                setattr(cfg, key, float(value))
            except ValueError as exc:
                raise ConfigError(f"{key}: expected number, got {value!r}") from exc
        elif key == "alpha":
            cfg.alpha = tuple(_parse_fraction(part, "alpha") for part in value.split(","))
        elif key == "n_list":
            try:
                cfg.n_list = tuple(int(part) for part in value.split(","))
            except ValueError as exc:
                raise ConfigError(f"n_list: expected integers, got {value!r}") from exc
        elif key == "output_dir":
            cfg.output_dir = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    cfg.ray_params()  # validates N and alpha together
    _check_ranges(cfg)
    return cfg


def _check_ranges(cfg: RunConfig) -> None:
    for key in ("T", "s", "x_radius"):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{key}: need a finite number, got {getattr(cfg, key)}")
    if not 0 <= cfg.seed < 2**64:  # the Philox key is one 64-bit word
        raise ConfigError(f"seed: need 0 <= seed < 2**64, got {cfg.seed}")
    if cfg.length < 2:
        raise ConfigError(f"length: need >= 2, got {cfg.length}")
    if cfg.replicas < 100:  # the KS tests need 100 samples
        raise ConfigError(f"replicas: need >= 100, got {cfg.replicas}")
    if min(cfg.n_list) < 1:
        raise ConfigError(f"n_list: entries must be >= 1, got {cfg.n_list}")
    if any(a >= b for a, b in zip(cfg.n_list, cfg.n_list[1:])):
        raise ConfigError(f"n_list: must be strictly increasing, got {cfg.n_list}")
    if not 1 <= cfg.x_ray <= cfg.N:
        raise ConfigError(f"x_ray: need 1..{cfg.N}, got {cfg.x_ray}")
    if not cfg.x_radius >= 0:
        raise ConfigError(f"x_radius: need >= 0, got {cfg.x_radius}")
    if not cfg.T > 0:
        raise ConfigError(f"T: need > 0, got {cfg.T}")
    try:
        horizon = max(cfg.n_list) * (cfg.s + cfg.T)
    except OverflowError:  # an n too large for a float
        horizon = math.inf
    if not math.isfinite(horizon):
        raise ConfigError(f"n_list, s, T: max(n_list) * (s + T) is not finite, got "
                          f"n = {max(cfg.n_list)}, s = {cfg.s}, T = {cfg.T}")
    # the int64 walk window and start radius of the convergence pass at the largest n
    n = max(cfg.n_list)
    p_min = min(math.floor(n * cfg.s), 0) if math.isfinite(n * cfg.s) else -math.inf
    steps = math.ceil(horizon) + 1 - p_min
    if p_min < -_INT64_MAX or steps > _INT64_MAX:
        raise ConfigError(f"n_list, s, T: the walk window of length {float(steps):.4g} from "
                          f"{float(p_min):.4g} at n = {n} does not fit int64, got "
                          f"s = {cfg.s}, T = {cfg.T}")
    if steps * PASS_BYTES_PER_STEP > WALK_BYTES_MAX:
        raise ConfigError(f"n_list, s, T: the convergence pass over the walk window of length "
                          f"{steps} at n = {n} needs up to {steps * PASS_BYTES_PER_STEP:.4g} "
                          f"bytes, more than WALK_BYTES_MAX = {WALK_BYTES_MAX}, got s = {cfg.s}, "
                          f"T = {cfg.T}")
    radius = math.sqrt(n) * cfg.x_radius
    if not math.isfinite(radius) or round(radius) + steps > _INT64_MAX:
        raise ConfigError(f"x_radius: round(sqrt(n) x_radius) = {radius:.4g} plus the window "
                          f"length {steps} at n = {n} does not fit int64, got "
                          f"x_radius = {cfg.x_radius}")


def load_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return RunConfig()
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config file {p}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p}: not UTF-8 ({exc})") from exc
    return parse_config(text)
