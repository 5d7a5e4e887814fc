"""Flat key = value experiment configuration.

The file format is one `key = value` pair per line; blank lines and lines
starting with # are skipped.  parse_sweep_config turns the text into an
immutable SweepConfig; canonical_text renders the effective configuration
back in a normalised form (sorted keys, repr-formatted numbers) whose SHA-256
is the provenance hash written to report manifests.  Two files that differ
only in formatting therefore hash identically, and programmatically built
configs hash the same as their file twins.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .groups import Field, GroupInstance, euclidean, heisenberg1, make_grid
from .mollify import EpsilonNet, OmegaSchedule, PotentialSpec

_GROUP_TOKENS = {
    "euclidean1": lambda: euclidean(1),
    "euclidean2": lambda: euclidean(2),
    "heisenberg1": heisenberg1,
}

_EXPERIMENTS = ("existence", "uniqueness", "consistency")
_PERTURBATIONS = ("exp", "omega1", "none")

_KNOWN_KEYS = frozenset({
    "group", "half_width", "points", "potential", "sign_class", "schedule",
    "epsilons", "T", "dt", "norm", "k_max", "N_max", "threads", "experiment",
    # optional keys beyond the core set; each default keeps a core file's meaning:
    "perturbation", "u0_width", "u0_amplitude", "mollifier_radius",
    "schedule_v", "schedule_u0",
    # read only by `gradedheat solve`; listed so one file serves both commands:
    "epsilon", "method", "picard_depth",
})


@dataclass(frozen=True)
class SweepConfig:
    """Everything one experiment needs, immutable once built."""

    group: GroupInstance
    half_width: float
    points: tuple[int, ...]
    potential: PotentialSpec
    schedule: OmegaSchedule
    epsilons: EpsilonNet
    T: float
    dt: float
    experiment: str
    norm: str
    k_max: int = 10
    n_max: int = 10
    threads: int = 1
    perturbation: str = "exp"
    u0_width: float = 0.0  # 0 means: default to 0.75 * half_width
    u0_amplitude: float = 1.0
    mollifier_radius: float = 1.0
    schedule_v: OmegaSchedule | None = None
    schedule_u0: OmegaSchedule | None = None

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {_EXPERIMENTS}, got {self.experiment!r}")
        if self.perturbation not in _PERTURBATIONS:
            raise ConfigError(
                f"perturbation must be one of {_PERTURBATIONS}, got {self.perturbation!r}")
        if not 0 < self.dt <= self.T < math.inf:
            raise ConfigError(f"need 0 < dt <= T < inf, got dt = {self.dt}, T = {self.T}")
        parse_norm_token(self.norm)
        for name in ("u0_width", "u0_amplitude", "mollifier_radius"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.u0_width == 0.0:
            object.__setattr__(self, "u0_width", 0.75 * self.half_width)
        for name in ("k_max", "n_max", "threads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")

    def make_grid(self):
        return make_grid(self.group, self.half_width, self.points)

    @property
    def v_schedule(self) -> OmegaSchedule:
        return self.schedule_v if self.schedule_v is not None else self.schedule

    @property
    def u0_schedule(self) -> OmegaSchedule:
        return self.schedule_u0 if self.schedule_u0 is not None else self.schedule


def parse_norm_token(token: str):
    """Return ('l2'|'hnu2'|'linf'|'lp', p or None); raises ConfigError."""
    if token in ("l2", "hnu2", "linf"):
        return token, None
    if token.startswith("lp:"):
        p = _finite(token[3:], f"lp exponent in norm token {token!r}")
        if p < 1.0:
            raise ConfigError(f"lp norm needs p >= 1, got {p}")
        return "lp", p
    raise ConfigError(f"norm must be l2|hnu2|linf|lp:<p>, got {token!r}")


def _parse_schedule_token(token: str) -> OmegaSchedule:
    if token == "poly":
        return OmegaSchedule.polynomial()
    if token.startswith("log:"):
        try:
            n0 = int(token[4:])
        except ValueError:
            raise ConfigError(f"bad n0 in schedule token {token!r}") from None
        try:
            return OmegaSchedule.logarithmic(n0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    raise ConfigError(f"schedule must be poly or log:<n0>, got {token!r}")


def _parse_potential_token(token: str, sign_class: str | None, grid,
                           base_dir: Path) -> PotentialSpec:
    kind, _, arg = token.partition(":")
    if kind in ("delta", "delta2"):
        multiplier = _finite(arg, f"delta multiplier in {token!r}") if arg else 1.0
        name = "dirac_delta" if kind == "delta" else "dirac_delta_squared"
        return PotentialSpec(name, value=multiplier, sign_class=sign_class)
    if kind == "constant":
        c = _finite(arg, f"constant in potential token {token!r}")
        return PotentialSpec("constant", value=c, sign_class=sign_class)
    if kind == "sampled":
        if not arg:
            raise ConfigError("sampled potential needs a path: sampled:<file.npy>")
        path = Path(arg)
        if not path.is_absolute():
            path = base_dir / path
        try:
            values = np.load(path)
        except OSError as exc:
            raise ConfigError(f"cannot read sampled potential {path}: {exc}") from exc
        if values.shape != grid.shape:
            raise ConfigError(
                f"sampled potential shape {values.shape} does not match grid {grid.shape}")
        return PotentialSpec("sampled", sample=Field(grid, values), sign_class=sign_class)
    raise ConfigError(
        f"potential must be delta|delta2|constant:<c>|sampled:<path>, got {token!r}")


def parse_config_text(text: str) -> dict[str, str]:
    """key = value lines -> dict; unknown keys are rejected."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        out[key] = value
    return out


def _require(keys: dict[str, str], name: str) -> str:
    if name not in keys:
        raise ConfigError(f"missing required key {name!r}")
    return keys[name]


def _finite(text: str, what: str) -> float:
    """text as a finite float; nan and inf are a ConfigError like any non-number."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{what}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{what}: must be finite, got {text!r}")
    return value


def _get_float(keys, name, default=None) -> float:
    if name not in keys and default is not None:
        return default
    return _finite(_require(keys, name), f"key {name!r}")


def _get_int(keys, name, default) -> int:
    if name not in keys:
        return default
    try:
        return int(keys[name])
    except ValueError:
        raise ConfigError(f"key {name!r}: not an integer: {keys[name]!r}") from None


def parse_sweep_config(text: str, experiment: str | None = None,
                       base_dir: str | Path = ".") -> SweepConfig:
    """Build a SweepConfig from config text.

    experiment (from the CLI flag) overrides/supplies the experiment key; a
    conflicting explicit key is an error.  base_dir anchors relative
    sampled-potential paths, normally the config file's directory.
    """
    keys = parse_config_text(text)
    base_dir = Path(base_dir)

    token = _require(keys, "group")
    if token not in _GROUP_TOKENS:
        raise ConfigError(f"group must be one of {sorted(_GROUP_TOKENS)}, got {token!r}")
    group = _GROUP_TOKENS[token]()

    half_width = _get_float(keys, "half_width")
    points_token = _require(keys, "points")
    try:
        points_list = tuple(int(p) for p in points_token.split(","))
    except ValueError:
        raise ConfigError(f"key 'points': expected integers, got {points_token!r}") from None
    points = points_list[0] if len(points_list) == 1 else points_list
    try:
        grid = make_grid(group, half_width, points)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    try:
        potential = _parse_potential_token(_require(keys, "potential"),
                                           keys.get("sign_class"), grid, base_dir)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    schedule = _parse_schedule_token(_require(keys, "schedule"))
    eps_token = _require(keys, "epsilons")
    try:
        epsilons = EpsilonNet(tuple(_finite(e, "epsilon") for e in eps_token.split(",")))
    except ValueError as exc:
        raise ConfigError(f"key 'epsilons': {exc}") from None

    exp_key = keys.get("experiment")
    if experiment is not None:
        if exp_key is not None and exp_key != experiment:
            raise ConfigError(
                f"config says experiment = {exp_key!r} but the command line says "
                f"{experiment!r}")
        exp_key = experiment
    if exp_key is None:
        raise ConfigError("missing required key 'experiment' (or pass --experiment)")

    norm = keys.get("norm")
    if norm is None:
        # the positive-potential theory is phrased in H^{nu/2}, the real one in L2
        norm = "hnu2" if potential.sign_class == "nonneg" else "l2"

    sched_v = keys.get("schedule_v")
    sched_u0 = keys.get("schedule_u0")
    try:
        return SweepConfig(
            group=group,
            half_width=half_width,
            points=grid.points,
            potential=potential,
            schedule=schedule,
            epsilons=epsilons,
            T=_get_float(keys, "T"),
            dt=_get_float(keys, "dt"),
            experiment=exp_key,
            norm=norm,
            k_max=_get_int(keys, "k_max", 10),
            n_max=_get_int(keys, "N_max", 10),
            threads=_get_int(keys, "threads", 1),
            perturbation=keys.get("perturbation", "exp"),
            u0_width=_get_float(keys, "u0_width", default=0.0),
            u0_amplitude=_get_float(keys, "u0_amplitude", default=1.0),
            mollifier_radius=_get_float(keys, "mollifier_radius", default=1.0),
            schedule_v=None if sched_v is None else _parse_schedule_token(sched_v),
            schedule_u0=None if sched_u0 is None else _parse_schedule_token(sched_u0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def read_config_file(path: str | Path) -> str:
    """The text of a config file; an unreadable file is a ConfigError."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def parse_sweep_config_file(path: str | Path, experiment: str | None = None) -> SweepConfig:
    return parse_sweep_config(read_config_file(path), experiment=experiment,
                              base_dir=Path(path).parent)


def canonical_text(cfg: SweepConfig) -> str:
    """Normalised rendering of the effective config, for hashing.

    Sampled potentials contribute a digest of their raw bytes, so the hash
    pins the data actually used and not just a file name.
    """
    items = {
        "group": str(cfg.group),
        "half_width": repr(cfg.half_width),
        "points": ",".join(str(p) for p in cfg.points),
        "potential": _potential_fingerprint(cfg),
        "sign_class": cfg.potential.sign_class,
        "schedule": str(cfg.schedule),
        "epsilons": ",".join(repr(e) for e in cfg.epsilons),
        "T": repr(cfg.T),
        "dt": repr(cfg.dt),
        "experiment": cfg.experiment,
        "norm": cfg.norm,
        "k_max": str(cfg.k_max),
        "N_max": str(cfg.n_max),
        "perturbation": cfg.perturbation,
        "u0_width": repr(cfg.u0_width),
        "u0_amplitude": repr(cfg.u0_amplitude),
        "mollifier_radius": repr(cfg.mollifier_radius),
        "schedule_v": str(cfg.v_schedule),
        "schedule_u0": str(cfg.u0_schedule),
    }
    # threads deliberately omitted: it must not change any result
    return "".join(f"{k} = {items[k]}\n" for k in sorted(items))


def _potential_fingerprint(cfg: SweepConfig) -> str:
    pot = cfg.potential
    if pot.kind == "sampled":
        digest = hashlib.sha256(np.ascontiguousarray(pot.sample.values).tobytes())
        return f"sampled:sha256:{digest.hexdigest()}"
    if pot.kind == "constant":
        return f"constant:{pot.value!r}"
    base = "delta" if pot.kind == "dirac_delta" else "delta2"
    return f"{base}:{pot.value!r}"


def config_hash(cfg: SweepConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()
