"""Flat key = value experiment configuration.

The file format is one `key = value` pair per line; blank lines and lines
starting with # are skipped.  _KEYS is the one table of file keys: each names
the field it fills, its token parser and its rendering in the hash.  The
field is on SweepConfig, or on SolveOptions for the keys only `gradedheat
solve` reads.  A key missing from the file is missing from the constructor
call, so each dataclass default is the only default, and value checks live
in __post_init__; the parsers only turn tokens into values.  The sign class
of V (nonneg or real) is derived by PotentialSpec, never declared.

canonical_text renders the effective configuration back in a normalised form
(sorted keys, repr-formatted numbers) whose SHA-256 is the provenance hash
written to report manifests.  Two files that differ only in formatting
therefore hash identically, and programmatically built configs hash the same
as their file twins.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
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

EXPERIMENTS = ("existence", "uniqueness", "consistency")
METHODS = ("implicit", "duhamel", "oracle")
_PERTURBATIONS = ("exp", "omega1", "none")
MIN_FIT_POINTS = 4  # the shortest net an exponent fit accepts


@dataclass(frozen=True)
class SweepConfig:
    """Everything one experiment needs, immutable once built.

    Left as None, norm (hnu2 for a nonneg V, l2 for a real one), u0_width
    (0.75 * half_width) and the per-net schedules (the main one) resolve
    here from the other fields.
    """

    group: GroupInstance
    half_width: float
    points: tuple[int, ...]
    potential: PotentialSpec
    schedule: OmegaSchedule
    epsilons: EpsilonNet
    T: float
    dt: float
    experiment: str
    norm: str | None = None
    k_max: int = 10
    n_max: int = 10
    threads: int = 1
    perturbation: str = "exp"
    u0_width: float | None = None
    u0_amplitude: float = 1.0
    mollifier_radius: float = 1.0
    schedule_v: OmegaSchedule | None = None
    schedule_u0: OmegaSchedule | None = None

    def __post_init__(self):
        derived = {
            # the positive-potential theory is phrased in H^{nu/2}, the real one in L2
            "norm": "hnu2" if self.potential.sign_class == "nonneg" else "l2",
            "u0_width": 0.75 * self.half_width,
            "schedule_v": self.schedule,
            "schedule_u0": self.schedule,
        }
        for name, value in derived.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.perturbation not in _PERTURBATIONS:
            raise ConfigError(
                f"perturbation must be one of {_PERTURBATIONS}, got {self.perturbation!r}")
        if self.experiment != "consistency" and len(self.epsilons) < MIN_FIT_POINTS:
            raise ConfigError(f"{self.experiment} fits an exponent over the epsilon net, which "
                              f"needs at least {MIN_FIT_POINTS} values, got {len(self.epsilons)}")
        if not 0 < self.dt <= self.T < math.inf:
            raise ConfigError(f"need 0 < dt <= T < inf, got dt = {self.dt}, T = {self.T}")
        parse_norm_token(self.norm)
        with _config_error():
            half_width = min(self.make_grid().half_widths)
        for name in ("u0_width", "u0_amplitude", "mollifier_radius"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("u0_width", "mollifier_radius"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.u0_width > half_width:
            # the bump datum and the uniqueness probe must fit inside the box
            raise ConfigError(
                f"u0_width {self.u0_width} exceeds the box half-width {half_width}")
        for name in ("k_max", "n_max", "threads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")

    def make_grid(self):
        return make_grid(self.group, self.half_width, self.points)


@dataclass(frozen=True)
class SolveOptions:
    """The keys only `gradedheat solve` reads; sweeps ignore them.

    epsilon None solves with V as it is, which needs a constant or sampled V.
    """

    epsilon: float | None = None
    method: str = "implicit"
    picard_depth: int = 8

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.picard_depth < 1:
            raise ConfigError(f"picard_depth must be a positive integer, got {self.picard_depth}")


def parse_norm_token(token: str):
    """Return ('l2'|'hnu2'|'linf'|'lp', p or None); raises ConfigError."""
    if token in ("l2", "hnu2", "linf"):
        return token, None
    if token.startswith("lp:"):
        try:
            p = float(token[3:])
        except ValueError:
            p = math.nan
        if not 1.0 <= p < math.inf:
            raise ConfigError(f"lp norm needs a finite p >= 1, got {token!r}")
        return "lp", p
    raise ConfigError(f"norm must be l2|hnu2|linf|lp:<p>, got {token!r}")


@contextmanager
def _config_error(prefix: str = ""):
    """Re-raise a ValueError as a ConfigError whose message follows prefix."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from None


def _finite(text: str) -> float:
    """text as a finite float; nan and inf are a ConfigError like any non-number."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"must be finite, got {text!r}")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"not an integer: {text!r}") from None


def _points(token: str):
    try:
        points = tuple(int(p) for p in token.split(","))
    except ValueError:
        raise ConfigError(f"expected integers, got {token!r}") from None
    return points[0] if len(points) == 1 else points


def _group(token: str) -> GroupInstance:
    if token not in _GROUP_TOKENS:
        raise ConfigError(f"group must be one of {sorted(_GROUP_TOKENS)}, got {token!r}")
    return _GROUP_TOKENS[token]()


def _schedule(token: str) -> OmegaSchedule:
    if token == "poly":
        return OmegaSchedule.polynomial()
    if token.startswith("log:"):
        try:
            n0 = int(token[4:])
        except ValueError:
            raise ConfigError(f"bad n0 in schedule token {token!r}") from None
        return OmegaSchedule.logarithmic(n0)
    raise ConfigError(f"schedule must be poly or log:<n0>, got {token!r}")


def _epsilons(token: str) -> EpsilonNet:
    return EpsilonNet(tuple(_finite(e) for e in token.split(",")))


def _potential(token: str, grid, base_dir: Path) -> PotentialSpec:
    kind, _, arg = token.partition(":")
    if kind in ("delta", "delta2"):
        name = "dirac_delta" if kind == "delta" else "dirac_delta_squared"
        return PotentialSpec(name, value=_finite(arg) if arg else 1.0)
    if kind == "constant":
        return PotentialSpec("constant", value=_finite(arg))
    if kind == "sampled":
        if not arg:
            raise ConfigError("sampled potential needs a path: sampled:<file.npy>")
        path = base_dir / arg  # an absolute arg replaces base_dir
        try:
            values = np.load(path)
        except OSError as exc:
            raise ConfigError(f"cannot read sampled potential {path}: {exc}") from exc
        return PotentialSpec("sampled", sample=Field(grid, values))
    raise ConfigError(
        f"potential must be delta|delta2|constant:<c>|sampled:<path>, got {token!r}")


def _potential_fingerprint(pot: PotentialSpec) -> str:
    """V as hashed: a sampled V contributes a digest of its raw bytes, so the
    hash pins the data actually used and not just a file name."""
    if pot.kind == "sampled":
        digest = hashlib.sha256(np.ascontiguousarray(pot.sample.values).tobytes())
        return f"sampled:sha256:{digest.hexdigest()}"
    if pot.kind == "constant":
        return f"constant:{pot.value!r}"
    base = "delta" if pot.kind == "dirac_delta" else "delta2"
    return f"{base}:{pot.value!r}"


def _joined(render):
    return lambda values: ",".join(render(v) for v in values)


# file key -> (field, token parser, hash rendering or None for an unhashed key)
_KEYS = {
    "group": ("group", _group, str),
    "half_width": ("half_width", _finite, repr),
    "points": ("points", _points, _joined(str)),
    # kept as its token until the grid exists (see _build_sweep_config)
    "potential": ("potential", str, _potential_fingerprint),
    "schedule": ("schedule", _schedule, str),
    "epsilons": ("epsilons", _epsilons, _joined(repr)),
    "T": ("T", _finite, repr),
    "dt": ("dt", _finite, repr),
    "experiment": ("experiment", str, str),
    "norm": ("norm", str, str),
    "k_max": ("k_max", _integer, str),
    "N_max": ("n_max", _integer, str),
    "threads": ("threads", _integer, None),  # must not change any result
    "perturbation": ("perturbation", str, str),
    "u0_width": ("u0_width", _finite, repr),
    "u0_amplitude": ("u0_amplitude", _finite, repr),
    "mollifier_radius": ("mollifier_radius", _finite, repr),
    "schedule_v": ("schedule_v", _schedule, str),
    "schedule_u0": ("schedule_u0", _schedule, str),
    # SolveOptions fields: listed so one file serves both commands
    "epsilon": ("epsilon", _finite, None),
    "method": ("method", str, None),
    "picard_depth": ("picard_depth", _integer, None),
}
_SOLVE_FIELDS = frozenset(f.name for f in fields(SolveOptions))
_REQUIRED_FIELDS = frozenset(f.name for f in fields(SweepConfig) if f.default is MISSING)


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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        out[key] = value
    return out


def _parse_fields(text: str) -> tuple[dict, dict]:
    """The keys in text as typed values by field name: (sweep, solve)."""
    sweep, solve = {}, {}
    for key, token in parse_config_text(text).items():
        name, parse, _ = _KEYS[key]
        with _config_error(f"key {key!r}: "):
            value = parse(token)
        (solve if name in _SOLVE_FIELDS else sweep)[name] = value
    return sweep, solve


def _build_sweep_config(values: dict, base_dir: Path) -> SweepConfig:
    for key, (name, _, _) in _KEYS.items():
        if name in _REQUIRED_FIELDS and name not in values:
            hint = " (or pass --experiment)" if name == "experiment" else ""
            raise ConfigError(f"missing required key {key!r}{hint}")
    with _config_error():
        grid = make_grid(values["group"], values["half_width"], values["points"])
    with _config_error("key 'potential': "):
        potential = _potential(values["potential"], grid, base_dir)
    return SweepConfig(**{**values, "points": grid.points, "potential": potential})


def parse_sweep_config(text: str, experiment: str | None = None,
                       base_dir: str | Path = ".") -> SweepConfig:
    """Build a SweepConfig from config text.

    experiment (from the CLI flag) overrides/supplies the experiment key; a
    conflicting explicit key is an error.  base_dir anchors relative
    sampled-potential paths, normally the config file's directory.
    """
    values, _ = _parse_fields(text)
    if experiment is not None:
        if values.get("experiment", experiment) != experiment:
            raise ConfigError(
                f"config says experiment = {values['experiment']!r} but the command line "
                f"says {experiment!r}")
        values["experiment"] = experiment
    return _build_sweep_config(values, Path(base_dir))


def read_config_file(path: str | Path) -> str:
    """The text of a config file; an unreadable file is a ConfigError."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def parse_sweep_config_file(path: str | Path, experiment: str | None = None) -> SweepConfig:
    return parse_sweep_config(read_config_file(path), experiment=experiment,
                              base_dir=Path(path).parent)


def parse_solve_config_file(path: str | Path) -> tuple[SweepConfig, SolveOptions]:
    """The config of one `gradedheat solve`: its SweepConfig and SolveOptions.

    solve ignores the experiment dimension, so a file without the key reads
    as an existence config.
    """
    values, solve = _parse_fields(read_config_file(path))
    values.setdefault("experiment", "existence")
    return _build_sweep_config(values, Path(path).parent), SolveOptions(**solve)


def canonical_text(cfg: SweepConfig) -> str:
    """Normalised rendering of the effective config, for hashing."""
    items = {key: render(getattr(cfg, name))
             for key, (name, _, render) in _KEYS.items() if render is not None}
    # no longer a key, but still hashed so that no config hash moved with it
    items["sign_class"] = cfg.potential.sign_class
    return "".join(f"{k} = {items[k]}\n" for k in sorted(items))


def config_hash(cfg: SweepConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()
