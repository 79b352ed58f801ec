"""Run configuration: INI-style sections with documented defaults.

Grammar: ``[section]`` headers followed by ``key = value`` lines; ``#``
starts a comment; lists are comma-separated.  Sections are task, train,
calibrate, shifts; the train and calibrate keys and defaults are
those of TrainConfig and CalibConfig, less the seed.  Unknown sections or
keys are rejected with their line number.  Every key has a default, so an
empty (or absent) file is a valid configuration; command-line overrides use
``section.key=value``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, make_dataclass
from pathlib import Path

from .calibrate import CalibConfig
from .errors import ConfigError
from .train import TrainConfig


@dataclass
class TaskSection:
    k: int = 8
    d_in: int = 16
    n_per_class: int = 400
    noise: float = 0.15
    seed: int = 0
    val_frac: float = 0.2
    test_frac: float = 0.2
    concept_groups: int = 5
    concept_classes_per_group: int = 2
    concept_n_per_class: int = 200
    concept_similarities: tuple = (0.65, 0.72, 0.79, 0.86, 0.92)


def _section(name: str, config_cls):
    """A mutable section with config_cls's keys, in order, and its defaults,
    except ``seed``: ``[task] seed`` (or ``--seed``) supplies that, through
    ``section.config(seed)``, which builds the library config.
    """
    keys = [f for f in fields(config_cls) if f.name != "seed"]

    def config(self, seed: int):
        return config_cls(seed=seed, **{f.name: getattr(self, f.name) for f in keys})

    return make_dataclass(
        name, [(f.name, f.type, field(default=f.default)) for f in keys], namespace={"config": config}
    )


TrainSection = _section("TrainSection", TrainConfig)


@dataclass
class CalibrateSection(_section("CalibConfigSection", CalibConfig)):
    # Optional corruption of the tuning split (severity 0 = tune on clean data).
    shift_kind: str = ""
    shift_severity: int = 0


@dataclass
class ShiftsSection:
    kinds: tuple = ("gaussian_noise", "uniform_noise", "feature_dropout", "smoothing")
    severities: tuple = (1, 2, 3, 4, 5)
    scores: tuple = ("g", "h", "u", "msp", "energy")
    include_control: bool = True
    concept: bool = True


@dataclass
class RunConfig:
    task: TaskSection = field(default_factory=TaskSection)
    train: TrainSection = field(default_factory=TrainSection)
    calibrate: CalibrateSection = field(default_factory=CalibrateSection)
    shifts: ShiftsSection = field(default_factory=ShiftsSection)

    def to_dict(self) -> dict:
        doc = asdict(self)
        for sec in doc.values():
            for key, value in sec.items():
                if isinstance(value, tuple):
                    sec[key] = list(value)
        return doc


_SECTIONS = {
    "task": TaskSection,
    "train": TrainSection,
    "calibrate": CalibrateSection,
    "shifts": ShiftsSection,
}


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _convert(text: str, template, where: str):
    """Parse text according to the type of the default value."""
    text = text.strip()
    try:
        if isinstance(template, bool):
            return _parse_bool(text)
        if isinstance(template, int):
            return int(text)
        if isinstance(template, float):
            return float(text)
        if isinstance(template, tuple):
            items = [t.strip() for t in text.split(",") if t.strip()]
            if not template or isinstance(template[0], str):
                return tuple(items)
            if isinstance(template[0], int) and not isinstance(template[0], bool):
                return tuple(int(t) for t in items)
            return tuple(float(t) for t in items)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {exc}") from None


def load_run_config(path=None, overrides=()) -> RunConfig:
    """Build a RunConfig from an optional file plus section.key=value overrides."""
    cfg = RunConfig()
    if path is not None:
        _apply_file(cfg, Path(path))
    for item in overrides:
        _apply_override(cfg, item)
    _validate(cfg)
    return cfg


def _apply_file(cfg: RunConfig, path: Path) -> None:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    section_name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section_name = line[1:-1].strip().lower()
            if section_name not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{section_name}] (line {lineno}); "
                    f"known sections: {', '.join(_SECTIONS)}"
                )
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' (line {lineno}): {raw.strip()!r}")
        if section_name is None:
            raise ConfigError(f"key outside any [section] (line {lineno})")
        key, value = (part.strip() for part in line.split("=", 1))
        _set_key(cfg, section_name, key, value, f"[{section_name}] (line {lineno})")


def _apply_override(cfg: RunConfig, item: str) -> None:
    if "=" not in item or "." not in item.split("=", 1)[0]:
        raise ConfigError(f"override must look like section.key=value, got {item!r}")
    target, value = item.split("=", 1)
    section_name, key = (part.strip().lower() for part in target.split(".", 1))
    if section_name not in _SECTIONS:
        raise ConfigError(f"unknown section {section_name!r} in override {item!r}")
    _set_key(cfg, section_name, key, value, f"override {item!r}")


def _set_key(cfg: RunConfig, section_name: str, key: str, value: str, where: str) -> None:
    """Parse and set one key of a known section; ``where`` locates it in errors."""
    section = getattr(cfg, section_name)
    probe = type(section)()
    defaults = {f.name: getattr(probe, f.name) for f in fields(probe)}
    if key not in defaults:
        raise ConfigError(f"unknown key {key!r} in {where}; known keys: {', '.join(defaults)}")
    setattr(section, key, _convert(value, defaults[key], f"{key} in {where}"))


def _validate(cfg: RunConfig) -> None:
    from .bench import COVARIATE_KINDS
    from .head import HeadVariant
    from .scores import SCORE_NAMES

    try:
        HeadVariant(cfg.train.variant)
    except ValueError:
        raise ConfigError(
            f"unknown head variant {cfg.train.variant!r}; "
            f"known: {', '.join(v.value for v in HeadVariant)}"
        ) from None
    for kind in cfg.shifts.kinds:
        if kind not in COVARIATE_KINDS:
            raise ConfigError(f"unknown shift kind {kind!r}; known: {', '.join(COVARIATE_KINDS)}")
    for name in cfg.shifts.scores:
        if name not in SCORE_NAMES:
            raise ConfigError(f"unknown score {name!r}; known: {', '.join(SCORE_NAMES)}")
    for s in cfg.shifts.severities:
        if not 1 <= s <= 5:
            raise ConfigError(f"severities must be 1..5, got {s}")
    if cfg.calibrate.shift_kind and cfg.calibrate.shift_kind not in COVARIATE_KINDS:
        raise ConfigError(f"unknown calibrate shift kind {cfg.calibrate.shift_kind!r}")
    if cfg.task.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if len(cfg.task.concept_similarities) != cfg.task.concept_groups:
        raise ConfigError(
            f"concept_similarities has {len(cfg.task.concept_similarities)} entries "
            f"for {cfg.task.concept_groups} groups"
        )
