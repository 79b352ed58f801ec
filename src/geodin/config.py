"""Run configuration: INI-style sections with documented defaults.

Grammar: ``[section]`` headers followed by ``key = value`` lines; ``#``
starts a comment; lists are comma-separated.  Sections are task, train,
calibrate, shifts; their keys, in order, and defaults are the fields of
TaskConfig, TrainConfig, CalibConfig and ShiftsConfig, less the train and
calibrate seed (``[task] seed`` supplies it); calibrate adds ``shift_kind``
and ``shift_severity``.  Sections and keys are case-insensitive.  Unknown
sections or keys are rejected with their line number, a key set twice in
the file (in one section or two of the same name, in any case) with both
line numbers, and a list with an empty item with its key; an empty value
is the empty list.  Every key is validated at load by its library config.
Every key has a default, so an empty (or absent) file is a valid
configuration; command-line overrides use ``section.key=value``, and a
later override of a key replaces an earlier one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, make_dataclass
from pathlib import Path

from .bench import COVARIATE_KINDS, ShiftsConfig, ShiftSpec, TaskConfig
from .calibrate import CalibConfig
from .errors import ConfigError
from .train import TrainConfig


def _section(name: str, config_cls, exclude=("seed",)):
    """A mutable section with config_cls's keys less ``exclude``, in order,
    and their defaults; ``section.config(seed)`` builds the library config,
    with ``seed`` (if given) replacing the section's or the default one.
    """
    keys = [f for f in fields(config_cls) if f.name not in exclude]

    def config(self, seed: int | None = None):
        values = {f.name: getattr(self, f.name) for f in keys}
        if seed is not None:
            values["seed"] = seed
        return config_cls(**values)

    return make_dataclass(
        name, [(f.name, f.type, field(default=f.default)) for f in keys], namespace={"config": config}
    )


TaskSection = _section("TaskSection", TaskConfig, exclude=())
TrainSection = _section("TrainSection", TrainConfig)
ShiftsSection = _section("ShiftsSection", ShiftsConfig)


@dataclass
class CalibrateSection(_section("CalibConfigSection", CalibConfig)):
    # Optional corruption of the tuning split (severity 0 = tune on clean data).
    shift_kind: str = ""
    shift_severity: int = 0


@dataclass
class RunConfig:
    task: TaskSection = field(default_factory=TaskSection)
    train: TrainSection = field(default_factory=TrainSection)
    calibrate: CalibrateSection = field(default_factory=CalibrateSection)
    shifts: ShiftsSection = field(default_factory=ShiftsSection)

    def to_dict(self) -> dict:
        return asdict(self)


_SECTIONS = tuple(f.name for f in fields(RunConfig))


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
            items = [t.strip() for t in text.split(",")] if text else []
            if "" in items:
                raise ValueError(f"empty item in the list {text!r}")
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    section_name, seen = None, {}  # (section, key) -> the line that set it
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
        key, value = line.split("=", 1)
        key, value = key.strip().lower(), value.strip()
        _set_key(cfg, section_name, key, value, f"[{section_name}] (line {lineno})")
        first = seen.setdefault((section_name, key), lineno)
        if first != lineno:
            raise ConfigError(f"{key!r} in [{section_name}] is set twice (lines {first} and {lineno})")


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
    defaults = {f.name: f.default for f in fields(section)}
    if key not in defaults:
        raise ConfigError(f"unknown key {key!r} in {where}; known keys: {', '.join(defaults)}")
    setattr(section, key, _convert(value, defaults[key], f"{key} in {where}"))


def _validate(cfg: RunConfig) -> None:
    for name in _SECTIONS:
        getattr(cfg, name).config().validate()
    kind, severity = cfg.calibrate.shift_kind, cfg.calibrate.shift_severity
    if kind or severity:
        if kind not in COVARIATE_KINDS:
            raise ConfigError(f"unknown calibrate shift kind {kind!r}; known: {', '.join(COVARIATE_KINDS)}")
        if severity:  # 0 tunes on clean data
            ShiftSpec(kind, severity)
