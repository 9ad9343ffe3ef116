"""Configuration: plain `key = value` files, presets, flag overrides.

Precedence, lowest to highest: built-in defaults, preset expansion,
config file keys, command-line flags. The preset itself is chosen
flags-over-file, then expanded before any explicit key is applied, so
an explicit `gossip_probability` always beats what the preset says.

Every key is validated on its own with a diagnostic naming the key and
the accepted values; cross-field rules (for example the forwarding ring
sitting inside the interaction range) are enforced by the parameter
dataclasses they feed. A numeric key takes its accepted values from a
metrics field type, and a key a run type owns (the gossip keys, steps,
seed, barrier_timeout, transfer_count, substeps, duration) its type
and default too, from that type's field; none is written here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .coordination import (
    FixedDurationPolicy,
    HybridSpec,
    ScriptedTrigger,
    TimestepAlignment,
    parse_endpoint,
)
from .engine import EngineConfig
from .metrics import AtLeastOne, Count, accepts, settings_fields
from .territory import DisseminationParams, TerritorySpec

# Named tunings. "good" is the reference configuration; "bad" is the
# aggressive-flooding variant used to demonstrate traffic blowup.
PRESETS = {
    "good": {},
    "bad": {"gossip_probability": 0.6, "forwarding_threshold": 100.0},
}


class ConfigError(ValueError):
    pass


def _parse_int(text: str) -> int:
    return int(text.strip(), 10)


def _parse_float(text: str) -> float:
    return float(text.strip())


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_int_list(text: str) -> tuple:
    return tuple(int(p, 10) for p in _parse_str_list(text))


def _parse_str_list(text: str) -> tuple:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _presets_known(vs):
    return len(vs) > 0 and all(v in PRESETS for v in vs)


def _mode_known(v):
    return v in ("auto", "inprocess", "process")


def _entry(field, default, least=None) -> tuple:
    """The SCHEMA entry of a value field (a metrics.Accepts) takes, or with
    least of a comma-separated list of least or more such values."""
    if least is None:
        parser = _parse_int if field.kind is int else _parse_float
        return (parser, field.admits, field.text, default)
    return (_parse_int_list,
            lambda vs: len(vs) >= least and all(map(field.admits, vs)),
            f"{least} or more, comma separated, each {field.text}", default)


def _owned(owner, name: str) -> tuple:
    """The SCHEMA entry of owner's field name, with its type and default."""
    return _entry(settings_fields(owner)[name], getattr(owner(), name))


# key -> (parser, validator, accepted text, default)
SCHEMA = {
    "ses": _entry(settings_fields(TerritorySpec)["num_entities"], (4000,), 1),
    "lps": _entry(settings_fields(EngineConfig)["num_lps"], (1,), 1),
    "steps": _owned(EngineConfig, "total_timesteps"),
    "seed": _owned(EngineConfig, "master_seed"),
    "mode": (_parse_str, _mode_known, "auto, inprocess or process", "auto"),
    "preset": (_parse_str_list, _presets_known,
               "one or more of: " + ", ".join(sorted(PRESETS)), ("good",)),
    "spawn_at": _entry(accepts(Count), (), 0),  # ScriptedTrigger's steps
    "transfer_count": _owned(ScriptedTrigger, "transfer_count"),
    "substeps": _owned(TimestepAlignment, "fine_substeps"),
    "duration": _owned(FixedDurationPolicy, "coarse_steps"),
    "endpoint": (_parse_str, lambda v: v == "" or parse_endpoint(v),
                 "HOST:PORT with PORT in 1-65535, or empty for local", ""),
    "repetitions": _entry(accepts(AtLeastOne), 5),
    "out": (_parse_str, lambda v: True, "directory path", "results"),
    "barrier_timeout": _owned(EngineConfig, "barrier_timeout"),
}
SCHEMA.update((name, _owned(DisseminationParams, name))
              for name in settings_fields(DisseminationParams))


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines into raw strings; `#` starts a comment.

    The file must be ASCII throughout, comments included.
    """
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(
            f"cannot read config file {path}: {exc.strerror}") from None
    raw = {}
    for lineno, data in enumerate(lines, start=1):
        try:
            line = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{path}:{lineno}: non-ASCII byte {data[exc.start]:#04x}"
                f" at column {exc.start + 1}") from None
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(
                f"{path}:{lineno}: unknown config key {key!r};"
                f" known keys: {', '.join(sorted(SCHEMA))}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def _check(key: str, value, shown) -> None:
    """Raise ConfigError unless SCHEMA's validator for key accepts value."""
    _, validator, accepted, _ = SCHEMA[key]
    try:
        ok = validator(value)
    except (ValueError, TypeError):
        ok = False
    if not ok:
        raise ConfigError(
            f"config key {key!r}: value {shown!r} out of range;"
            f" accepted: {accepted}")


def _convert(key: str, text: str):
    parser, _, accepted, _ = SCHEMA[key]
    try:
        value = parser(text)
    except (ValueError, TypeError):
        raise ConfigError(
            f"config key {key!r}: cannot parse {text!r};"
            f" accepted: {accepted}") from None
    _check(key, value, text)
    return value


@dataclass(frozen=True)
class RunSettings:
    """Everything the front-end resolved, in typed form.

    ses, lps and preset stay lists so one settings object can describe
    either a single run (each must then have exactly one element) or a
    campaign sweep. However it is built, every field must pass its
    SCHEMA validator and the overrides must suit every preset.
    """

    ses: tuple = SCHEMA["ses"][3]
    lps: tuple = SCHEMA["lps"][3]
    steps: int = SCHEMA["steps"][3]
    seed: int = SCHEMA["seed"][3]
    mode: str = SCHEMA["mode"][3]
    preset: tuple = SCHEMA["preset"][3]
    spawn_at: tuple = SCHEMA["spawn_at"][3]
    transfer_count: int = SCHEMA["transfer_count"][3]
    substeps: int = SCHEMA["substeps"][3]
    duration: int = SCHEMA["duration"][3]
    endpoint: str = SCHEMA["endpoint"][3]
    repetitions: int = SCHEMA["repetitions"][3]
    out: str = SCHEMA["out"][3]
    barrier_timeout: float = SCHEMA["barrier_timeout"][3]
    param_overrides: tuple = ()  # ((field, value), ...) beating the preset

    def __post_init__(self):
        for f in fields(self):
            if f.name in SCHEMA:
                value = getattr(self, f.name)
                _check(f.name, value, value)
        # a bad override combination fails here rather than mid-campaign
        for preset in self.preset:
            make_params(preset, dict(self.param_overrides))

    def repetition_seeds(self) -> range:
        """A campaign's seeds; refused unless the last is a valid seed."""
        seeds = range(self.seed, self.seed + self.repetitions)
        _check("seed", seeds[-1], f"{self.seed} + {self.repetitions - 1}")
        return seeds

    def single_run(self) -> tuple:
        """The (ses, lps, preset) of a non-campaign run."""
        for name in ("ses", "lps", "preset"):
            values = getattr(self, name)
            if len(values) != 1:
                raise ConfigError(
                    f"a single run needs exactly one {name!r} value,"
                    f" got {list(values)}")
        return self.ses[0], self.lps[0], self.preset[0]

    def hybrid(self) -> Optional[HybridSpec]:
        """The scripted hand-off shape; None if no spawn steps are set."""
        if not self.spawn_at:
            return None
        return HybridSpec(
            trigger=ScriptedTrigger(spawn_at=tuple(self.spawn_at),
                                    transfer_count=self.transfer_count),
            align=TimestepAlignment(fine_substeps=self.substeps),
            policy=FixedDurationPolicy(coarse_steps=self.duration),
            endpoint=self.endpoint or None,
        )


def make_params(preset: str, overrides: Optional[dict] = None) -> DisseminationParams:
    """Defaults, then the preset's deltas, then explicit overrides."""
    _check("preset", (preset,), preset)
    values = dict(PRESETS[preset])
    for key, value in (overrides or {}).items():
        if key not in settings_fields(DisseminationParams):
            raise ConfigError(f"not a dissemination parameter: {key!r}")
        values[key] = value
    try:
        return DisseminationParams(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def resolve_settings(file_values: Optional[dict] = None,
                     flag_values: Optional[dict] = None) -> RunSettings:
    """Merge config file values with flag overrides.

    Both mappings hold raw strings keyed by schema name (flags as the
    user typed them; None entries ignored); flags win on overlap.
    """
    file_values = dict(file_values or {})
    flags = {k: v for k, v in (flag_values or {}).items() if v is not None}
    for key in flags:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")

    typed = {key: _convert(key, text) for key, text in file_values.items()}
    typed.update({key: _convert(key, str(text)) for key, text in flags.items()})

    overrides = tuple(sorted(
        (key, typed.pop(key))
        for key in list(typed)
        if key in settings_fields(DisseminationParams)
    ))
    return RunSettings(param_overrides=overrides, **typed)


def load_settings(config_path: Optional[str] = None,
                  flag_values: Optional[dict] = None) -> RunSettings:
    file_values = parse_config_file(config_path) if config_path else {}
    return resolve_settings(file_values, flag_values)
