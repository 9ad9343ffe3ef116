"""Config files, presets, flag precedence, validation diagnostics."""

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from hybridsim.config import (
    PRESETS,
    SCHEMA,
    ConfigError,
    RunSettings,
    load_settings,
    make_params,
    parse_config_file,
    resolve_settings,
)
from hybridsim.coordination import (
    FixedDurationPolicy,
    HybridSpec,
    ScriptedTrigger,
    TimestepAlignment,
)
from hybridsim.engine import EngineConfig
from hybridsim.territory import DisseminationParams


def _write(tmp_path, text):
    p = tmp_path / "run.conf"
    p.write_text(text)
    return str(p)


def test_defaults_without_any_input():
    s = resolve_settings()
    assert s.ses == (4000,)
    assert s.lps == (1,)
    assert s.steps == 900
    assert s.seed == 1
    assert s.preset == ("good",)
    assert s.mode == "auto"
    assert s.repetitions == 5
    assert s.spawn_at == ()
    assert s.transfer_count == 1
    assert s.substeps == 3
    assert s.duration == 3
    assert s.endpoint == ""
    assert s.param_overrides == ()


def test_default_params_match_reference_table():
    p = make_params("good")
    assert p == DisseminationParams(
        interaction_range=250.0, forwarding_threshold=225.0,
        gossip_probability=0.2, geofilter_distance=1000.0,
        generation_probability=0.001, ttl=6, cache_capacity=128,
        max_relays_per_step=10)


def test_bad_preset_changes_exactly_two_knobs():
    good = make_params("good")
    bad = make_params("bad")
    assert bad.gossip_probability == 0.6
    assert bad.forwarding_threshold == 100.0
    assert bad == DisseminationParams(
        interaction_range=good.interaction_range,
        forwarding_threshold=100.0, gossip_probability=0.6,
        geofilter_distance=good.geofilter_distance,
        generation_probability=good.generation_probability,
        ttl=good.ttl, cache_capacity=good.cache_capacity,
        max_relays_per_step=good.max_relays_per_step)
    assert sorted(PRESETS) == ["bad", "good"]


def test_explicit_key_beats_preset():
    p = make_params("bad", {"gossip_probability": 0.05})
    assert p.gossip_probability == 0.05
    assert p.forwarding_threshold == 100.0  # rest of the preset stays


def test_make_params_rejects_unknown():
    with pytest.raises(ConfigError, match="preset"):
        make_params("ugly")
    with pytest.raises(ConfigError, match="not a dissemination parameter"):
        make_params("good", {"steps": 5})


def test_parse_config_file_basics(tmp_path):
    path = _write(tmp_path, """
# campaign sizes
ses = 1000, 2000   # sweep
lps = 1
steps = 90

preset = bad
gossip_probability = 0.4
""")
    raw = parse_config_file(path)
    assert raw == {"ses": "1000, 2000", "lps": "1", "steps": "90",
                   "preset": "bad", "gossip_probability": "0.4"}
    s = resolve_settings(raw)
    assert s.ses == (1000, 2000)
    assert s.steps == 90
    assert s.param_overrides == (("gossip_probability", 0.4),)


def test_parse_config_file_diagnostics(tmp_path):
    path = _write(tmp_path, "ses 4000\n")
    with pytest.raises(ConfigError, match=r"run\.conf:1.*key = value"):
        parse_config_file(path)

    with pytest.raises(ConfigError, match="cannot read config file"):
        parse_config_file(str(tmp_path / "missing.conf"))

    path = tmp_path / "latin.conf"
    path.write_bytes(b"steps = 10\n# caf\xe9\n")
    with pytest.raises(ConfigError,
                       match=r"latin\.conf:2: non-ASCII byte 0xe9"):
        parse_config_file(str(path))

    path = _write(tmp_path, "sess = 4000\n")
    with pytest.raises(ConfigError, match="unknown config key 'sess'") as info:
        parse_config_file(path)
    assert "known keys:" in str(info.value)

    path = _write(tmp_path, "steps = 10\nsteps = 20\n")
    with pytest.raises(ConfigError, match=r":2: duplicate key 'steps'"):
        parse_config_file(path)


def test_out_of_range_values_name_key_and_range():
    with pytest.raises(ConfigError, match="'ttl'.*'-1' out of range") as info:
        resolve_settings({"ttl": "-1"})
    assert "integer >= 0" in str(info.value)
    with pytest.raises(ConfigError, match="'gossip_probability'"):
        resolve_settings({"gossip_probability": "1.5"})
    with pytest.raises(ConfigError, match="'steps'"):
        resolve_settings({"steps": "0"})
    with pytest.raises(ConfigError, match="'mode'"):
        resolve_settings({"mode": "threads"})
    with pytest.raises(ConfigError, match="'endpoint'"):
        resolve_settings({"endpoint": "nocolon"})
    for endpoint in ("h:-1", "h:+80", "h:0", "h:99999"):
        with pytest.raises(ConfigError, match="'endpoint'.*1-65535"):
            resolve_settings({"endpoint": endpoint})
    for endpoint in ("h:1", "h:65535"):
        assert resolve_settings({"endpoint": endpoint}).endpoint == endpoint
    with pytest.raises(ConfigError, match="cannot parse"):
        resolve_settings({"steps": "ninety"})


def test_float_keys_take_finite_values_only():
    floats = [key for key, spec in SCHEMA.items()
              if isinstance(spec[3], float)]
    assert "barrier_timeout" in floats and len(floats) == 6
    for key in floats:
        for text in ("inf", "-inf", "nan", "1e999", "Infinity"):
            with pytest.raises(ConfigError,
                               match=f"config key '{key}'.*out of range"):
                resolve_settings({key: text})
    with pytest.raises(ConfigError, match="'barrier_timeout'"):
        RunSettings(barrier_timeout=math.inf)


_VALUE_TEXT = st.one_of(
    st.text(max_size=12),
    st.integers(-2**70, 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.lists(st.integers(-3, 9).map(str), max_size=3).map(", ".join),
    st.sampled_from(["inf", "nan", "1e999", "", "0", "h:80", "bad", "good",
                     "process", "1,2"]))


@settings(max_examples=600, deadline=None)
@given(key=st.sampled_from(sorted(SCHEMA)), text=_VALUE_TEXT,
       as_flag=st.booleans())
def test_every_rejected_value_names_its_key(key, text, as_flag):
    """Any text for any key, from a file or a flag, is either taken, as
    a finite value where it is a number, or refused by a ConfigError
    that names the key; nothing else escapes the parser."""
    try:
        s = resolve_settings(*(({}, {key: text}) if as_flag
                               else ({key: text}, {})))
    except ConfigError as exc:
        assert key in str(exc)
        return
    value = dict(s.param_overrides).get(key, getattr(s, key, None))
    for v in value if isinstance(value, tuple) else (value,):
        assert not isinstance(v, float) or math.isfinite(v)


# config key -> the run type that owns it, built from the parsed value
_OWNERS = {
    **{f.name: lambda v, name=f.name: DisseminationParams(**{name: v})
       for f in fields(DisseminationParams)},
    "steps": lambda v: EngineConfig(total_timesteps=v),
    "seed": lambda v: EngineConfig(master_seed=v),
    "barrier_timeout": lambda v: EngineConfig(barrier_timeout=v),
    "transfer_count": lambda v: ScriptedTrigger(transfer_count=v),
    "substeps": lambda v: TimestepAlignment(fine_substeps=v),
    "duration": lambda v: FixedDurationPolicy(coarse_steps=v),
    "endpoint": lambda v: HybridSpec(endpoint=v or None),
}


def _refuses(build, *args) -> bool:
    try:
        build(*args)
    except ValueError:
        return True
    return False


@settings(max_examples=800, deadline=None)
@given(key=st.sampled_from(sorted(_OWNERS)),
       text=st.one_of(_VALUE_TEXT, st.sampled_from(
           ["-1", "1", "200", "225", "250", "1.0", "-0.0", "1e-300",
            str(2**63 - 1), str(2**63), "h:65535", "h:65536"])))
def test_config_refuses_exactly_what_the_run_type_refuses(key, text):
    """The config has no range of its own for a key a run type owns: a
    value that parses is refused by resolve_settings exactly when the
    type refuses it."""
    try:
        value = SCHEMA[key][0](text)
    except ValueError:
        return
    assert (_refuses(resolve_settings, {key: text})
            == _refuses(_OWNERS[key], value)), (key, text)


def test_flags_beat_file():
    s = resolve_settings({"steps": "100", "seed": "5"},
                         {"steps": "250", "ses": "64"})
    assert s.steps == 250
    assert s.seed == 5
    assert s.ses == (64,)


def test_none_flags_are_ignored():
    s = resolve_settings({"steps": "100"}, {"steps": None, "seed": None})
    assert s.steps == 100 and s.seed == 1


def test_flag_values_are_validated_too():
    with pytest.raises(ConfigError, match="'lps'"):
        resolve_settings({}, {"lps": "0"})
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve_settings({}, {"knobs": "3"})


def test_override_set_checked_against_presets_at_parse_time():
    # forwarding ring must sit inside the interaction range; fine for the
    # default 250 but a sweep including a tighter range must fail now
    resolve_settings({"forwarding_threshold": "240"})
    with pytest.raises(ConfigError):
        resolve_settings({"interaction_range": "200",
                          "forwarding_threshold": "240"})
    # "bad" pins forwarding_threshold to 100, so only the range shrinks;
    # an explicit threshold above it must be rejected for that preset too
    with pytest.raises(ConfigError):
        resolve_settings({"preset": "bad", "interaction_range": "50"})


def test_single_run_requires_scalar_axes():
    s = resolve_settings({"ses": "100", "lps": "2", "preset": "good"})
    assert s.single_run() == (100, 2, "good")
    with pytest.raises(ConfigError, match="'ses'"):
        resolve_settings({"ses": "100, 200"}).single_run()
    with pytest.raises(ConfigError, match="'preset'"):
        resolve_settings({"preset": "good, bad"}).single_run()


def test_load_settings_reads_file_and_flags(tmp_path):
    path = _write(tmp_path, "steps = 40\nses = 80\n")
    s = load_settings(path, {"seed": "9"})
    assert (s.steps, s.ses, s.seed) == (40, (80,), 9)
    assert load_settings(None, {"seed": "9"}).seed == 9


def test_schema_defaults_are_self_consistent():
    # every schema default passes its own validator
    for key, (parser, validator, accepted, default) in SCHEMA.items():
        assert validator(default), f"{key} default fails validation"
    # and RunSettings carries the same defaults
    s = RunSettings()
    for key in ("steps", "seed", "mode", "transfer_count", "substeps",
                "duration", "endpoint", "repetitions", "out",
                "barrier_timeout"):
        assert getattr(s, key) == SCHEMA[key][3]
    # the gossip keys are DisseminationParams' fields, of the same type
    for f in fields(DisseminationParams):
        parser, _, _, default = SCHEMA[f.name]
        assert default == f.default
        assert type(parser(str(default))) is type(default)


def test_run_settings_validate_however_built():
    with pytest.raises(ConfigError, match="'steps'"):
        RunSettings(steps=0)
    with pytest.raises(ConfigError, match="'endpoint'"):
        RunSettings(endpoint="h:0")
    with pytest.raises(ConfigError):
        RunSettings(preset=("bad",),
                    param_overrides=(("interaction_range", 50.0),))


def test_hybrid_none_when_unconfigured():
    assert RunSettings().hybrid() is None
    spec = RunSettings(spawn_at=(4, 9), transfer_count=2, substeps=5,
                       duration=7, endpoint="").hybrid()
    assert spec.trigger.spawn_at == (4, 9)
    assert spec.trigger.transfer_count == 2
    assert spec.align.fine_substeps == 5
    assert spec.policy.coarse_steps == 7
    assert spec.endpoint is None  # empty string means local
