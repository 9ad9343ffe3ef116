"""Wire protocol: record encoding, entity serialization, channel behavior."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from hybridsim.protocol import (
    RECORD_KINDS,
    LineChannel,
    ProtocolError,
    decode_record,
    encode_record,
    entity_fields,
    entity_from_fields,
    field,
    format_value,
)
from hybridsim.territory import EntityRecord


def test_encode_minimal():
    assert encode_record("READY", 5) == b"READY step=5\n"


def test_encode_sorts_keys_bytewise():
    raw = encode_record("STATUS", 3, walking=2, arrived=1, msgs=9)
    assert raw == b"STATUS step=3 arrived=1 msgs=9 walking=2\n"


def test_step_always_first_even_against_sort_order():
    # "aardvark" sorts before "step" but step stays in front
    raw = encode_record("STATUS", 0, aardvark=1)
    assert raw.startswith(b"STATUS step=0 aardvark=")


def test_encode_rejects_unknown_kind():
    with pytest.raises(ProtocolError):
        encode_record("PING", 0)


def test_encode_rejects_bad_key():
    with pytest.raises(ProtocolError):
        encode_record("STATUS", 0, **{"Bad-Key": 1})
    with pytest.raises(ProtocolError):
        encode_record("STATUS", 0, **{"9lives": 1})


def test_format_value_floats_use_repr():
    assert format_value(0.1) == "0.1"
    assert format_value(1.0) == "1.0"
    assert format_value(119.42007788187304) == "119.42007788187304"


def test_format_value_rejects_bool():
    with pytest.raises(ProtocolError):
        format_value(True)


def test_format_value_lists_comma_joined():
    assert format_value((5, 9)) == "5,9"
    assert format_value([1.5, 2.0]) == "1.5,2.0"
    assert format_value(()) == ""


def test_percent_encoding_keeps_safe_chars_literal():
    raw = encode_record("INIT", 0, name="a b=c")
    assert b"name=a%20b%3Dc" in raw
    # comma, dash, dot, underscore stay readable
    raw2 = encode_record("INIT", 0, name="x-1_2.3,4")
    assert b"name=x-1_2.3,4" in raw2


def test_decode_roundtrip():
    raw = encode_record("STATUS", 7, msgs=12, mean=0.25, tag="a b")
    kind, step, fields = decode_record(raw)
    assert kind == "STATUS"
    assert step == 7
    assert fields == {"msgs": "12", "mean": "0.25", "tag": "a b"}


def test_decode_accepts_str_and_bytes():
    assert decode_record("READY step=1\n") == ("READY", 1, {})
    assert decode_record(b"READY step=1\n") == ("READY", 1, {})


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError):
        decode_record("")
    with pytest.raises(ProtocolError):
        decode_record("HELLO step=1")
    with pytest.raises(ProtocolError):
        decode_record("READY nostep=1")
    with pytest.raises(ProtocolError):
        decode_record("READY step=abc")
    with pytest.raises(ProtocolError):
        decode_record("READY step=1 lone")
    with pytest.raises(ProtocolError):
        decode_record("READY step=1 a=1 a=2")  # duplicate key


def test_field_accessors_name_missing_key():
    with pytest.raises(ProtocolError, match="^missing field 'msgs'$"):
        field({}, "msgs", int)
    with pytest.raises(ProtocolError, match="^missing field 'mean'$"):
        field({}, "mean", float)
    with pytest.raises(ProtocolError, match="^missing field 'tag'$"):
        field({}, "tag", str)
    with pytest.raises(ProtocolError,
                       match="^field 'msgs' is not an integer$"):
        field({"msgs": "1.5"}, "msgs", int)
    with pytest.raises(ProtocolError, match="^field 'mean' is not a number$"):
        field({"mean": "x"}, "mean", float)
    assert field({"msgs": "7"}, "msgs", int) == 7
    assert field({"mean": "1.5"}, "mean", float) == 1.5
    assert field({"tag": "a,b"}, "tag", str) == "a,b"


def _rec(**kw):
    base = dict(entity_id=4, kind="mobile", x=1.5, y=2.5,
                target=(3.0, 4.0), speed=1.25, cache_ids=(7, 2), cursor=10)
    base.update(kw)
    return EntityRecord(**base)


def test_entity_roundtrip_exact():
    rec = _rec()
    fields = {k: format_value(v) for k, v in entity_fields(rec).items()}
    assert entity_from_fields(fields) == rec


def test_entity_empty_cache_and_no_target():
    rec = _rec(target=None, cache_ids=())
    f = entity_fields(rec)
    assert f["target"] is None and f["cache"] == "-"
    fields = {k: format_value(v) for k, v in f.items()}
    back = entity_from_fields(fields)
    assert back.target is None
    assert back.cache_ids == ()


def test_entity_roundtrip_survives_wire():
    rec = _rec(x=0.30000000000000004, speed=2.220446049250313e-16)
    raw = encode_record("ENTITY", 9, **entity_fields(rec))
    _, _, fields = decode_record(raw)
    assert entity_from_fields(fields) == rec


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)
_RECORDS = st.builds(
    EntityRecord,
    entity_id=st.integers(0, 2**31),
    kind=st.sampled_from(["mobile", "static"]),
    x=_FINITE, y=_FINITE,
    target=st.none() | st.tuples(_FINITE, _FINITE),
    speed=_FINITE,
    cache_ids=st.integers(0, 128).flatmap(lambda n: st.lists(
        st.integers(0, 2**63 - 1), min_size=n, max_size=n,
        unique=True)).map(tuple),
    cursor=st.integers(0, 2**63 - 1))


@settings(max_examples=500, deadline=None)
@given(rec=_RECORDS, step=st.integers(0, 2**31))
def test_entity_record_survives_the_wire(rec, step):
    kind, back_step, fields = decode_record(
        encode_record("ENTITY", step, **entity_fields(rec)))
    back = entity_from_fields(fields)
    assert (kind, back_step) == ("ENTITY", step)
    # repr tells -0.0 from 0.0, which == does not
    assert back == rec and repr(back) == repr(rec)


# any text, lone surrogates included, with the bytes the framing and
# the quoting treat specially
_TEXT = st.text(st.characters() | st.sampled_from("% =,-_.+\n0aF9"))


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(RECORD_KINDS), step=st.integers(-2**63, 2**63),
       fields=st.dictionaries(
           st.from_regex(r"[a-z][a-z0-9_]*", fullmatch=True), _TEXT,
           max_size=8))
def test_text_values_survive_the_wire(kind, step, fields):
    """A record either round-trips or is refused with a ProtocolError;
    only text that UTF-8 cannot hold (a lone surrogate) is refused."""
    encodable = all(_utf8(v) for v in fields.values())
    try:
        raw = encode_record(kind, step, **fields)
    except ProtocolError:
        assert not encodable
        return
    assert encodable
    assert raw.isascii() and raw.count(b"\n") == 1
    assert decode_record(raw) == (kind, step, fields)


def _utf8(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def test_lone_surrogate_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="'note'"):
        encode_record("STATUS", 1, note="a\udc80b")


def test_entity_field_validation():
    good = {k: format_value(v) for k, v in entity_fields(_rec()).items()}
    bad = dict(good, kind="ghost")
    with pytest.raises(ProtocolError):
        entity_from_fields(bad)
    bad = dict(good, target="1.0")
    with pytest.raises(ProtocolError):
        entity_from_fields(bad)
    bad = dict(good, cache="1,x")
    with pytest.raises(ProtocolError):
        entity_from_fields(bad)
    bad = dict(good, cursor="-1")
    with pytest.raises(ProtocolError):
        entity_from_fields(bad)


def _channel_pair():
    # a writes into `up`, b reads from it; b writes into `down`
    up, down = io.BytesIO(), io.BytesIO()
    a = LineChannel(down, up, transcript=[])
    b = LineChannel(up, down, transcript=[])
    return a, b, up, down


def test_channel_send_recv_with_transcript():
    a, b, up, down = _channel_pair()
    a.send("CONTINUE", 4)
    up.seek(0)
    kind, step, fields = b.recv(expect="CONTINUE")
    assert (kind, step, fields) == ("CONTINUE", 4, {})
    assert a.transcript == ["> CONTINUE step=4"]
    assert b.transcript == ["< CONTINUE step=4"]


def test_channel_recv_expect_mismatch():
    a, b, up, down = _channel_pair()
    a.send("END", 4)
    up.seek(0)
    with pytest.raises(ProtocolError, match="expected STATUS"):
        b.recv(expect="STATUS")


def test_channel_recv_expect_tuple():
    a, b, up, down = _channel_pair()
    a.send("END", 4)
    up.seek(0)
    kind, _, _ = b.recv(expect=("CONTINUE", "END"))
    assert kind == "END"


def test_channel_eof_is_protocol_error():
    empty = io.BytesIO()
    ch = LineChannel(empty, io.BytesIO())
    with pytest.raises(ProtocolError, match="closed"):
        ch.recv()


def test_channel_send_after_close_is_protocol_error():
    up = io.BytesIO()
    ch = LineChannel(io.BytesIO(), up)
    ch.close()
    with pytest.raises(ProtocolError):
        ch.send("READY", 0)
