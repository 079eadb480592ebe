import random
from typing import NamedTuple

import pytest

from schedfuzz import fingerprint as fp_memo
from schedfuzz.benchmarks import build_micro, build_raftlite, build_tpc
from schedfuzz.coverage import trace_fingerprint
from schedfuzz.fingerprint import (
    DIGEST_SIZE,
    clear_cache,
    digest128,
    encode_canonical,
    fingerprint,
)
from schedfuzz.harness import ConcreteEvent, ConcreteEventTrace, execute_schedule
from schedfuzz.mapper import map_events
from schedfuzz.model import bfs_reachable, run_actions
from schedfuzz.schedule import generate_random_schedule


def test_digest_is_128_bits_and_stable():
    fp = digest128(b"hello")
    assert len(fp) == DIGEST_SIZE == 16
    assert fp == digest128(b"hello")
    assert fp != digest128(b"hellp")


def test_known_value_pinned_for_cross_run_stability():
    # Frozen so a platform or library change cannot silently shift every
    # fingerprint (which would invalidate persisted coverage dumps).
    assert digest128(b"").hex() == "1749a7433078f7490b8196876b552569"


def test_encoding_distinguishes_types_and_nesting():
    pairs = [
        (1, "1"),
        ((1, 2), (1, (2,))),
        ((), ("",)),
        (("a", "b"), ("ab",)),
        (0, False),
        (1, True),
        (None, 0),
        ((1,), 1),
    ]
    for a, b in pairs:
        assert encode_canonical(a) != encode_canonical(b), (a, b)


def test_encoding_rejects_unordered_containers():
    with pytest.raises(TypeError):
        encode_canonical({1, 2})
    with pytest.raises(TypeError):
        encode_canonical({"a": 1})


def test_fingerprint_memo_returns_equal_values():
    v = (("x", 3), (1, 2, 3), None)
    assert fingerprint(v) == fingerprint((("x", 3), (1, 2, 3), None))
    assert fingerprint(v) == digest128(encode_canonical(v))


def test_clear_cache_empties_both_memos_in_place():
    cache, encoded = fp_memo._cache, fp_memo._encoded
    fingerprint(("state", 1))
    trace_fingerprint(ConcreteEventTrace(
        (ConcreteEvent("deliver", 1, 0, "Execute", (("idx", 1),), 0),), ()
    ))
    assert cache and encoded
    clear_cache()
    assert not cache and not encoded
    assert fp_memo._cache is cache and fp_memo._encoded is encoded


def test_full_fingerprint_cache_is_emptied_and_fingerprints_hold(monkeypatch):
    values = [("state", i, (i % 3, "x" * (i % 4))) for i in range(100)]
    expected = [digest128(encode_canonical(v)) for v in values]
    limit = 16
    monkeypatch.setattr(fp_memo, "CACHE_LIMIT", limit)
    clear_cache()
    cache = fp_memo._cache
    for _ in range(2):
        for v, want in zip(values, expected):
            assert fingerprint(v) == want
            assert 0 < len(cache) <= limit
    assert fp_memo._cache is cache
    clear_cache()


class _Inner(NamedTuple):
    name: str
    items: tuple


class _Outer(NamedTuple):
    inner: _Inner
    ids: tuple
    blob: bytes
    flag: object


def _values(n):
    rng = random.Random(n)
    out = []
    for i in range(n):
        inner = _Inner(f"p{i % 7}", tuple(rng.randrange(4) for _ in range(i % 5)))
        out += [
            _Outer(inner, (i % 3, (i % 2, -i)), b"x" * (i % 3), None if i % 2 else "on"),
            (inner, inner.items, ()),
            ((i % 4,), ((i % 4,),), (((i % 4,),),)),
            i % 9, f"s{i % 5}", None,
        ]
    return out


def test_memoised_fingerprint_matches_a_fresh_encoding(monkeypatch):
    values = _values(300)
    expected = [digest128(encode_canonical(v)) for v in values]
    clear_cache()
    assert [fingerprint(v) for v in values] == expected
    # Again with memos so small that both are emptied many times mid-run.
    monkeypatch.setattr(fp_memo, "CACHE_LIMIT", 8)
    clear_cache()
    parts, seen = fp_memo._parts, set()
    for _ in range(2):
        for v, want in zip(values, expected):
            assert fingerprint(v) == want
            assert len(parts) <= 8 and len(fp_memo._cache) <= 8
            seen.add(len(parts))
    # The parts memo filled up, was emptied and filled again.
    assert fp_memo._parts is parts and max(seen) == 8 and min(seen) <= 1
    clear_cache()


def test_clear_cache_empties_the_parts_memo_in_place():
    parts = fp_memo._parts
    fingerprint(("state", (1, 2), "x"))
    assert parts
    clear_cache()
    assert not parts and fp_memo._parts is parts


def _no_bool_or_float(value, where):
    if isinstance(value, tuple):
        for item in value:
            _no_bool_or_float(item, where)
    else:
        assert type(value) not in (bool, float), (where, value)


@pytest.mark.parametrize("bench", [
    build_micro(), build_tpc(),
    build_raftlite(5, quorum_bug=True, crash_quota=30),
], ids=lambda b: b.name)
def test_memo_keys_hold_no_bool_or_float(bench):
    """The memos equate 1, True and 1.0: no value that reaches them may hold
    a bool or a float.  Checked on the model states that runs and a bounded
    BFS reach, the mapped actions, and every event's message fields."""
    rng = random.Random(8)
    for _ in range(300):
        trace = execute_schedule(bench.sut, generate_random_schedule(bench.gen_defaults, rng)).trace
        for ev in trace.events:
            _no_bool_or_float(ev.fields, ev)
        actions = map_events(bench, trace)
        for a in actions:
            _no_bool_or_float(a.args, a)
        for acts in (actions, actions[::-1]):
            for state in run_actions(bench.lts, acts).path:
                _no_bool_or_float(state, "run state")
    for state in bfs_reachable(bench.lts, depth_limit=4).states:
        _no_bool_or_float(state, "bfs state")
