import pytest

from schedfuzz import fingerprint as fp_memo
from schedfuzz.coverage import trace_fingerprint
from schedfuzz.fingerprint import (
    DIGEST_SIZE,
    clear_cache,
    digest128,
    encode_canonical,
    fingerprint,
)
from schedfuzz.harness import ConcreteEvent, ConcreteEventTrace


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
