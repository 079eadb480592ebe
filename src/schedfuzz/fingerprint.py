"""Stable 128-bit fingerprints of canonical values.

Model states, trace words, and coverage items are all reduced to nested
tuples of ints/strings/bytes/bools/None before hashing, so fingerprints are
identical across runs, processes, and platforms.  The digest is keyed
blake2b; the key is fixed so two hosts agree on every fingerprint.
The memos are keyed by value, and Python equates 1, True and 1.0, which
encode differently or not at all: so model states, mapped actions and message
fields hold no bool or float.
"""

from __future__ import annotations

import hashlib

DIGEST_SIZE = 16
_KEY = b"schedfuzz-fp-v1\x00"

# Memos: states and trace events recur constantly during a campaign, and the
# encode+digest cost dominates coverage accounting without them.  _cache maps
# a canonical value to its fingerprint; _encoded maps a trace event's key
# value to its encoding (filled by coverage); _parts maps a tuple item to its
# encoding, so a new state encodes only its new items.  A memo that reaches
# CACHE_LIMIT entries is emptied in place, so memory stays bounded across
# the campaigns of one process; callers may hold references to any of them.
CACHE_LIMIT = 1 << 16
_cache: dict[object, bytes] = {}
_encoded: dict[object, bytes] = {}
_parts: dict[object, bytes] = {}


def encode_canonical(value) -> bytes:
    """Encode a nested canonical value as length-prefixed tagged bytes.

    Supported node types: None, bool, int, str, bytes, tuple.  Callers are
    responsible for canonical form (sets already sorted into tuples, maps
    flattened into key-ordered pairs); passing an unordered container is an
    error, not a silent re-ordering.
    """
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def _encode(value, out: bytearray) -> None:
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, int):
        body = b"%d" % value
        out += b"i%d:" % len(body)
        out += body
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out += b"s%d:" % len(body)
        out += body
    elif isinstance(value, bytes):
        out += b"b%d:" % len(value)
        out += value
    elif isinstance(value, tuple):
        out += b"("
        for item in value:
            _encode(item, out)
        out += b")"
    else:
        raise TypeError(f"not a canonical value: {type(value).__name__}")


def digest128(data: bytes) -> bytes:
    """Keyed 128-bit digest of raw bytes."""
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE, key=_KEY).digest()


def fingerprint(value) -> bytes:
    """128-bit fingerprint of a canonical value, memoized.

    Equal values always fingerprint equally; collisions are negligible below
    ~10**7 distinct values, the guard ceiling used by the state enumeration
    oracles.
    """
    fp = _cache.get(value)
    if fp is not None:
        return fp
    if not isinstance(value, tuple):
        return remember(_cache, value, digest128(encode_canonical(value)))
    # _encode's bytes for a tuple, built from its items' memoised encodings.
    parts = [_parts.get(item) or remember(_parts, item, encode_canonical(item))
             for item in value]
    return remember(_cache, value, digest128(b"(" + b"".join(parts) + b")"))


def remember(memo: dict, key, value):
    """Store ``value`` under ``key`` in a bounded memo and return it."""
    if len(memo) >= CACHE_LIMIT:
        memo.clear()
    memo[key] = value
    return value


def clear_cache() -> None:
    """Empty the three memos in place."""
    _cache.clear()
    _encoded.clear()
    _parts.clear()
