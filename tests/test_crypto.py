"""Primitive-level tests.

The reference implementations under tests/reference were validated against
published known answers first; the frozen vectors in tests/reference/vectors
were then computed with them.  The product code (cryptography + hashlib) is
checked for agreement with both.
"""
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference import aes_ref, sha256_ref
from tests.reference import vectors as V
from zircon.crypto import (
    DecryptionError,
    LabelModeError,
    LengthError,
    SymmetricKey,
    _ecb,
    _label_tables,
    decrypt_block,
    digest,
    encrypt_block,
    select_label_bits,
)

PADDING = bytes([8] * 8)


# -- the oracles themselves ----------------------------------------------------

def test_aes_reference_passes_published_known_answer():
    assert aes_ref.encrypt_block(V.AES_KAT_KEY, V.AES_KAT_PLAIN) == V.AES_KAT_CIPHER
    assert aes_ref.decrypt_block(V.AES_KAT_KEY, V.AES_KAT_CIPHER) == V.AES_KAT_PLAIN


def test_sha_reference_passes_published_known_answers():
    assert sha256_ref.sha256(b"abc") == V.SHA256_ABC
    assert sha256_ref.sha256(b"") == V.SHA256_EMPTY
    # one multi-block message to exercise chaining
    assert sha256_ref.sha256(b"a" * 200) == bytes.fromhex(
        sha256_ref.sha256(b"a" * 200).hex()
    )
    import hashlib
    assert sha256_ref.sha256(b"a" * 200) == hashlib.sha256(b"a" * 200).digest()


# -- product vs oracle ---------------------------------------------------------

def test_encrypt_block_matches_reference_on_random_vectors():
    prng = random.Random(0xC0FFEE)
    for _ in range(120):
        key_material = prng.randbytes(16)
        plain = prng.randbytes(8)
        key = SymmetricKey(material=key_material, epoch=0)
        got = encrypt_block(key, plain)
        want = aes_ref.encrypt_block(key_material, plain + PADDING)
        assert got == want
        assert aes_ref.decrypt_block(key_material, got) == plain + PADDING


def test_digest_matches_reference_on_random_vectors():
    prng = random.Random(0xD16E57)
    for _ in range(120):
        msg = prng.randbytes(prng.randrange(0, 200))
        assert digest(msg) == sha256_ref.sha256(msg)


def test_frozen_feature_vector():
    key = SymmetricKey(material=V.AES_KAT_KEY, epoch=0)
    assert encrypt_block(key, V.FEATURE_PLAIN8) == V.FEATURE_CIPHER16
    assert decrypt_block(key, V.FEATURE_CIPHER16) == V.FEATURE_PLAIN8
    assert aes_ref.encrypt_block(V.AES_KAT_KEY, V.FEATURE_BLOCK16) == V.FEATURE_CIPHER16


# -- block cipher wrapper -------------------------------------------------------

@given(key_material=st.binary(min_size=16, max_size=16),
       plain=st.binary(min_size=8, max_size=8))
def test_decrypt_inverts_encrypt(key_material, plain):
    key = SymmetricKey(material=key_material, epoch=3)
    assert decrypt_block(key, encrypt_block(key, plain)) == plain


def test_corrupted_cipher_fails_padding_check():
    key = SymmetricKey(material=V.AES_KAT_KEY, epoch=0)
    prng = random.Random(11)
    for _ in range(50):
        cipher = bytearray(encrypt_block(key, prng.randbytes(8)))
        cipher[prng.randrange(16)] ^= 1 << prng.randrange(8)
        with pytest.raises(DecryptionError):
            decrypt_block(key, bytes(cipher))


def test_wrong_key_fails_padding_check():
    key_a = SymmetricKey(material=V.AES_KAT_KEY, epoch=0)
    key_b = SymmetricKey(material=bytes(range(16, 32)), epoch=1)
    cipher = encrypt_block(key_a, b"ABCDEFGH")
    with pytest.raises(DecryptionError):
        decrypt_block(key_b, cipher)


def test_length_validation():
    key = SymmetricKey(material=bytes(16), epoch=0)
    with pytest.raises(LengthError):
        encrypt_block(key, b"short")
    with pytest.raises(LengthError):
        decrypt_block(key, b"x" * 15)
    with pytest.raises(LengthError):
        SymmetricKey(material=b"x" * 15, epoch=0)
    with pytest.raises(LengthError):
        select_label_bits(b"x" * 31)
    with pytest.raises(ValueError):
        SymmetricKey(material=bytes(16), epoch=-1)


@given(plain=st.binary(min_size=8, max_size=8))
@settings(max_examples=40)
def test_encryption_is_injective_per_key(plain):
    # a fixed permutation: two different plaintexts never collide
    key = SymmetricKey(material=bytes(range(16)), epoch=0)
    other = bytes(8) if plain != bytes(8) else b"\x01" + bytes(7)
    assert encrypt_block(key, plain) != encrypt_block(key, other)


def test_cached_contexts_survive_eviction_and_interleaving():
    # more distinct keys than the context cache holds, visited in an order
    # that keeps evicting and re-creating contexts, encrypt and decrypt mixed
    prng = random.Random(0xECB)
    keys = [prng.randbytes(16) for _ in range(150)]
    for _ in range(600):
        material = prng.choice(keys)
        key = SymmetricKey(material=material, epoch=0)
        plain = prng.randbytes(8)
        if prng.random() < 0.5:
            cipher = encrypt_block(key, plain)
            assert cipher == aes_ref.encrypt_block(material, plain + PADDING)
        else:
            cipher = aes_ref.encrypt_block(material, plain + PADDING)
        assert decrypt_block(key, cipher) == plain


def test_one_cache_entry_holds_both_contexts_of_a_key():
    # 64 keys, each used both ways, fit the 64-entry cache: a second pass
    # creates no context
    _ecb.cache_clear()
    keys = [SymmetricKey(material=bytes([i]) * 16, epoch=0) for i in range(64)]
    for _ in range(2):
        for key in keys:
            assert decrypt_block(key, encrypt_block(key, b"12345678")) \
                == b"12345678"
    assert _ecb.cache_info().misses == 64


def test_failed_padding_check_leaves_the_key_usable():
    key_a = SymmetricKey(material=V.AES_KAT_KEY, epoch=0)
    key_b = SymmetricKey(material=bytes(range(16, 32)), epoch=1)
    good = encrypt_block(key_b, b"12345678")
    for _ in range(3):
        with pytest.raises(DecryptionError):
            decrypt_block(key_b, encrypt_block(key_a, b"ABCDEFGH"))
        assert decrypt_block(key_b, good) == b"12345678"


# -- digest helpers -------------------------------------------------------------

@settings(max_examples=30)
@given(msg=st.binary(max_size=256))
def test_digest_equals_reference(msg):
    assert digest(msg) == sha256_ref.sha256(msg)


# -- label-bit selection --------------------------------------------------------

def test_lsb32_mode_reads_low_four_bytes():
    d = digest(b"abc")
    assert select_label_bits(d) == V.LSB32_ABC
    # independent view of the same definition
    import struct
    assert select_label_bits(d) == struct.unpack(">I", bytes(d)[28:])[0]


def test_prng_mode_frozen_vector():
    d = V.LABEL_DIGEST
    got = select_label_bits(d, mode="prng", seed=V.LABEL_PRNG_SEED)
    assert got == V.LABEL_PRNG_VALUE


def test_prng_mode_is_deterministic_and_seed_sensitive():
    d = digest(b"management frame")
    a = select_label_bits(d, mode="prng", seed="s1")
    b = select_label_bits(d, mode="prng", seed="s1")
    c = select_label_bits(d, mode="prng", seed="s2")
    assert a == b
    assert a != c  # verified for these seeds; not a general guarantee


def _label_uncached(d, seed):
    positions = random.Random(seed).sample(range(256), 32)
    bits = "".join(str((d[p // 8] >> (7 - p % 8)) & 1) for p in positions)
    return int(bits, 2)


def test_prng_labels_equal_uncached_reference():
    seeds = [7, 0, -3, 2 ** 62, 2.0 ** 62, "s1", "", b"seed", bytearray(b"seed"),
             b"\x00" * 40, 7]  # 7 comes again after the cache holds it
    prng = random.Random(0x1AB)
    for _ in range(3):
        for seed in seeds:
            d = digest(prng.randbytes(20))
            assert select_label_bits(d, mode="prng", seed=seed) == \
                _label_uncached(d, seed), seed
    # a bytearray seed still works after it changed in place
    seed = bytearray(b"abc")
    d = digest(b"frame")
    first = select_label_bits(d, mode="prng", seed=seed)
    seed[0] ^= 1
    assert select_label_bits(d, mode="prng", seed=seed) == _label_uncached(d, seed)
    assert select_label_bits(d, mode="prng", seed=b"abc") == first


@given(data=st.binary(min_size=32, max_size=32),
       seed=st.integers() | st.integers(-2 ** 80, 2 ** 80) | st.floats()
       | st.text() | st.binary())
@settings(max_examples=150)
def test_prng_tables_equal_uncached_reference(data, seed):
    assert select_label_bits(data, mode="prng", seed=seed) == \
        _label_uncached(data, seed)


def test_one_seed_tables_stay_small():
    # cleared first, so no eviction frees memory while this seed's tables
    # are counted
    _label_tables.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables = _label_tables("a new seed")
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tables) == 32
    assert grown <= 64 * 1024, grown


def test_prng_selection_holds_no_memory_between_calls():
    # this seed's 32 bits fall in exactly 20 digest bytes; a 20-tuple built
    # per call, as a getter of those bytes returns, piles up on CPython
    # 3.11's tuple free list: up to 2000 of them, 400 KB
    seed = 357251267
    digests = [digest(i.to_bytes(2, "big")) for i in range(3000)]
    select_label_bits(digests[0], mode="prng", seed=seed)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for d in digests:
            select_label_bits(d, mode="prng", seed=seed)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 16 * 1024, held


@given(msg=st.binary(max_size=64))
@settings(max_examples=40)
def test_labels_fit_32_bits(msg):
    d = digest(msg)
    assert 0 <= select_label_bits(d) < 2 ** 32
    assert 0 <= select_label_bits(d, mode="prng", seed=7) < 2 ** 32


def test_label_mode_errors():
    d = digest(b"x")
    with pytest.raises(LabelModeError):
        select_label_bits(d, mode="nope")
    with pytest.raises(LabelModeError):
        select_label_bits(d, mode="prng")  # no seed
    with pytest.raises(LengthError):
        select_label_bits(b"short")


# -- frozen-vector provenance ---------------------------------------------------

def test_regen_script_reproduces_frozen_vectors_file():
    """scripts/regen_vectors.py must emit the vectors module byte for byte,
    so the frozen constants can never drift from their construction."""
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "regen_vectors.py")],
        capture_output=True, text=True, check=True, cwd=str(root),
    )
    frozen = (root / "tests" / "reference" / "vectors.py").read_text()
    assert out.stdout == frozen
