"""Cryptographic primitives shared by the watermark codec and the
internal-datagram labeler.

Every output here is a pure function of the inputs: one fixed-size block
encryption, the payload digest, and the selection of 32 label bits out of
a digest.  The only state kept between calls is derived from a key or a
seed alone and changes no result: one stateless ECB encryptor and
decryptor pair per key material, and per PRNG seed one 256-entry table of
32-bit label parts per digest byte (bytes that hold no drawn bit, about 11
of the 32, share one table; about 25 KB a seed and never over 40 KB).  Key
material is wrapped in SymmetricKey so the rotation epoch travels with the
bytes.
"""
from __future__ import annotations

import functools
import hashlib
import operator
import random
from array import array
from dataclasses import dataclass
from typing import Tuple

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

KEY_BYTES = 16
PLAIN_BYTES = 8
CIPHER_BYTES = 16
DIGEST_BYTES = 32

# the 8-byte plaintext is padded to one cipher block with eight 0x08 bytes;
# the constant tail doubles as a decryption sanity check
_PADDING = bytes([CIPHER_BYTES - PLAIN_BYTES] * (CIPHER_BYTES - PLAIN_BYTES))

LABEL_MODE_LSB32 = "lsb32"
LABEL_MODE_PRNG = "prng"
LABEL_BITS = 32


class LengthError(ValueError):
    """An octet-string argument has the wrong size for the operation."""


class DecryptionError(ValueError):
    """Block decryption produced an invalid padding tail (wrong key,
    wrong epoch, or corrupted ciphertext)."""


class LabelModeError(ValueError):
    """Invalid label-selection mode or missing PRNG seed."""


@dataclass(frozen=True)
class SymmetricKey:
    """A 16-byte shared key tagged with its rotation epoch."""

    material: bytes
    epoch: int

    def __post_init__(self) -> None:
        if len(self.material) != KEY_BYTES:
            raise LengthError(
                f"key must be {KEY_BYTES} bytes, got {len(self.material)}"
            )
        if self.epoch < 0:
            raise ValueError("key epoch must be non-negative")


# Bounded because a KeyRing keeps every epoch: the cache holds the contexts
# of the keys in use, not of every key ever installed.
@functools.lru_cache(maxsize=64)
def _ecb(material: bytes):
    """(encryptor, decryptor) of one key, both from one cipher object."""
    # never finalize() a cached context: that closes it, and ECB has no
    # chaining state to flush
    cipher = Cipher(algorithms.AES(material), modes.ECB())
    return cipher.encryptor(), cipher.decryptor()


def encrypt_block(key: SymmetricKey, plain: bytes) -> bytes:
    """Encrypt an 8-byte value into a single 16-byte cipher block."""
    if len(plain) != PLAIN_BYTES:
        raise LengthError(f"plaintext must be {PLAIN_BYTES} bytes, got {len(plain)}")
    return _ecb(key.material)[0].update(plain + _PADDING)


def decrypt_block(key: SymmetricKey, cipher: bytes) -> bytes:
    """Invert encrypt_block, verifying and stripping the padding tail."""
    if len(cipher) != CIPHER_BYTES:
        raise LengthError(f"ciphertext must be {CIPHER_BYTES} bytes, got {len(cipher)}")
    block = _ecb(key.material)[1].update(cipher)
    if block[PLAIN_BYTES:] != _PADDING:
        raise DecryptionError("padding check failed")
    return block[:PLAIN_BYTES]


def digest(data: bytes) -> bytes:
    """Full 32-byte digest of arbitrary input."""
    return hashlib.sha256(data).digest()


def select_label_bits(d: bytes, mode: str = LABEL_MODE_LSB32,
                      seed: object = None) -> int:
    """Pick 32 bits out of a digest for header labeling.

    lsb32 reads the low 4 digest bytes as one big-endian value.  prng draws
    32 distinct bit positions (without replacement) from a generator seeded
    with `seed` and concatenates those bits in draw order, first drawn bit
    most significant.  Bit positions count from the most significant bit of
    byte 0.
    """
    if len(d) != DIGEST_BYTES:
        raise LengthError(f"digest must be {DIGEST_BYTES} bytes, got {len(d)}")
    if mode == LABEL_MODE_LSB32:
        return int.from_bytes(d[-4:], "big")
    if mode == LABEL_MODE_PRNG:
        if seed is None:
            raise LabelModeError("prng label mode requires a seed")
        if isinstance(seed, bytearray):
            seed = bytes(seed)  # hashable, and seeds random.Random identically
        # each table puts its byte's bits at their own label places, so the
        # parts never overlap and their sum is the label
        return sum(map(operator.getitem, _label_tables(seed), d))
    raise LabelModeError(f"unknown label mode {mode!r}")


# typed: equal seeds of different types can seed differently (int 2**62 and
# float 2.0**62 compare equal, but random.Random seeds a float by its hash)
@functools.lru_cache(maxsize=64, typed=True)
def _label_tables(seed: object) -> Tuple[array, ...]:
    """For `seed`, per digest byte: a table from the byte's value to its
    drawn bits at their label places, first drawn bit most significant.
    Bytes that hold no drawn bit share one all-zero table."""
    positions = random.Random(seed).sample(range(DIGEST_BYTES * 8), LABEL_BITS)
    places = [[] for _ in range(DIGEST_BYTES)]  # (label place, right shift)
    for i, pos in enumerate(positions):
        places[pos // 8].append((LABEL_BITS - 1 - i, 7 - pos % 8))
    # unsigned 32-bit entries: a tuple of ints takes twice the memory even
    # with equal entries sharing one object, and 64 seeds stay cached
    zero = array("I", [0] * 256)
    return tuple(array("I", [sum(((v >> shift) & 1) << place
                                 for place, shift in bits)
                             for v in range(256)]) if bits else zero
                 for bits in places)
