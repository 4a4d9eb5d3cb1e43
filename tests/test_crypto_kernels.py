"""Byte identity of the crypto storey's fast kernels.

The SKE/MAC kernels and the handshake exponentiations are written for
speed (whole-body integer XOR, prepared HMAC states, fixed-base tables).
Nothing they output may differ by a byte from the plain construction, and
three oracles hold them to that:

* ``tests/data/crypto_golden.json`` — outputs recorded at commit f6312ca,
  before the kernels were rewritten: AEAD seals, HMAC tags, HKDF, hash-to-
  int, DH and Schnorr values on both groups, an attestation quote, and one
  FULL ERB n=8 session end to end.
* the byte-at-a-time reference implementations below (the code ``src/``
  used to run), compared by hypothesis on inputs with leading zero bytes,
  ``bytearray``/``memoryview`` carriers and empty bodies;
* ``pow()`` for the fixed-base tables.

``PYTHONPATH=src python tests/test_crypto_kernels.py`` rewrites the golden
file from the checked-out code — only for a change that *means* to alter a
wire byte.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.byzantine import TamperAdversary
from repro.channel.peer_channel import SecureChannel
from repro.common.config import ChannelSecurity, SimulationConfig
from repro.common.errors import CryptoError, IntegrityError
from repro.common.rng import DeterministicRNG
from repro.common.serialization import encode
from repro.common.types import MessageType, ProtocolMessage
from repro.core.erb import ErbProgram
from repro.crypto import mac, stream_cipher
from repro.crypto.aead import AEAD, AeadKey
from repro.crypto.dh import MODP_768, MODP_2048, DiffieHellman, FixedBaseTable
from repro.crypto.hashing import hash_to_int
from repro.crypto.kdf import hkdf, hkdf_expand
from repro.crypto.schnorr import schnorr_keygen, schnorr_verify
from repro.net.session import EngineSession
from repro.net.simulator import SynchronousNetwork
from repro.sgx.attestation import AttestationAuthority
from repro.sgx.enclave import Enclave
from repro.sgx.trusted_time import SimulationClock

GOLDEN_PATH = Path(__file__).parent / "data" / "crypto_golden.json"
GROUPS = {"modp768": MODP_768, "modp2048": MODP_2048}
SEAL_LENGTHS = (0, 1, 31, 32, 33, 1024, 16384)


def _bytes(label: str, length: int) -> bytes:
    """Deterministic filler that owes nothing to the code under test."""
    return hashlib.shake_256(label.encode()).digest(length)


class _ErbFactory:
    def __init__(self, n: int, t: int, payload: bytes) -> None:
        self.n, self.t, self.payload = n, t, payload

    def __call__(self, node_id: int) -> ErbProgram:
        return ErbProgram(
            node_id=node_id, initiator=0, n=self.n, t=self.t,
            message=self.payload if node_id == 0 else None,
        )


# ----------------------------------------------------------------------
# what the golden file pins, computed by the checked-out code
# ----------------------------------------------------------------------

def seal_vectors() -> list:
    box = AEAD(AeadKey.generate(DeterministicRNG("golden-aead-key")))
    out = []
    for length in SEAL_LENGTHS:
        for ad in (b"", b"0->1"):
            sealed = box.seal(
                _bytes("plaintext", length),
                DeterministicRNG(("golden-seal", length)),
                associated_data=ad,
            )
            case = {
                "length": length, "ad": ad.hex(),
                "sha256": hashlib.sha256(sealed).hexdigest(),
            }
            if length <= 1024:     # short enough to keep whole
                case["sealed"] = sealed.hex()
            out.append(case)
    return out


def mac_vectors() -> list:
    return [
        {
            "key_len": key_len, "message_len": message_len,
            "tag": mac.mac_auth(
                _bytes("mac-key", key_len), _bytes("mac-message", message_len)
            ).hex(),
        }
        for key_len in (32, 64, 65, 100)
        for message_len in (0, 3, 1000)
    ]


def kdf_vectors() -> list:
    return [
        hkdf(_bytes("ikm", 96), info=b"channel|0|1", length=length, salt=salt).hex()
        for length in (16, 64, 100)
        for salt in (b"", b"salt")
    ]


def handshake_vectors(name: str) -> dict:
    """DH, Schnorr, hash-to-int and one attestation quote on one group."""
    group = GROUPS[name]
    width = group.byte_width
    dh_a = DiffieHellman(DeterministicRNG(("golden-dh-a", name)), group)
    dh_b = DiffieHellman(DeterministicRNG(("golden-dh-b", name)), group)
    pair_a, pair_b = dh_a.generate_keypair(), dh_b.generate_keypair()
    rng = DeterministicRNG(("golden-schnorr", name))
    signer = schnorr_keygen(rng, group)
    message = _bytes("signed-message", 300)
    signature = signer.sign(message, rng)
    authority = AttestationAuthority(DeterministicRNG(("golden-ias", name)), group)
    quote = authority.issue_quote(
        _bytes("mrenclave", 32), pair_a.public.to_bytes(width, "big"),
        DeterministicRNG(("golden-quote", name)),
    )
    authority.verify_quote(quote, _bytes("mrenclave", 32))
    return {
        "dh_public_a": pair_a.public.to_bytes(width, "big").hex(),
        "dh_public_b": pair_b.public.to_bytes(width, "big").hex(),
        "dh_shared": dh_a.shared_secret(pair_a, pair_b.public).hex(),
        "dh_shared_check": dh_b.shared_secret(pair_b, pair_a.public).hex(),
        "schnorr_public": hex(signer.public),
        "schnorr_signature": [hex(signature.e), hex(signature.s)],
        "schnorr_verifies": schnorr_verify(group, signer.public, message, signature),
        "authority_public": hex(authority.public_key),
        "quote_signature": [hex(quote.signature.e), hex(quote.signature.s)],
        "hash_to_int": [
            hex(hash_to_int(_bytes("h2i", 600), group.subgroup_order, domain=domain))
            for domain in ("schnorr", "")
        ],
    }


def _run_vector(result) -> dict:
    return {
        "outputs_sha256": {
            str(k): hashlib.sha256(v).hexdigest()
            for k, v in sorted(result.outputs.items())
        },
        "halted": sorted(result.halted),
        "rounds": result.rounds_executed,
        "bytes_by_round": {
            str(k): v for k, v in sorted(result.traffic.bytes_by_round.items())
        },
        "messages_sent": result.traffic.messages_sent,
        "envelopes_sent": result.traffic.envelopes_sent,
        "rejections": result.traffic.rejections,
    }


def _channel_counters(network) -> dict:
    table = network.transport._table._channels
    return {
        f"{a}-{b}": [channel._send_counter[a], channel._send_counter[b]]
        for (a, b), channel in sorted(table.items())
    }


def session_vector() -> dict:
    """A FULL ERB n=8 session (envelope path), two runs on warm channels."""
    config = SimulationConfig(
        n=8, seed=5, channel_security=ChannelSecurity.FULL,
        extra={"dh_group": "small"},
    )
    factory = _ErbFactory(8, config.t, _bytes("erb-payload", 1024))
    with EngineSession(config, factory) as session:
        runs = [
            _run_vector(session.run(config.t + 2, seed=seed)) for seed in (5, 6)
        ]
        return {"runs": runs, "counters": _channel_counters(session.network)}


def tamper_vector() -> dict:
    """The same protocol with node 2's OS flipping ciphertext bits: the
    behaviour puts node 2's links on the per-wire path (write/read, not
    envelopes)."""
    config = SimulationConfig(
        n=5, seed=9, channel_security=ChannelSecurity.FULL,
        extra={"dh_group": "small"},
    )
    network = SynchronousNetwork(
        config, _ErbFactory(5, config.t, b"tamper-me"),
        behaviors={2: TamperAdversary()},
    )
    out = _run_vector(network.run(config.t + 2))
    out["counters"] = _channel_counters(network)
    return out


VECTORS = {
    "seal": seal_vectors,
    "mac": mac_vectors,
    "kdf": kdf_vectors,
    "modp768": lambda: handshake_vectors("modp768"),
    "modp2048": lambda: handshake_vectors("modp2048"),
    "session": session_vector,
    "tamper": tamper_vector,
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestGoldenVectors:
    @pytest.mark.parametrize("section", sorted(VECTORS))
    def test_section_repeats_the_recorded_bytes(self, golden, section):
        assert VECTORS[section]() == golden[section]

    def test_recorded_seals_open(self, golden):
        """The new ``open`` against bytes the old ``seal`` wrote."""
        box = AEAD(AeadKey.generate(DeterministicRNG("golden-aead-key")))
        opened = 0
        for case in golden["seal"]:
            if "sealed" in case:
                plaintext = box.open(
                    bytes.fromhex(case["sealed"]), bytes.fromhex(case["ad"])
                )
                assert plaintext == _bytes("plaintext", case["length"])
                opened += 1
        assert opened == 12

    def test_session_is_clean_and_tampering_is_not(self, golden):
        """What the numbers above must say, whatever they are."""
        for run in golden["session"]["runs"]:
            assert run["rejections"] == 0 and len(run["outputs_sha256"]) == 8
        assert golden["tamper"]["rejections"] > 0
        assert golden["tamper"]["halted"] == [2]


# ----------------------------------------------------------------------
# byte-wise references: the code src/ ran before the rewrite
# ----------------------------------------------------------------------

def ref_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    blocks = []
    for i in range((length + 31) // 32):
        blocks.append(hashlib.sha256(key + nonce + i.to_bytes(8, "big")).digest())
    return b"".join(blocks)[:length]


def ref_xor(data: bytes, stream: bytes) -> bytes:
    return bytes(p ^ s for p, s in zip(data, stream))


def ref_hmac(key: bytes, message: bytes) -> bytes:
    if len(key) > 64:
        key = hashlib.sha256(key).digest()
    padded = key.ljust(64, b"\x00")
    inner_key = bytes(a ^ 0x36 for a in padded)
    outer_key = bytes(a ^ 0x5C for a in padded)
    inner = hashlib.sha256(inner_key + message).digest()
    return hashlib.sha256(outer_key + inner).digest()


def ref_seal(key: AeadKey, plaintext: bytes, rng, ad: bytes) -> bytes:
    nonce = rng.randbytes(16)
    body = ref_xor(plaintext, ref_keystream(key.enc_key, nonce, len(plaintext)))
    return nonce + body + ref_hmac(key.mac_key, nonce + body + ad)


def ref_hash_to_int(data: bytes, modulus: int, domain: str) -> int:
    material = b""
    counter = 0
    while len(material) * 8 < modulus.bit_length() + 128:
        material += hashlib.sha256(
            b"repro-hash:" + (domain or "hash-to-int").encode() + b"\x00"
            + counter.to_bytes(4, "big") + data
        ).digest()
        counter += 1
    return int.from_bytes(material, "big") % modulus


def ref_hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    output = block = b""
    counter = 1
    while len(output) < length:
        block = ref_hmac(prk, block + info + bytes([counter]))
        output += block
        counter += 1
    return output[:length]


#: bodies that start with zero bytes (an integer XOR must not drop them),
#: cross a keystream block boundary, or are empty
bodies = st.builds(
    lambda zeros, tail: bytes(zeros) + tail,
    st.integers(0, 40), st.binary(max_size=120),
)
carriers = st.sampled_from((bytes, bytearray, memoryview))
keys32 = st.binary(min_size=32, max_size=32)


class TestKernelsEqualReference:
    @given(key=keys32, body=bodies, carrier=carriers, seed=st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_ske_encrypt_and_decrypt(self, key, body, carrier, seed):
        ct = stream_cipher.ske_encrypt(key, carrier(body), DeterministicRNG(seed))
        nonce = DeterministicRNG(seed).randbytes(16)
        assert type(ct) is bytes
        assert ct == nonce + ref_xor(body, ref_keystream(key, nonce, len(body)))
        # Decryption of an arbitrary body, not only of our own output.
        plain = stream_cipher.ske_decrypt(key, carrier(nonce + body))
        assert type(plain) is bytes
        assert plain == ref_xor(body, ref_keystream(key, nonce, len(body)))
        assert stream_cipher.ske_decrypt(key, ct) == body

    @given(key=st.binary(max_size=130), message=bodies, carrier=carriers,
           cut=st.integers(0, 160))
    @settings(max_examples=150, deadline=None)
    def test_hmac(self, key, message, carrier, cut):
        tag = ref_hmac(key, message)
        assert mac.mac_auth(key, carrier(message)) == tag
        assert mac.Hmac(carrier(key)).auth(message[:cut], message[cut:]) == tag
        assert mac.mac_verify(key, message, carrier(tag))
        assert not mac.mac_verify(key, message + b"\x00", tag)
        assert not mac.mac_verify(key, message, tag[:-1])

    @given(plaintext=bodies, ad=st.binary(max_size=12), carrier=carriers,
           seed=st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_aead(self, plaintext, ad, carrier, seed):
        key = AeadKey.generate(DeterministicRNG(("key", seed)))
        box = AEAD(key)
        sealed = box.seal(carrier(plaintext), DeterministicRNG(seed), ad)
        assert sealed == ref_seal(key, plaintext, DeterministicRNG(seed), ad)
        assert box.open(carrier(sealed), ad) == plaintext
        with pytest.raises(IntegrityError):
            box.open(sealed, ad + b"x")

    @given(data=bodies, modulus=st.integers(1, 2**2100),
           domain=st.sampled_from(("", "schnorr")))
    @settings(max_examples=100, deadline=None)
    def test_hash_to_int(self, data, modulus, domain):
        assert hash_to_int(data, modulus, domain) == ref_hash_to_int(
            data, modulus, domain
        )

    @given(prk=st.binary(max_size=80), info=st.binary(max_size=20),
           length=st.integers(0, 200))
    @settings(max_examples=100, deadline=None)
    def test_hkdf_expand(self, prk, info, length):
        assert hkdf_expand(prk, info, length) == ref_hkdf_expand(prk, info, length)


class TestAeadRejectsWhatIsNotBytes:
    @pytest.mark.parametrize("hostile", [12345, None, "s" * 60, (), (b"m",), 1.5])
    def test_open_raises_integrity_error(self, hostile):
        box = AEAD(AeadKey.generate(DeterministicRNG("k")))
        with pytest.raises(IntegrityError):
            box.open(hostile, b"0->1")


# ----------------------------------------------------------------------
# fixed-base tables
# ----------------------------------------------------------------------

class TestFixedBase:
    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_equals_pow_at_the_edges(self, name):
        group = GROUPS[name]
        q, p = group.subgroup_order, group.prime
        table = group.fixed_base(group.generator)
        window = FixedBaseTable.WINDOW
        assert table.limit == 1 << (window * -(-q.bit_length() // window))
        assert table.limit > q          # q - e reaches q when e == 0
        for exponent in (0, 1, 2, 31, 32, q - 1, q, table.limit - 1):
            expected = pow(group.generator, exponent, p)
            assert table.pow(exponent) == expected
            assert group.power(exponent) == expected

    def test_typed_error_beyond_the_table(self):
        table = MODP_768.fixed_base(3)
        for exponent in (-1, table.limit, table.limit << 40):
            with pytest.raises(CryptoError):
                table.pow(exponent)

    @given(base=st.integers(0, 2**800), exponent=st.integers(0, 2**770 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_pow_for_any_base(self, base, exponent):
        table = MODP_768.fixed_base(base)
        assert table.pow(exponent) == pow(base, exponent, MODP_768.prime)

    def test_verification_with_and_without_a_table_agree(self):
        rng = DeterministicRNG("table-or-pow")
        signer = schnorr_keygen(rng, MODP_768)
        table = MODP_768.fixed_base(signer.public)
        good = signer.sign(b"m", rng)
        forged = type(good)(e=good.e, s=(good.s + 1) % MODP_768.subgroup_order)
        zero_e = type(good)(e=0, s=good.s)      # q - e == q: the widest exponent
        for signature in (good, forged, zero_e):
            assert schnorr_verify(
                MODP_768, signer.public, b"m", signature, public_table=table
            ) == schnorr_verify(MODP_768, signer.public, b"m", signature)
        assert schnorr_verify(MODP_768, signer.public, b"m", good, table)

    def test_tables_are_built_on_first_use_never_at_import(self):
        """A MODELED run (what every benchmark workload but one is) imports
        the whole package, runs a protocol and builds no table."""
        script = (
            "from repro import SimulationConfig, run_erb\n"
            "from repro.crypto.dh import MODP_768, MODP_2048\n"
            "run_erb(SimulationConfig(n=4, seed=1), 0, b'x')\n"
            "for group in (MODP_768, MODP_2048):\n"
            "    assert '_generator_table' not in vars(group), 'table built'\n"
        )
        subprocess.run([sys.executable, "-c", script], check=True, timeout=60)
        MODP_768.power(5)
        assert "_generator_table" in vars(MODP_768)


# ----------------------------------------------------------------------
# the per-wire FULL path still rejects a flipped bit
# ----------------------------------------------------------------------

def test_tampered_wire_on_the_per_wire_full_path_is_rejected():
    master = DeterministicRNG("kernels-channel")
    authority = AttestationAuthority(master, MODP_768)
    clock = SimulationClock()
    factory = _ErbFactory(2, 0, b"payload")
    a, b = (Enclave(i, factory(i), master, clock, authority) for i in (0, 1))
    link = SecureChannel.establish(a, b, ChannelSecurity.FULL, MODP_768)
    message = ProtocolMessage(
        type=MessageType.INIT, initiator=0, seq=1, payload=b"payload", rnd=1,
        instance="erb",
    )
    rng = a.rdrand.rng()
    wire = link.write(0, message, rng, a.measurement)
    with pytest.raises(IntegrityError):
        link.read(1, wire.tampered_copy())
    assert link.read(1, wire) == message
    envelope = link.write_envelope(
        0, [encode(message.to_tuple())], rng, a.measurement
    )
    envelope.sealed = envelope.sealed[:-1] + bytes([envelope.sealed[-1] ^ 1])
    with pytest.raises(IntegrityError):
        link.read_envelope(1, envelope)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: make() for name, make in VECTORS.items()}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH}")
