"""Unit + property tests for transaction primitives."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.transaction as txn_mod
import repro.transport.flit as flit_mod
from repro.core.transaction import (
    BurstType,
    Opcode,
    Response,
    ResponseStatus,
    Transaction,
    make_read,
    make_write,
    split_burst,
)
from repro.ip.masters import random_workload
from repro.sim.snapshot import SerialCounter
from repro.soc import InitiatorSpec, SocBuilder, TargetSpec
from repro.sweep import Checkpoint


class TestOpcode:
    def test_classification(self):
        assert Opcode.LOAD.is_read and not Opcode.LOAD.is_write
        assert Opcode.STORE.is_write and not Opcode.STORE.is_read
        assert Opcode.READEX.is_read
        assert Opcode.STORE_COND_LOCKED.is_write

    def test_posted_store_has_no_response(self):
        assert not Opcode.STORE_POSTED.expects_response
        for opcode in Opcode:
            if opcode is not Opcode.STORE_POSTED:
                assert opcode.expects_response

    def test_locking_family(self):
        locking = {o for o in Opcode if o.is_locking}
        assert locking == {
            Opcode.READEX,
            Opcode.STORE_COND_LOCKED,
            Opcode.LOCK,
            Opcode.UNLOCK,
        }


class TestBurst:
    def test_incr_addresses(self):
        assert BurstType.INCR.addresses(0x100, 4, 4) == [
            0x100,
            0x104,
            0x108,
            0x10C,
        ]

    def test_wrap_addresses_wrap_at_boundary(self):
        # 4-beat x 4-byte WRAP starting mid-block wraps to block start.
        assert BurstType.WRAP.addresses(0x108, 4, 4) == [
            0x108,
            0x10C,
            0x100,
            0x104,
        ]

    def test_fixed_addresses_repeat(self):
        assert BurstType.FIXED.addresses(0x20, 3, 4) == [0x20, 0x20, 0x20]

    def test_single_requires_one_beat(self):
        with pytest.raises(ValueError):
            BurstType.SINGLE.addresses(0, 2, 4)

    def test_wrap_requires_power_of_two(self):
        with pytest.raises(ValueError):
            BurstType.WRAP.addresses(0, 3, 4)

    @given(
        start=st.integers(min_value=0, max_value=1 << 20),
        log_beats=st.integers(min_value=0, max_value=4),
        beat_bytes=st.sampled_from([1, 2, 4, 8]),
    )
    def test_wrap_addresses_stay_in_block(self, start, log_beats, beat_bytes):
        beats = 1 << log_beats
        start = (start // beat_bytes) * beat_bytes
        total = beats * beat_bytes
        addresses = BurstType.WRAP.addresses(start, beats, beat_bytes)
        block = (start // total) * total
        assert len(addresses) == beats
        assert len(set(addresses)) == beats  # all distinct
        assert all(block <= a < block + total for a in addresses)

    @given(
        start=st.integers(min_value=0, max_value=1 << 20),
        beats=st.integers(min_value=1, max_value=64),
        beat_bytes=st.sampled_from([1, 2, 4, 8]),
    )
    def test_incr_addresses_contiguous(self, start, beats, beat_bytes):
        addresses = BurstType.INCR.addresses(start, beats, beat_bytes)
        assert addresses[0] == start
        assert all(
            b - a == beat_bytes for a, b in zip(addresses, addresses[1:])
        )


class TestTransaction:
    def test_write_requires_data(self):
        with pytest.raises(ValueError):
            Transaction(opcode=Opcode.STORE, address=0, beats=2)

    def test_write_data_length_must_match(self):
        with pytest.raises(ValueError):
            Transaction(opcode=Opcode.STORE, address=0, beats=2, data=[1])

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            Transaction(opcode=Opcode.LOAD, address=-4)

    def test_bad_beat_width_rejected(self):
        with pytest.raises(ValueError):
            Transaction(opcode=Opcode.LOAD, address=0, beat_bytes=3)

    def test_excl_incompatible_with_locking(self):
        with pytest.raises(ValueError):
            Transaction(opcode=Opcode.READEX, address=0, excl=True)

    def test_single_beat_normalizes_burst(self):
        txn = Transaction(
            opcode=Opcode.LOAD, address=0, beats=1, burst=BurstType.INCR
        )
        assert txn.burst is BurstType.SINGLE

    def test_txn_ids_unique(self):
        a = make_read(0)
        b = make_read(0)
        assert a.txn_id != b.txn_id

    def test_total_bytes(self):
        txn = make_read(0, beats=4, beat_bytes=8)
        assert txn.total_bytes == 32

    def test_describe_mentions_opcode_and_address(self):
        text = make_read(0x1000, master="cpu").describe()
        assert "LOAD" in text and "0x00001000" in text and "cpu" in text


class TestResponse:
    def test_read_okay_requires_data(self):
        with pytest.raises(ValueError):
            Response(txn_id=1, opcode=Opcode.LOAD)

    def test_error_response_needs_no_data(self):
        r = Response(txn_id=1, opcode=Opcode.LOAD, status=ResponseStatus.SLVERR)
        assert not r.ok

    def test_exokay_is_not_error(self):
        r = Response(
            txn_id=1, opcode=Opcode.STORE, status=ResponseStatus.EXOKAY
        )
        assert r.ok


class TestSplitBurst:
    def test_split_exact(self):
        txn = make_write(0x0, list(range(8)))
        chunks = split_burst(txn, 4)
        assert chunks == [(0x0, [0, 1, 2, 3]), (0x10, [4, 5, 6, 7])]

    def test_split_remainder(self):
        txn = make_write(0x0, list(range(5)))
        chunks = split_burst(txn, 4)
        assert len(chunks) == 2
        assert chunks[1] == (0x10, [4])

    def test_split_read_has_empty_data(self):
        txn = make_read(0x0, beats=6)
        chunks = split_burst(txn, 4)
        assert [c[1] for c in chunks] == [[], []]

    def test_bad_max_beats(self):
        with pytest.raises(ValueError):
            split_burst(make_read(0), 0)

    @given(
        beats=st.integers(min_value=1, max_value=64),
        max_beats=st.integers(min_value=1, max_value=16),
    )
    def test_split_preserves_data(self, beats, max_beats):
        txn = make_write(0, list(range(beats)))
        chunks = split_burst(txn, max_beats)
        reassembled = [v for __, data in chunks for v in data]
        assert reassembled == list(range(beats))
        assert all(len(d) <= max_beats for __, d in chunks)


#: The documented flag sets, spelled out member by member:
#: (is_write, is_read, expects_response, is_locking).
OPCODE_FLAGS = {
    Opcode.LOAD: (False, True, True, False),
    Opcode.STORE: (True, False, True, False),
    Opcode.STORE_POSTED: (True, False, False, False),
    Opcode.READEX: (False, True, True, True),
    Opcode.STORE_COND_LOCKED: (True, False, True, True),
    Opcode.LOCK: (False, False, True, True),
    Opcode.UNLOCK: (False, False, True, True),
}
STATUS_IS_ERROR = {
    ResponseStatus.OKAY: False,
    ResponseStatus.EXOKAY: False,
    ResponseStatus.SLVERR: True,
    ResponseStatus.DECERR: True,
}


def _flags(member):
    if isinstance(member, Opcode):
        return (member.is_write, member.is_read, member.expects_response,
                member.is_locking)
    return member.is_error


def _checkpoint_roundtrip(member, monkeypatch):
    """Carry ``member`` through a real checkpoint: deepcopy on capture,
    pickle to bytes and back, deepcopy again on restore into a fresh
    build.  Returns the member as the restored SoC holds it."""
    # Checkpoints capture the global id streams; give this test its own.
    monkeypatch.setattr(txn_mod, "_txn_ids", SerialCounter())
    monkeypatch.setattr(flit_mod, "_flit_packet_ids", SerialCounter())

    def build():
        builder = SocBuilder()
        builder.add_initiator(InitiatorSpec(
            "m", "AXI", random_workload("m", [(0, 0x1000)], count=5, seed=1)))
        builder.add_target(TargetSpec("mem", size=0x1000))
        return builder.build()

    soc = build()
    soc.run(10)
    master = soc.masters["m"]
    if isinstance(member, Opcode):
        data = [0] if member.is_write else None
        master._pending = Transaction(opcode=member, address=0, data=data)
    else:
        master.completion_status[-1] = member
    checkpoint = Checkpoint.from_bytes(Checkpoint.capture(soc).to_bytes())
    fresh = build()
    checkpoint.restore_into(fresh)
    restored = fresh.masters["m"]
    if isinstance(member, Opcode):
        return restored._pending.opcode
    return restored.completion_status[-1]


@pytest.mark.parametrize(
    "member",
    list(OPCODE_FLAGS) + list(STATUS_IS_ERROR),
    ids=lambda member: f"{type(member).__name__}.{member.name}",
)
def test_enum_flags_are_pinned_and_survive_copies(member, monkeypatch):
    """Flags are plain attributes set on each member at import; they must
    match the documented sets and survive every way the simulator copies
    state: pickle, deepcopy and a checkpoint round trip."""
    expected = OPCODE_FLAGS.get(member, STATUS_IS_ERROR.get(member))
    assert set(OPCODE_FLAGS) == set(Opcode)
    assert set(STATUS_IS_ERROR) == set(ResponseStatus)
    assert _flags(member) == expected
    copies = [
        pickle.loads(pickle.dumps(member, protocol=protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    copies += [copy.copy(member), copy.deepcopy(member)]
    copies.append(_checkpoint_roundtrip(member, monkeypatch))
    for duplicate in copies:
        assert duplicate is member
        assert _flags(duplicate) == expected
