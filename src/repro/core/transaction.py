"""Protocol-neutral transaction primitives.

Every VC socket (AHB, AXI, OCP, VCI, proprietary) is translated by its NIU
into instances of :class:`Transaction`; responses travel back as
:class:`Response`.  The vocabulary is the union of what the supported
sockets can express — the paper's point is that this union is small enough
to be carried by one packet format once ordering and synchronization are
handled by field-assignment policies and optional user bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.snapshot import SerialCounter


class Opcode(enum.Enum):
    """Transaction-layer operation codes.

    ``LOAD``/``STORE`` are the ordinary read/write primitives.
    ``STORE_POSTED`` is a write without a response (OCP posted writes,
    AHB bufferable writes).  ``READEX``/``STORE_COND_LOCKED`` and
    ``LOCK``/``UNLOCK`` implement the *blocking* legacy synchronization;
    exclusive (non-blocking) synchronization reuses ``LOAD``/``STORE``
    with the ``excl`` user bit set — exactly the paper's single-bit
    "NoC service".
    """

    LOAD = "LOAD"
    STORE = "STORE"
    STORE_POSTED = "STORE_POSTED"
    READEX = "READEX"
    STORE_COND_LOCKED = "STORE_COND_LOCKED"
    LOCK = "LOCK"
    UNLOCK = "UNLOCK"

    # Per-member flags, assigned once below the class: they are read on
    # every issue, admission and delivery, and a plain attribute read
    # costs a fraction of a property that re-tests tuple membership.
    #: STORE, STORE_POSTED and STORE_COND_LOCKED.
    is_write: bool
    #: LOAD and READEX.
    is_read: bool
    #: Everything but STORE_POSTED: posted stores complete at the NIU.
    expects_response: bool
    #: The legacy blocking-synchronization family (paper §3): READEX,
    #: STORE_COND_LOCKED, LOCK and UNLOCK.
    is_locking: bool


for _op in Opcode:
    _op.is_write = _op in (Opcode.STORE, Opcode.STORE_POSTED, Opcode.STORE_COND_LOCKED)
    _op.is_read = _op in (Opcode.LOAD, Opcode.READEX)
    _op.expects_response = _op is not Opcode.STORE_POSTED
    _op.is_locking = _op in (
        Opcode.READEX,
        Opcode.STORE_COND_LOCKED,
        Opcode.LOCK,
        Opcode.UNLOCK,
    )


class BurstType(enum.Enum):
    """Burst address sequences, union of AHB/AXI/OCP/VCI burst kinds."""

    SINGLE = "SINGLE"
    INCR = "INCR"
    WRAP = "WRAP"
    FIXED = "FIXED"  # AXI FIFO-style bursts
    STREAM = "STREAM"  # OCP STRM

    def addresses(self, start: int, beats: int, beat_bytes: int) -> List[int]:
        """Byte address of every beat in the burst.

        WRAP wraps at the burst-size boundary as AHB/AXI define it.
        FIXED/STREAM repeatedly target the start address.
        """
        if beats < 1:
            raise ValueError(f"burst needs >= 1 beat, got {beats}")
        if self in (BurstType.FIXED, BurstType.STREAM):
            return [start] * beats
        if self is BurstType.SINGLE:
            if beats != 1:
                raise ValueError(f"SINGLE burst must have 1 beat, got {beats}")
            return [start]
        if self is BurstType.INCR:
            return [start + i * beat_bytes for i in range(beats)]
        # WRAP: total size must be a power of two multiple of the beat size
        total = beats * beat_bytes
        if total & (total - 1):
            raise ValueError(f"WRAP burst size {total} is not a power of two")
        base = (start // total) * total
        return [base + ((start - base) + i * beat_bytes) % total for i in range(beats)]


class ResponseStatus(enum.Enum):
    """Completion status carried in responses, superset of socket statuses."""

    OKAY = "OKAY"
    EXOKAY = "EXOKAY"  # exclusive success (AXI EXOKAY / OCP SRMD ok)
    SLVERR = "SLVERR"  # target signalled an error
    DECERR = "DECERR"  # no target decoded for the address

    #: SLVERR and DECERR (a plain member attribute, like Opcode's flags).
    is_error: bool


for _status in ResponseStatus:
    _status.is_error = _status in (ResponseStatus.SLVERR, ResponseStatus.DECERR)


#: Global transaction-id stream.  A SerialCounter (not itertools.count)
#: so checkpoints can capture and restore it — a restored run must hand
#: out exactly the ids the uninterrupted run would have.
_txn_ids = SerialCounter()


def _next_txn_id() -> int:
    return next(_txn_ids)


@dataclass
class Transaction:
    """One transaction-layer operation emitted by an initiator NIU.

    Attributes
    ----------
    opcode, address, burst:
        What to do and where.  ``address`` is a global SoC byte address;
        the address map resolves it to (``SlvAddr``, offset).
    beats, beat_bytes:
        Burst length and per-beat width.
    data:
        Write payload, one int per beat (reads carry ``None``).
    master, thread, txn_tag:
        Socket-side identity: the initiating master's name, the OCP
        thread / AXI ID it used (0 for single-threaded sockets), and the
        protocol-level transaction tag if any.
    excl:
        Requests the exclusive-access NoC service (AXI exclusive /
        OCP lazy synchronization) — becomes the single user bit.
    priority:
        QoS class, 0 = lowest.  Purely a transport-layer hint.
    txn_id:
        Globally unique simulation identifier (tracing / latency).
    meta:
        Socket-specific scratch (e.g. AHB HPROT) that the NIU round-trips.
    """

    opcode: Opcode
    address: int
    beats: int = 1
    beat_bytes: int = 4
    burst: BurstType = BurstType.SINGLE
    data: Optional[List[int]] = None
    master: str = ""
    thread: int = 0
    txn_tag: int = 0
    excl: bool = False
    priority: int = 0
    issued_cycle: int = -1
    txn_id: int = field(default_factory=_next_txn_id)
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"negative address {self.address:#x}")
        if self.beats < 1:
            raise ValueError(f"beats must be >= 1, got {self.beats}")
        if self.beat_bytes not in (1, 2, 4, 8, 16):
            raise ValueError(f"unsupported beat width {self.beat_bytes}")
        if self.beats == 1 and self.burst in (BurstType.INCR, BurstType.WRAP):
            self.burst = BurstType.SINGLE
        if self.opcode.is_write:
            if self.data is None:
                raise ValueError(f"{self.opcode.value} requires data")
            if len(self.data) != self.beats:
                raise ValueError(
                    f"{self.opcode.value}: {len(self.data)} data beats "
                    f"for a {self.beats}-beat burst"
                )
        if self.excl and self.opcode.is_locking:
            raise ValueError("excl bit is exclusive with legacy locking opcodes")

    def beat_addresses(self) -> List[int]:
        return self.burst.addresses(self.address, self.beats, self.beat_bytes)

    @property
    def total_bytes(self) -> int:
        return self.beats * self.beat_bytes

    def describe(self) -> str:
        return (
            f"{self.opcode.value} @{self.address:#010x} x{self.beats}"
            f"({self.burst.value}) master={self.master} thread={self.thread}"
            f"{' EXCL' if self.excl else ''}"
        )


@dataclass
class Response:
    """Transaction-layer completion delivered back to the initiator NIU."""

    txn_id: int
    opcode: Opcode
    status: ResponseStatus = ResponseStatus.OKAY
    data: Optional[List[int]] = None
    master: str = ""
    thread: int = 0
    txn_tag: int = 0
    completed_cycle: int = -1
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.opcode.is_read and self.status is ResponseStatus.OKAY:
            if self.data is None:
                raise ValueError("read OKAY response requires data")

    @property
    def ok(self) -> bool:
        return not self.status.is_error

    def describe(self) -> str:
        return (
            f"RSP txn={self.txn_id} {self.opcode.value} {self.status.value} "
            f"master={self.master} thread={self.thread}"
        )


def make_read(
    address: int,
    beats: int = 1,
    beat_bytes: int = 4,
    burst: BurstType = BurstType.INCR,
    **kwargs,
) -> Transaction:
    """Convenience constructor used throughout tests and examples."""
    if beats == 1:
        burst = BurstType.SINGLE
    return Transaction(
        opcode=Opcode.LOAD,
        address=address,
        beats=beats,
        beat_bytes=beat_bytes,
        burst=burst,
        **kwargs,
    )


def make_write(
    address: int,
    data: List[int],
    beat_bytes: int = 4,
    burst: BurstType = BurstType.INCR,
    posted: bool = False,
    **kwargs,
) -> Transaction:
    """Convenience constructor for (posted) writes."""
    if len(data) == 1:
        burst = BurstType.SINGLE
    return Transaction(
        opcode=Opcode.STORE_POSTED if posted else Opcode.STORE,
        address=address,
        beats=len(data),
        beat_bytes=beat_bytes,
        burst=burst,
        data=list(data),
        **kwargs,
    )


def split_burst(txn: Transaction, max_beats: int) -> List[Tuple[int, List[int]]]:
    """Split a burst into (address, data-slice) chunks of ``max_beats``.

    Used by bridges and narrow NIUs that cannot carry the original burst —
    precisely the feature-loss the paper attributes to bridges.
    """
    if max_beats < 1:
        raise ValueError("max_beats must be >= 1")
    addresses = txn.beat_addresses()
    chunks: List[Tuple[int, List[int]]] = []
    for start in range(0, txn.beats, max_beats):
        end = min(start + max_beats, txn.beats)
        data = txn.data[start:end] if txn.data is not None else []
        chunks.append((addresses[start], data))
    return chunks
