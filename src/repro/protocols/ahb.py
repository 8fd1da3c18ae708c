"""AMBA AHB 2.0 socket model.

AHB is the paper's example of a *fully ordered* protocol: one transfer
stream, responses strictly in request order, and blocking synchronization
via ``HMASTLOCK`` locked sequences.  The master model issues one
transaction at a time (address/data pipelining collapses to a single
outstanding transfer at the transaction level) and maps locked sequences
onto the transaction layer's READEX/LOCK family.

Native signal vocabulary is preserved in the request/response records so
the NIU genuinely converts *from* AHB fields, not from some pre-digested
form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.core.ordering import OrderingModel
from repro.core.transaction import BurstType, Opcode, ResponseStatus, Transaction
from repro.protocols.base import MasterSocket, ProtocolError, ProtocolMaster
from repro.sim.kernel import Simulator


class HBurst(enum.Enum):
    """AHB HBURST encodings."""

    SINGLE = "SINGLE"
    INCR = "INCR"
    INCR4 = "INCR4"
    INCR8 = "INCR8"
    INCR16 = "INCR16"
    WRAP4 = "WRAP4"
    WRAP8 = "WRAP8"
    WRAP16 = "WRAP16"

    @property
    def beats(self) -> Optional[int]:
        """Fixed beat count, or None for undefined-length INCR."""
        return {
            HBurst.SINGLE: 1,
            HBurst.INCR4: 4,
            HBurst.INCR8: 8,
            HBurst.INCR16: 16,
            HBurst.WRAP4: 4,
            HBurst.WRAP8: 8,
            HBurst.WRAP16: 16,
        }.get(self)

    @property
    def wrapping(self) -> bool:
        return self in (HBurst.WRAP4, HBurst.WRAP8, HBurst.WRAP16)


def hburst_for(burst: BurstType, beats: int) -> HBurst:
    """Encode a transaction burst as the nearest AHB HBURST."""
    if beats == 1:
        return HBurst.SINGLE
    if burst is BurstType.WRAP:
        try:
            return {4: HBurst.WRAP4, 8: HBurst.WRAP8, 16: HBurst.WRAP16}[beats]
        except KeyError:
            raise ProtocolError(
                f"AHB cannot express a {beats}-beat wrapping burst"
            ) from None
    if burst in (BurstType.INCR, BurstType.SINGLE):
        return {4: HBurst.INCR4, 8: HBurst.INCR8, 16: HBurst.INCR16}.get(
            beats, HBurst.INCR
        )
    raise ProtocolError(f"AHB cannot express burst type {burst.value}")


class HResp(enum.Enum):
    """AHB HRESP encodings (RETRY/SPLIT are used by the bus baseline)."""

    OKAY = "OKAY"
    ERROR = "ERROR"
    RETRY = "RETRY"
    SPLIT = "SPLIT"


@dataclass
class AhbRequest:
    """One AHB transfer as the slave/NIU side sees it."""

    haddr: int
    hwrite: bool
    hsize: int  # log2(bytes per beat)
    hburst: HBurst
    beats: int  # actual beat count (INCR carries it out of band)
    hmastlock: bool = False
    hprot: int = 0
    hwdata: Optional[List[int]] = None
    txn: Optional[Transaction] = None  # correlation sideband (not signals)

    def __post_init__(self) -> None:
        fixed = self.hburst.beats
        if fixed is not None and fixed != self.beats:
            raise ProtocolError(
                f"HBURST {self.hburst.value} implies {fixed} beats, got {self.beats}"
            )
        if self.hwrite and (
            self.hwdata is None or len(self.hwdata) != self.beats
        ):
            raise ProtocolError("AHB write needs HWDATA for every beat")


@dataclass
class AhbResponse:
    txn_id: int
    hresp: HResp = HResp.OKAY
    hrdata: Optional[List[int]] = None


def hresp_from_status(status: ResponseStatus) -> HResp:
    """AHB has one error code; DECERR/SLVERR both collapse to ERROR —
    an example of socket-level feature narrowing."""
    return HResp.OKAY if not status.is_error else HResp.ERROR


class AhbMaster(ProtocolMaster):
    """AHB 2.0 master IP model: single outstanding, fully ordered.

    Locked synchronization: intents carrying ``Opcode.READEX`` /
    ``Opcode.STORE_COND_LOCKED`` / ``LOCK`` / ``UNLOCK`` are issued with
    ``HMASTLOCK`` asserted, which the NIU (or the bus) must translate into
    its locking mechanism.
    """

    protocol_name = "AHB"
    ordering_model = OrderingModel.FULLY_ORDERED

    def __init__(self, name: str, sim: Simulator, traffic, depth: int = 2) -> None:
        super().__init__(name, traffic)
        self.socket = MasterSocket(
            sim, f"{name}.sock", request_channels=["req"], response_channels=["rsp"]
        )
        self._req = self.socket.req("req")
        self._rsp = self.socket.rsp("rsp")

    def budget_full(self, txn: Transaction) -> bool:
        return bool(self._inflight)  # AHB: one transfer stream

    def try_issue(self, txn: Transaction, cycle: int) -> bool:
        if self.budget_full(txn):
            return False
        if txn.excl:
            raise ProtocolError(
                f"{self.name}: AHB has no exclusive access; use locked "
                f"sequences (READEX/STORE_COND_LOCKED)"
            )
        if txn.opcode in (Opcode.LOCK, Opcode.UNLOCK):
            raise ProtocolError(
                f"{self.name}: AHB expresses locking through HMASTLOCK on "
                f"real transfers (READEX/STORE_COND_LOCKED), not bare "
                f"LOCK/UNLOCK"
            )
        channel = self._req
        if not channel.can_push():
            return False
        request = AhbRequest(
            haddr=txn.address,
            hwrite=txn.opcode.is_write,
            hsize=txn.beat_bytes.bit_length() - 1,
            hburst=hburst_for(txn.burst, txn.beats),
            beats=txn.beats,
            hmastlock=txn.opcode.is_locking,
            hwdata=list(txn.data) if txn.data is not None else None,
            txn=txn,
        )
        channel.push(request)
        return True

    def collect_responses(self, cycle: int) -> List[int]:
        completed: List[int] = []
        channel = self._rsp
        while channel._committed:
            response: AhbResponse = channel.pop()
            if response.hresp is HResp.ERROR:
                self.errors += 1
                self.completion_status[response.txn_id] = ResponseStatus.SLVERR
            else:
                self.completion_status[response.txn_id] = ResponseStatus.OKAY
            completed.append(response.txn_id)
        return completed
