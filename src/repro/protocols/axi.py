"""AMBA AXI socket model.

AXI is the paper's example of an *ID-based* protocol: independent read
and write channels, transaction IDs (ARID/AWID) permitting out-of-order
responses across IDs (in-order within an ID), and non-blocking
synchronization via **exclusive accesses** (``AxLOCK = EXCL``) — the
feature §3 shows costs the NoC exactly one packet user bit plus NIU state.

Channel structure follows the standard five channels; the W channel is
folded into the AW record (write data always follows its address in this
model, which loses no transaction-level generality).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.core.ordering import OrderingModel
from repro.core.transaction import BurstType, Opcode, ResponseStatus, Transaction
from repro.protocols.base import MasterSocket, ProtocolError, ProtocolMaster
from repro.sim.kernel import Simulator


class AxBurst(enum.Enum):
    FIXED = "FIXED"
    INCR = "INCR"
    WRAP = "WRAP"


class AxLock(enum.Enum):
    NORMAL = "NORMAL"
    EXCLUSIVE = "EXCLUSIVE"


class XResp(enum.Enum):
    OKAY = "OKAY"
    EXOKAY = "EXOKAY"
    SLVERR = "SLVERR"
    DECERR = "DECERR"


def axburst_for(burst: BurstType) -> AxBurst:
    if burst in (BurstType.SINGLE, BurstType.INCR):
        return AxBurst.INCR
    if burst is BurstType.WRAP:
        return AxBurst.WRAP
    if burst in (BurstType.FIXED, BurstType.STREAM):
        return AxBurst.FIXED
    raise ProtocolError(f"AXI cannot express burst {burst.value}")


#: Status <-> XRESP by member, built once (a name lookup per response
#: would round-trip through the enum's value).
_XRESP_OF_STATUS = {status: XResp[status.value] for status in ResponseStatus}
_STATUS_OF_XRESP = {xresp: ResponseStatus[xresp.value] for xresp in XResp}


def xresp_from_status(status: ResponseStatus) -> XResp:
    return _XRESP_OF_STATUS[status]


@dataclass
class AxiAR:
    """Read address channel beat."""

    arid: int
    araddr: int
    arlen: int  # beats - 1, per the AXI encoding
    arsize: int  # log2(bytes)
    arburst: AxBurst
    arlock: AxLock = AxLock.NORMAL
    arqos: int = 0
    txn: Optional[Transaction] = None


@dataclass
class AxiAW:
    """Write address channel beat, with the W burst folded in."""

    awid: int
    awaddr: int
    awlen: int
    awsize: int
    awburst: AxBurst
    awlock: AxLock = AxLock.NORMAL
    awqos: int = 0
    wdata: Optional[List[int]] = None
    txn: Optional[Transaction] = None


@dataclass
class AxiR:
    """Read data channel (whole burst, RLAST implied)."""

    rid: int
    rdata: List[int]
    rresp: XResp
    txn_id: int = -1


@dataclass
class AxiB:
    """Write response channel."""

    bid: int
    bresp: XResp
    txn_id: int = -1


class AxiMaster(ProtocolMaster):
    """AXI master IP model with per-direction outstanding budgets.

    IDs come from the intent's ``txn_tag`` (traffic generators spread
    tags over ``id_count`` IDs); the base ordering checker then verifies
    the ID-based model: responses in order *within* an ID, free across.
    """

    protocol_name = "AXI"
    ordering_model = OrderingModel.ID_BASED

    _snapshot_fields = ProtocolMaster._snapshot_fields + (
        "_reads_inflight",
        "_writes_inflight",
    )

    def __init__(
        self,
        name: str,
        sim: Simulator,
        traffic,
        max_outstanding_reads: int = 4,
        max_outstanding_writes: int = 4,
        id_count: int = 4,
        depth: int = 2,
    ) -> None:
        super().__init__(name, traffic)
        self.max_outstanding_reads = max_outstanding_reads
        self.max_outstanding_writes = max_outstanding_writes
        self.id_count = id_count
        self.socket = MasterSocket(
            sim,
            f"{name}.sock",
            request_channels=["ar", "aw"],
            response_channels=["r", "b"],
            depth=depth,
        )
        self._ar = self.socket.req("ar")
        self._aw = self.socket.req("aw")
        self._r = self.socket.rsp("r")
        self._b = self.socket.rsp("b")
        self._reads_inflight = 0
        self._writes_inflight = 0

    def budget_full(self, txn: Transaction) -> bool:
        if txn.opcode.is_read:
            return self._reads_inflight >= self.max_outstanding_reads
        return self._writes_inflight >= self.max_outstanding_writes

    def try_issue(self, txn: Transaction, cycle: int) -> bool:
        if txn.opcode.is_locking:
            raise ProtocolError(
                f"{self.name}: AXI has no LOCK/READEX; use exclusive "
                f"accesses (txn.excl)"
            )
        axid = txn.txn_tag % self.id_count
        txn.txn_tag = axid
        # Encode the channel in `thread` for the (channel, ID) ordering
        # stream — see OrderingModel.stream_key.
        txn.thread = 0 if txn.opcode.is_read else 1
        lock = AxLock.EXCLUSIVE if txn.excl else AxLock.NORMAL
        if txn.opcode.is_read:
            if self.budget_full(txn):
                return False
            channel = self._ar
            if not channel.can_push():
                return False
            channel.push(
                AxiAR(
                    arid=axid,
                    araddr=txn.address,
                    arlen=txn.beats - 1,
                    arsize=txn.beat_bytes.bit_length() - 1,
                    arburst=axburst_for(txn.burst),
                    arlock=lock,
                    arqos=txn.priority,
                    txn=txn,
                )
            )
            self._reads_inflight += 1
            return True
        if txn.opcode is Opcode.STORE_POSTED:
            raise ProtocolError(
                f"{self.name}: AXI writes always get a B response; "
                f"posted stores are an OCP/proprietary feature"
            )
        if self.budget_full(txn):
            return False
        channel = self._aw
        if not channel.can_push():
            return False
        channel.push(
            AxiAW(
                awid=axid,
                awaddr=txn.address,
                awlen=txn.beats - 1,
                awsize=txn.beat_bytes.bit_length() - 1,
                awburst=axburst_for(txn.burst),
                awlock=lock,
                awqos=txn.priority,
                wdata=list(txn.data) if txn.data is not None else None,
                txn=txn,
            )
        )
        self._writes_inflight += 1
        return True

    def collect_responses(self, cycle: int) -> List[int]:
        completed: List[int] = []
        r_channel = self._r
        while r_channel._committed:
            r: AxiR = r_channel.pop()
            self._reads_inflight -= 1
            txn = self.inflight_txn(r.txn_id)
            status = _STATUS_OF_XRESP[r.rresp]
            self.note_status(r.txn_id, status, excl=txn.excl)
            self.completion_status[r.txn_id] = status
            completed.append(r.txn_id)
        b_channel = self._b
        while b_channel._committed:
            b: AxiB = b_channel.pop()
            self._writes_inflight -= 1
            txn = self.inflight_txn(b.txn_id)
            status = _STATUS_OF_XRESP[b.bresp]
            self.note_status(b.txn_id, status, excl=txn.excl)
            self.completion_status[b.txn_id] = status
            completed.append(b.txn_id)
        return completed
