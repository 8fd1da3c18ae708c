"""VSIA VCI socket models — the PVCI, BVCI and AVCI flavors.

The paper groups the VCI flavors with the ordering models they follow:
PVCI and BVCI are *fully ordered* (responses in request order), AVCI adds
packet/thread identifiers and allows out-of-order responses, like AXI.

- **PVCI** (Peripheral VCI): the minimal handshake — one outstanding
  request, single-word or short bursts via repeated cells.
- **BVCI** (Basic VCI): pipelined packets of cells with ``PLEN``/``EOP``;
  multiple outstanding requests, strictly ordered responses.
- **AVCI** (Advanced VCI): BVCI plus ``TRDID``/``PKTID`` tags; responses
  may interleave across tags.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.core.ordering import OrderingModel
from repro.core.transaction import Opcode, ResponseStatus, Transaction
from repro.protocols.base import MasterSocket, ProtocolError, ProtocolMaster
from repro.sim.kernel import Simulator


class VciCmd(enum.Enum):
    NOP = "NOP"
    READ = "READ"
    WRITE = "WRITE"
    LOCKED_READ = "LOCKED_READ"  # BVCI/AVCI locked read (READEX-style)
    STORE_COND = "STORE_COND"  # paired conditional/unlocking write


class VciRerror(enum.Enum):
    NORMAL = "NORMAL"
    GENERAL_ERROR = "GENERAL_ERROR"


@dataclass
class VciRequest:
    """One VCI command packet (cells folded into a beat list)."""

    cmd: VciCmd
    address: int
    plen: int  # bytes in the packet
    be: int  # byte enables of the first/last cell (simplified: all-ones)
    cells: int  # number of cells (beats)
    wdata: Optional[List[int]] = None
    trdid: int = 0  # AVCI only; 0 otherwise
    pktid: int = 0
    eop: bool = True
    txn: Optional[Transaction] = None


@dataclass
class VciResponse:
    rerror: VciRerror
    rdata: Optional[List[int]] = None
    rtrdid: int = 0
    rpktid: int = 0
    reop: bool = True
    txn_id: int = -1


def rerror_from_status(status: ResponseStatus) -> VciRerror:
    return VciRerror.NORMAL if not status.is_error else VciRerror.GENERAL_ERROR


class _VciMasterBase(ProtocolMaster):
    """Shared issue/collect logic for the three flavors."""

    flavor = "VCI"
    max_outstanding = 1
    supports_locked = False
    tagged = False

    def __init__(self, name: str, sim: Simulator, traffic, depth: int = 2) -> None:
        super().__init__(name, traffic)
        self.socket = MasterSocket(
            sim,
            f"{name}.sock",
            request_channels=["cmd"],
            response_channels=["rsp"],
            depth=depth,
        )
        self._cmd = self.socket.req("cmd")
        self._rsp = self.socket.rsp("rsp")

    def _cmd_for(self, txn: Transaction) -> VciCmd:
        if txn.excl:
            raise ProtocolError(
                f"{self.name}: VCI has no exclusive access; "
                f"{self.flavor} locked reads are the blocking alternative"
            )
        if txn.opcode is Opcode.LOAD:
            return VciCmd.READ
        if txn.opcode in (Opcode.STORE, Opcode.STORE_POSTED):
            return VciCmd.WRITE
        if txn.opcode is Opcode.READEX:
            if not self.supports_locked:
                raise ProtocolError(f"{self.name}: PVCI has no locked read")
            return VciCmd.LOCKED_READ
        if txn.opcode is Opcode.STORE_COND_LOCKED:
            if not self.supports_locked:
                raise ProtocolError(f"{self.name}: PVCI has no locked write")
            return VciCmd.STORE_COND
        raise ProtocolError(
            f"{self.name}: cannot map {txn.opcode.value} to {self.flavor}"
        )

    def budget_full(self, txn: Transaction) -> bool:
        return len(self._inflight) >= self.max_outstanding

    def try_issue(self, txn: Transaction, cycle: int) -> bool:
        if self.budget_full(txn):
            return False
        channel = self._cmd
        if not channel.can_push():
            return False
        if txn.opcode is Opcode.STORE_POSTED:
            # VCI writes always complete with a response cell.
            txn.opcode = Opcode.STORE
        channel.push(
            VciRequest(
                cmd=self._cmd_for(txn),
                address=txn.address,
                plen=txn.total_bytes,
                be=(1 << txn.beat_bytes) - 1,
                cells=txn.beats,
                wdata=list(txn.data) if txn.data is not None else None,
                trdid=txn.txn_tag if self.tagged else 0,
                pktid=txn.txn_id & 0xFF,
                txn=txn,
            )
        )
        return True

    def collect_responses(self, cycle: int) -> List[int]:
        completed: List[int] = []
        channel = self._rsp
        while channel._committed:
            response: VciResponse = channel.pop()
            if response.rerror is VciRerror.GENERAL_ERROR:
                self.errors += 1
                self.completion_status[response.txn_id] = ResponseStatus.SLVERR
            else:
                self.completion_status[response.txn_id] = ResponseStatus.OKAY
            completed.append(response.txn_id)
        return completed


class PvciMaster(_VciMasterBase):
    """Peripheral VCI: one outstanding, no locking, fully ordered."""

    protocol_name = "PVCI"
    ordering_model = OrderingModel.FULLY_ORDERED
    flavor = "PVCI"
    max_outstanding = 1
    supports_locked = False
    tagged = False


class BvciMaster(_VciMasterBase):
    """Basic VCI: pipelined, fully ordered, locked reads supported."""

    protocol_name = "BVCI"
    ordering_model = OrderingModel.FULLY_ORDERED
    flavor = "BVCI"
    supports_locked = True
    tagged = False

    def __init__(
        self,
        name: str,
        sim: Simulator,
        traffic,
        max_outstanding: int = 4,
        depth: int = 2,
    ) -> None:
        super().__init__(name, sim, traffic, depth=depth)
        self.max_outstanding = max_outstanding


class AvciMaster(_VciMasterBase):
    """Advanced VCI: TRDID-tagged, out-of-order across tags."""

    protocol_name = "AVCI"
    ordering_model = OrderingModel.ID_BASED
    flavor = "AVCI"
    supports_locked = True
    tagged = True

    def __init__(
        self,
        name: str,
        sim: Simulator,
        traffic,
        max_outstanding: int = 8,
        tag_count: int = 4,
        depth: int = 2,
    ) -> None:
        super().__init__(name, sim, traffic, depth=depth)
        self.max_outstanding = max_outstanding
        self.tag_count = tag_count

    def try_issue(self, txn: Transaction, cycle: int) -> bool:
        txn.txn_tag = txn.txn_tag % self.tag_count
        return super().try_issue(txn, cycle)
