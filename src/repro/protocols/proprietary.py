"""An example proprietary socket ("various other proprietary protocols").

The paper's Fig 1/2 include a "VC Proprietary" block: real SoCs always
contain at least one home-grown interface.  ``MsgPort`` is a plausible
one — a strictly-ordered message mover with GET/PUT semantics, posted
PUTs, and a ``FENCE`` primitive (complete when everything before it has
completed).

FENCE is deliberately *not* expressible in any standard socket: it is the
running example for benchmark E6 (feature locality) — supporting it on
the NoC requires only NIU behaviour (drain the state table), no packet
change at all, since it never crosses the fabric.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.core.ordering import OrderingModel
from repro.core.transaction import Opcode, ResponseStatus, Transaction
from repro.protocols.base import MasterSocket, ProtocolError, ProtocolMaster
from repro.sim.kernel import Simulator


class MsgKind(enum.Enum):
    GET = "GET"  # read
    PUT = "PUT"  # posted write
    PUT_ACK = "PUT_ACK"  # acknowledged write
    FENCE = "FENCE"  # local ordering barrier (never leaves the NIU)


@dataclass
class MsgRequest:
    kind: MsgKind
    addr: int
    length_words: int
    data: Optional[List[int]] = None
    txn: Optional[Transaction] = None


@dataclass
class MsgResponse:
    ok: bool
    data: Optional[List[int]] = None
    txn_id: int = -1


def make_fence(master: str = "") -> Transaction:
    """Build a FENCE intent (address 0, zero data movement)."""
    txn = Transaction(opcode=Opcode.LOAD, address=0, beats=1, master=master)
    txn.meta["fence"] = True
    return txn


def is_fence(txn: Transaction) -> bool:
    return bool(txn.meta.get("fence"))


class MsgMaster(ProtocolMaster):
    """Proprietary message-port master: strictly ordered, posted PUTs."""

    protocol_name = "PROPRIETARY"
    ordering_model = OrderingModel.FULLY_ORDERED

    _snapshot_fields = ProtocolMaster._snapshot_fields + (
        "_posted_complete",
        "fences_issued",
    )

    def __init__(
        self,
        name: str,
        sim: Simulator,
        traffic,
        max_outstanding: int = 2,
        depth: int = 2,
    ) -> None:
        super().__init__(name, traffic)
        self.max_outstanding = max_outstanding
        self.socket = MasterSocket(
            sim,
            f"{name}.sock",
            request_channels=["msg"],
            response_channels=["ack"],
            depth=depth,
        )
        self._msg = self.socket.req("msg")
        self._ack = self.socket.rsp("ack")
        self._posted_complete: List[int] = []
        self.fences_issued = 0

    def _kind_for(self, txn: Transaction) -> MsgKind:
        if is_fence(txn):
            return MsgKind.FENCE
        if txn.excl or txn.opcode.is_locking:
            raise ProtocolError(
                f"{self.name}: MsgPort has no synchronization primitives "
                f"beyond FENCE"
            )
        if txn.opcode.is_read:
            return MsgKind.GET
        if txn.opcode is Opcode.STORE_POSTED:
            return MsgKind.PUT
        return MsgKind.PUT_ACK

    def budget_full(self, txn: Transaction) -> bool:
        return len(self._inflight) >= self.max_outstanding

    def try_issue(self, txn: Transaction, cycle: int) -> bool:
        if self.budget_full(txn):
            return False
        channel = self._msg
        if not channel.can_push():
            return False
        kind = self._kind_for(txn)
        channel.push(
            MsgRequest(
                kind=kind,
                addr=txn.address,
                length_words=txn.beats,
                data=list(txn.data) if txn.data is not None else None,
                txn=txn,
            )
        )
        if kind is MsgKind.FENCE:
            self.fences_issued += 1
        if kind is MsgKind.PUT:
            txn.opcode = Opcode.STORE_POSTED
            self._posted_complete.append(txn.txn_id)
        return True

    def _has_local_completions(self) -> bool:
        return bool(self._posted_complete)

    def collect_responses(self, cycle: int) -> List[int]:
        completed: List[int] = list(self._posted_complete)
        self._posted_complete.clear()
        channel = self._ack
        while channel._committed:
            response: MsgResponse = channel.pop()
            if not response.ok:
                self.errors += 1
                self.completion_status[response.txn_id] = ResponseStatus.SLVERR
            else:
                self.completion_status[response.txn_id] = ResponseStatus.OKAY
            completed.append(response.txn_id)
        return completed
