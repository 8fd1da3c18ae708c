"""Unit + property tests for the three ordering models and the checker."""

import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ordering import (
    OrderingChecker,
    OrderingModel,
    OrderingViolation,
    interleaving_allowed,
    ordering_for_protocol,
)


class TestStreamKeys:
    def test_fully_ordered_single_stream(self):
        m = OrderingModel.FULLY_ORDERED
        assert m.stream_key(0, 0) == m.stream_key(3, 7) == ()

    def test_threaded_streams_by_thread(self):
        m = OrderingModel.THREADED
        assert m.stream_key(1, 5) == m.stream_key(1, 9)
        assert m.stream_key(1, 5) != m.stream_key(2, 5)

    def test_id_based_streams_by_channel_and_id(self):
        m = OrderingModel.ID_BASED
        assert m.stream_key(0, 5) == m.stream_key(0, 5)
        assert m.stream_key(0, 5) != m.stream_key(1, 5)  # read vs write
        assert m.stream_key(0, 5) != m.stream_key(0, 6)

    def test_must_order_matches_stream_equality(self):
        m = OrderingModel.THREADED
        assert m.must_order((1, 0), (1, 9))
        assert not m.must_order((1, 0), (2, 0))
        assert interleaving_allowed(m, (1, 0), (2, 0))


class TestProtocolMap:
    def test_known_protocols(self):
        assert ordering_for_protocol("AHB") is OrderingModel.FULLY_ORDERED
        assert ordering_for_protocol("ocp") is OrderingModel.THREADED
        assert ordering_for_protocol("AXI") is OrderingModel.ID_BASED
        assert ordering_for_protocol("AVCI") is OrderingModel.ID_BASED

    def test_unknown_protocol(self):
        with pytest.raises(KeyError):
            ordering_for_protocol("PCIe")


class TestChecker:
    def test_in_order_completion_passes(self):
        checker = OrderingChecker(model=OrderingModel.FULLY_ORDERED)
        for i in range(5):
            checker.issue(i)
        for i in range(5):
            checker.complete(i)
        assert checker.all_complete()

    def test_out_of_order_same_stream_violates(self):
        checker = OrderingChecker(model=OrderingModel.FULLY_ORDERED)
        checker.issue(1)
        checker.issue(2)
        with pytest.raises(OrderingViolation):
            checker.complete(2)

    def test_out_of_order_across_threads_allowed(self):
        checker = OrderingChecker(model=OrderingModel.THREADED)
        checker.issue(1, thread=0)
        checker.issue(2, thread=1)
        checker.complete(2)
        checker.complete(1)
        assert checker.all_complete()

    def test_out_of_order_across_ids_allowed(self):
        checker = OrderingChecker(model=OrderingModel.ID_BASED)
        checker.issue(1, txn_tag=0)
        checker.issue(2, txn_tag=1)
        checker.complete(2)
        checker.complete(1)

    def test_non_strict_collects(self):
        checker = OrderingChecker(
            model=OrderingModel.FULLY_ORDERED, strict=False
        )
        checker.issue(1)
        checker.issue(2)
        checker.complete(2)
        assert len(checker.violations) == 1

    def test_double_issue_rejected(self):
        checker = OrderingChecker(model=OrderingModel.FULLY_ORDERED)
        checker.issue(1)
        with pytest.raises(KeyError, match="already issued"):
            checker.issue(1)

    def test_unknown_completion_rejected(self):
        checker = OrderingChecker(model=OrderingModel.FULLY_ORDERED)
        with pytest.raises(KeyError, match="never issued"):
            checker.complete(9)

    def test_double_completion_rejected(self):
        checker = OrderingChecker(model=OrderingModel.FULLY_ORDERED)
        checker.issue(1)
        checker.complete(1)
        with pytest.raises(KeyError, match="completed twice"):
            checker.complete(1)

    def test_reissue_after_completion_rejected(self):
        checker = OrderingChecker(model=OrderingModel.FULLY_ORDERED)
        checker.issue(1)
        checker.complete(1)
        with pytest.raises(KeyError, match="already issued"):
            checker.issue(1)
        assert checker.issued == 1

    def test_snapshot_restore_with_open_and_completed(self):
        checker = OrderingChecker(model=OrderingModel.THREADED, strict=False)
        checker.issue(1, thread=0)
        checker.issue(2, thread=1)
        checker.issue(3, thread=0)
        checker.complete(2)
        # One deepcopy of the whole tree, as Checkpoint takes it.
        envelope = copy.deepcopy(checker.snapshot())
        restored = OrderingChecker(model=OrderingModel.THREADED, strict=False)
        restored.restore(envelope)
        assert (restored.issued, restored.completed_count) == (3, 1)
        assert restored.outstanding == 2
        # The stream buckets still alias the open records.
        for bucket in restored._open_by_stream.values():
            for txn_id, record in bucket.items():
                assert restored._open[txn_id] is record
        with pytest.raises(KeyError, match="completed twice"):
            restored.complete(2)
        with pytest.raises(KeyError, match="already issued"):
            restored.issue(2)
        # Txn 3 overtakes open txn 1 in thread 0: still a violation.
        restored.complete(3)
        assert len(restored.violations) == 1
        restored.complete(1)
        assert restored.all_complete()
        # The original is untouched by the restored copy's progress.
        assert (checker.outstanding, checker.violations) == (2, [])

    def test_counters(self):
        checker = OrderingChecker(model=OrderingModel.THREADED)
        checker.issue(1, thread=0)
        checker.issue(2, thread=1)
        checker.complete(1)
        assert checker.issued == 2
        assert checker.completed_count == 1
        assert checker.outstanding == 1

    def test_reset(self):
        checker = OrderingChecker(model=OrderingModel.THREADED)
        checker.issue(1)
        checker.reset()
        assert checker.issued == 0


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),  # thread
            st.integers(min_value=0, max_value=3),  # tag
        ),
        min_size=1,
        max_size=30,
    ),
    st.randoms(use_true_random=False),
)
def test_property_per_stream_order_never_violates(txns, rng):
    """Completing in any order that preserves per-stream issue order is
    accepted by every model."""
    for model in OrderingModel:
        checker = OrderingChecker(model=model)
        for i, (thread, tag) in enumerate(txns):
            checker.issue(i, thread=thread, txn_tag=tag)
        # Build a completion order: shuffle streams against each other but
        # keep each stream internally ordered.
        streams = {}
        for i, (thread, tag) in enumerate(txns):
            streams.setdefault(model.stream_key(thread, tag), []).append(i)
        pending = {k: list(v) for k, v in streams.items()}
        while pending:
            key = rng.choice(sorted(pending))
            checker.complete(pending[key].pop(0))
            if not pending[key]:
                del pending[key]
        assert checker.all_complete()


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=2,
        max_size=20,
    )
)
def test_property_reversed_completion_flags_every_stream_inversion(txns):
    """Completing in exact reverse order must violate once per stream
    that holds more than one transaction."""
    model = OrderingModel.THREADED
    checker = OrderingChecker(model=model, strict=False)
    for i, (thread, tag) in enumerate(txns):
        checker.issue(i, thread=thread, txn_tag=tag)
    for i in reversed(range(len(txns))):
        checker.complete(i)
    streams = {}
    for thread, tag in txns:
        key = model.stream_key(thread, tag)
        streams[key] = streams.get(key, 0) + 1
    expected_bad_streams = sum(1 for n in streams.values() if n > 1)
    if expected_bad_streams:
        assert checker.violations
    else:
        assert not checker.violations
