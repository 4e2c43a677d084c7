"""Tests for the micro-batching scheduler (pure, clock-free)."""

import pytest

from repro.serve.batcher import BatchPolicy, MicroBatcher, PendingRequest


def request(i, model="m", params_key="{}", enqueued=0.0, deadline=None):
    return PendingRequest(
        req_id=i,
        model_id=model,
        encoded=(i,),
        params_key=params_key,
        params={},
        enqueued=enqueued,
        deadline=deadline,
    )


class TestPolicy:
    def test_defaults(self):
        policy = BatchPolicy()
        assert policy.max_batch >= 1 and policy.max_wait_s >= 0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError, match="max_wait_s"):
            BatchPolicy(max_wait_s=-0.1)

    def test_per_request_policy_is_allowed(self):
        assert BatchPolicy(max_batch=1, max_wait_s=0).max_batch == 1


class TestSizeTrigger:
    def test_fills_at_max_batch(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=3, max_wait_s=1.0))
        assert batcher.add(request(1), now=0.0) == (None, True)
        assert batcher.add(request(2), now=0.0) == (None, False)
        batch, opened = batcher.add(request(3), now=0.0)
        assert batch is not None and batch.size == 3
        assert not opened
        assert batcher.pending() == 0

    def test_max_batch_one_dispatches_immediately(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=1, max_wait_s=1.0))
        batch, opened = batcher.add(request(1), now=0.0)
        assert batch is not None and batch.size == 1
        assert opened  # the request both opened and filled the batch

    def test_requests_preserve_order(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=4, max_wait_s=1.0))
        for i in range(1, 4):
            batcher.add(request(i), now=0.0)
        batch, _ = batcher.add(request(4), now=0.0)
        assert [r.req_id for r in batch.requests] == [1, 2, 3, 4]

    def test_opened_flag_resets_after_flush(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=100, max_wait_s=0.5))
        assert batcher.add(request(1), now=0.0)[1] is True
        assert batcher.add(request(2), now=0.1)[1] is False
        batcher.due(now=1.0)
        assert batcher.add(request(3), now=1.0)[1] is True


class TestLatencyTrigger:
    def test_due_after_max_wait(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=100, max_wait_s=0.5))
        batcher.add(request(1), now=10.0)
        assert batcher.due(now=10.4) == []
        [batch] = batcher.due(now=10.5)
        assert batch.size == 1
        assert batcher.pending() == 0

    def test_age_measured_from_batch_open(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=100, max_wait_s=0.5))
        batcher.add(request(1), now=10.0)
        batcher.add(request(2), now=10.4)  # late rider, same batch
        [batch] = batcher.due(now=10.5)
        assert batch.size == 2

    def test_next_due(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=100, max_wait_s=0.5))
        assert batcher.next_due(now=0.0) is None
        batcher.add(request(1), now=10.0)
        assert batcher.next_due(now=10.1) == pytest.approx(0.4)
        assert batcher.next_due(now=11.0) <= 0  # overdue: flush now


class TestKeying:
    def test_models_do_not_share_batches(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=2, max_wait_s=1.0))
        assert batcher.add(request(1, model="a"), now=0.0) == (None, True)
        assert batcher.add(request(2, model="b"), now=0.0) == (None, True)
        batch, opened = batcher.add(request(3, model="a"), now=0.0)
        assert batch.model_id == "a" and batch.size == 2
        assert not opened
        assert batcher.pending() == 1  # model b still open

    def test_params_do_not_share_batches(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=2, max_wait_s=1.0))
        assert batcher.add(request(1, params_key='{"mu":0}'), now=0.0)[0] is None
        assert batcher.add(request(2, params_key='{"mu":null}'), now=0.0)[0] is None
        assert batcher.pending() == 2


class TestDrain:
    def test_drain_closes_everything(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=10, max_wait_s=1.0))
        batcher.add(request(1, model="a"), now=0.0)
        batcher.add(request(2, model="b"), now=0.0)
        batches = batcher.drain()
        assert sorted(b.model_id for b in batches) == ["a", "b"]
        assert batcher.pending() == 0
        assert batcher.drain() == []


class TestExpiry:
    def test_expired_uses_absolute_deadline(self):
        late = request(1, deadline=5.0)
        assert not late.expired(now=5.0)
        assert late.expired(now=5.01)
        assert not request(2).expired(now=1e9)
