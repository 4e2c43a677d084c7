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
        assert batcher.add(request(1)) == (None, True)
        assert batcher.add(request(2)) == (None, False)
        batch, opened = batcher.add(request(3))
        assert batch is not None and batch.size == 3
        assert not opened
        assert batcher.drain() == []

    def test_max_batch_one_dispatches_immediately(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=1, max_wait_s=1.0))
        batch, opened = batcher.add(request(1))
        assert batch is not None and batch.size == 1
        assert opened  # the request both opened and filled the batch

    def test_requests_preserve_order(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=4, max_wait_s=1.0))
        for i in range(1, 4):
            batcher.add(request(i))
        batch, _ = batcher.add(request(4))
        assert [r.req_id for r in batch.requests] == [1, 2, 3, 4]

    def test_opened_flag_resets_after_flush(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=100, max_wait_s=0.5))
        assert batcher.add(request(1))[1] is True
        assert batcher.add(request(2))[1] is False
        batch = batcher.close(("m", "{}"))
        assert batch.size == 2 and batcher.drain() == []
        assert batcher.add(request(3))[1] is True


class TestKeying:
    def test_models_do_not_share_batches(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=2, max_wait_s=1.0))
        assert batcher.add(request(1, model="a")) == (None, True)
        assert batcher.add(request(2, model="b")) == (None, True)
        batch, opened = batcher.add(request(3, model="a"))
        assert batch.model_id == "a" and batch.size == 2
        assert not opened
        assert [b.model_id for b in batcher.drain()] == ["b"]  # b still open

    def test_params_do_not_share_batches(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=2, max_wait_s=1.0))
        assert batcher.add(request(1, params_key='{"mu":0}'))[0] is None
        assert batcher.add(request(2, params_key='{"mu":null}'))[0] is None
        assert len(batcher.drain()) == 2


class TestDrain:
    def test_drain_closes_everything(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=10, max_wait_s=1.0))
        batcher.add(request(1, model="a"))
        batcher.add(request(2, model="b"))
        batches = batcher.drain()
        assert sorted(b.model_id for b in batches) == ["a", "b"]
        assert batcher.drain() == []


class TestExpiry:
    def test_expired_uses_absolute_deadline(self):
        late = request(1, deadline=5.0)
        assert not late.expired(now=5.0)
        assert late.expired(now=5.01)
        assert not request(2).expired(now=1e9)
