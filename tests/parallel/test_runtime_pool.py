"""RuntimePool: keyed warm-runtime leasing for long-lived callers."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.parallel.runtime import RuntimePool, SweepRuntime


class TestLeaseRelease:
    def test_miss_then_hit(self):
        with RuntimePool() as pool:
            runtime = pool.lease("thread", 2)
            assert isinstance(runtime, SweepRuntime)
            pool.release("thread", 2, runtime)
            again = pool.lease("thread", 2)
            assert again is runtime
            pool.release("thread", 2, again)
            assert pool.stats() == {"hits": 1, "misses": 1, "discards": 0, "idle": 1}

    def test_keys_are_isolated(self):
        with RuntimePool() as pool:
            two = pool.lease("thread", 2)
            pool.release("thread", 2, two)
            three = pool.lease("thread", 3)
            assert three is not two
            pool.release("thread", 3, three)
            assert pool.idle_count() == 2

    def test_unhealthy_release_discards(self):
        with RuntimePool() as pool:
            runtime = pool.lease("thread", 2)
            pool.release("thread", 2, runtime, healthy=False)
            assert pool.idle_count() == 0
            assert pool.stats()["discards"] == 1
            # The next lease builds a fresh runtime, not the damaged one.
            fresh = pool.lease("thread", 2)
            assert fresh is not runtime
            pool.release("thread", 2, fresh)

    def test_idle_cap_discards_overflow(self):
        with RuntimePool(max_idle_per_key=1) as pool:
            a = pool.lease("thread", 2)
            b = pool.lease("thread", 2)
            pool.release("thread", 2, a)
            pool.release("thread", 2, b)  # over the cap -> shut down
            assert pool.idle_count() == 1
            assert pool.stats()["discards"] == 1

    def test_warm_prebuilds(self):
        with RuntimePool() as pool:
            pool.warm("thread", 2)
            assert pool.idle_count() == 1
            runtime = pool.lease("thread", 2)
            assert pool.stats()["hits"] == 1
            pool.release("thread", 2, runtime)

    def test_bad_cap_rejected(self):
        with pytest.raises(ParameterError, match="max_idle_per_key"):
            RuntimePool(max_idle_per_key=0)


class TestShutdown:
    def test_shutdown_closes_idle_and_future_releases_discard(self):
        pool = RuntimePool()
        parked = pool.lease("thread", 2)
        pool.release("thread", 2, parked)
        in_flight = pool.lease("thread", 3)
        pool.shutdown()
        assert pool.idle_count() == 0
        # An in-flight lease released after shutdown is discarded, not
        # parked on a closed pool.
        pool.release("thread", 3, in_flight)
        assert pool.idle_count() == 0
        assert pool.stats()["discards"] == 1

    def test_context_manager_shuts_down(self):
        with RuntimePool() as pool:
            pool.warm("thread", 2)
        assert pool.idle_count() == 0


class TestRuntimesWork:
    def test_leased_runtime_processes_chunks(self):
        # The pooled runtime is a real SweepRuntime: drive one chunk
        # through it and check it computes (smoke, not a sweep test).
        from repro.bench.parallel_runtime import make_chunk_workload
        from repro.cluster.unionfind import ChainArray

        n = 100
        chunks = make_chunk_workload(n=n, num_chunks=2, pairs_per_chunk=5, seed=7)
        flat = [p for pairs in chunks for p in pairs]
        with RuntimePool() as pool:
            runtime = pool.lease("thread", 2)
            try:
                runtime.load_pairs([a for a, _ in flat], [b for _, b in flat])
                chain = ChainArray(n)
                for start in range(0, len(flat), 5):
                    chain = runtime.chunk_merge_range(chain, start, start + 5)
                assert any(chain.find(i) != i for i in range(n))
            finally:
                pool.release("thread", 2, runtime)
