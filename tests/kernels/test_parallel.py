"""Unit tests for the affinity-aware CPU count."""

import os

from repro.kernels.parallel import available_cpus


class TestAvailableCpus:
    def test_respects_affinity(self):
        """The count tracks the scheduler mask (cgroup/affinity aware),
        not the raw machine CPU count."""
        if hasattr(os, "sched_getaffinity"):
            assert available_cpus() == len(os.sched_getaffinity(0))
        else:  # pragma: no cover - non-Linux fallback
            assert available_cpus() == max(1, os.cpu_count() or 1)

    def test_available_cpus_bounded_by_machine(self):
        assert 1 <= available_cpus() <= max(1, os.cpu_count() or 1)

    def test_available_cpus_memoized(self, monkeypatch):
        """The count is sampled once per process, so the syscall is not
        repeated.  refresh=True re-samples after an affinity change."""
        import repro.kernels.parallel as parallel

        truth = available_cpus(refresh=True)

        def boom(pid):  # pragma: no cover - must never be called
            raise AssertionError("affinity re-sampled despite memoization")

        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", boom)
        monkeypatch.setattr(os, "cpu_count", boom)
        assert available_cpus() == truth  # served from the cache

        monkeypatch.setattr(parallel, "_CPU_CACHE", None)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: {0, 1, 2}
            )
        assert available_cpus() == 3
        assert parallel._CPU_CACHE == 3
        monkeypatch.undo()
        assert available_cpus(refresh=True) == truth
