"""The timing guard the benchmark runs before every timed pass."""

import pytest

from repro.bench.runner import PerturbedTimingError, assert_unperturbed_timing, git_revision


class TestTimingGuard:
    """Timing must refuse to run with observation overhead switched on."""

    def test_spans_env_flag_aborts_timing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "1")
        with pytest.raises(PerturbedTimingError, match="REPRO_SPANS"):
            assert_unperturbed_timing()

    def test_live_bus_subscriber_aborts_timing(self):
        from repro.telemetry.bus import get_bus

        subscription = get_bus().subscribe()
        try:
            with pytest.raises(PerturbedTimingError, match="subscribers"):
                assert_unperturbed_timing()
        finally:
            subscription.close()
        # With the subscriber gone timing proceeds normally again.
        assert_unperturbed_timing()


def test_git_revision_is_a_nonempty_string():
    assert isinstance(git_revision(), str) and git_revision()
