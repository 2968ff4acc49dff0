"""Pull-of-one is the only way the scheduler hands out cells.

Each worker ``request`` is answered with at most one ``task``, so there is
no lease to prefetch, nothing to steal and no duplicate attempt to race.
The retired scheduling options must fail loudly wherever they used to be
accepted, rather than be silently ignored.
"""

from __future__ import annotations

import pytest

from repro.distributed import (
    DistributedExecutor,
    Scheduler,
    inproc_fleet,
    local_mini_cluster,
)
from repro.distributed.cli import main

RETIRED_KWARGS = {
    "prefetch": 2,
    "steal": True,
    "speculate": True,
    "speculation_delay": 1.0,
    "max_speculative": 1,
}


@pytest.mark.parametrize(
    "flags",
    [["--prefetch", "2"], ["--no-steal"], ["--no-speculate"], ["--speculation-delay", "1"]],
    ids=["prefetch", "no-steal", "no-speculate", "speculation-delay"],
)
def test_run_rejects_retired_flags_as_usage_errors(flags, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "fig2.bicriteria", "--smoke", "--workers", "0", *flags])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(RETIRED_KWARGS))
def test_constructors_reject_retired_keywords(name):
    knob = {name: RETIRED_KWARGS[name]}
    with pytest.raises(TypeError):
        Scheduler("inproc://", **knob)
    with pytest.raises(TypeError):
        DistributedExecutor("inproc://", **knob)
    with pytest.raises(TypeError):
        inproc_fleet(1, **knob)
    with pytest.raises(TypeError):
        local_mini_cluster(1, **knob)
