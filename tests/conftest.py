import multiprocessing
import os
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from groupnb import lanes

# Property tests are part of tier-1, so they must be repeatable and leave
# nothing behind: examples come from a fixed seed, no example database is
# written, and a slow host does not turn an example into a failure. Each
# test keeps its own max_examples.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    """Keep hypothesis's other files (its constants and charmap caches) out of the checkout.

    database=None stops only the example database; the rest goes to a
    directory of this session's own, removed when the session ends.
    """
    home = tempfile.mkdtemp(prefix="hypothesis-home-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home))


_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def no_lane_left_running():
    """Fail any test that leaves a worker process alive, whatever path it took.

    The leftovers are killed first, so the next test starts clean.
    """
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert left == [], "a worker process outlived its test"


@pytest.fixture(autouse=True)
def no_host_cgroup_quota(monkeypatch):
    """Let a test's CPU count come from the affinity set it sets, not from the host's cgroup."""
    monkeypatch.setattr(lanes, "_PROC_CGROUP", os.devnull)


@pytest.fixture(scope="session")
def acceptance():
    """Recorder for the acceptance checklist printed after the run."""

    def _record(criterion: str, name: str, status: str, detail: str = "") -> None:
        line = f"[ACCEPTANCE] {criterion} {name}: {status}"
        if detail:
            line += f" ({detail})"
        _ACCEPTANCE_LINES.append(line)
        print(line)

    return _record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance checklist:")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line("  " + line)
