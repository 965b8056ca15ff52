"""Checks every test shares: no exit path leaves a thread running, or a
temporary ``.part`` file in the test's directory.  And the fixture that
makes runs take the reference loop."""

import threading

import pytest

from slewguard import _kernel


@pytest.fixture
def reference_path(monkeypatch):
    """Runs take ``_LoopContext.rhs`` and ``step``, the reference loop, as
    where no kernel library can be built: for tests that patch or count
    what the loop calls.  A ``--compare`` run's baseline thread takes it
    too."""
    monkeypatch.setattr(_kernel, "load", lambda: None)


@pytest.fixture(autouse=True)
def leaves_no_thread_or_part_file(request):
    tmp_path = (request.getfixturevalue("tmp_path")
                if "tmp_path" in request.fixturenames else None)
    yield
    assert threading.enumerate() == [threading.main_thread()]
    if tmp_path is not None:
        assert sorted(tmp_path.rglob("*.part")) == []
