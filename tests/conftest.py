"""Checks every test shares: no exit path leaves a child process behind, or
a temporary ``.part`` file in the test's directory."""

import sys

import pytest


@pytest.fixture(autouse=True)
def leaves_no_child_or_part_file(request):
    tmp_path = (request.getfixturevalue("tmp_path")
                if "tmp_path" in request.fixturenames else None)
    yield
    if "multiprocessing" in sys.modules:  # else no test started a process
        assert sys.modules["multiprocessing"].active_children() == []
    if tmp_path is not None:
        assert sorted(tmp_path.rglob("*.part")) == []
