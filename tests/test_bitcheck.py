"""``tools/bitcheck.py``: how two runs are compared, and what ``--declare`` accepts."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bitcheck", Path(__file__).resolve().parents[1] / "tools" / "bitcheck.py")
bitcheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bitcheck)


def outcome(exit=0, stdout=b"", stderr=b"", files=None):
    return {"exit": exit, "stdout": stdout, "stderr": stderr, "files": files or {}}


def test_equal_runs_differ_in_nothing():
    run = outcome(stdout=b"t_s = none\n", files={"out/sweep.csv": b"b\n"})
    assert bitcheck.differences(run, outcome(**run)) == {}


def test_each_differing_aspect_is_named():
    # a changed file and a missing one both count
    old = outcome(files={"out/a.csv": b"1\n", "out/b.csv": b"2\n"})
    new = outcome(exit=3, stderr=b"note\n", files={"out/a.csv": b"9\n"})
    assert bitcheck.differences(old, new) == {
        "exit": "exit 0 -> 3", "stderr": "stderr", "files": "2 files (out/a.csv, out/b.csv)"}


def test_declarations_merge_per_command():
    declared = bitcheck.parse_declared(["overflow-sweep:exit", "overflow-sweep:stderr,files"])
    assert declared == {"overflow-sweep": {"exit", "stderr", "files"}}


@pytest.mark.parametrize("item", ["no-such-run:exit", "overflow-sweep:colour", "overflow-sweep"])
def test_unknown_declarations_are_refused(item):
    with pytest.raises(SystemExit):
        bitcheck.parse_declared([item])
