"""The nine demo scripts run in-process, so an API change that breaks one
fails here.  Each runs from a copy in a temporary directory: demo 09 writes
its definition files next to its own file."""

import os
import pathlib
import runpy
import shutil

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SCRIPTS = sorted(p.name for p in DEMOS.glob("0*.py"))


def test_there_are_nine_demos():
    assert len(SCRIPTS) == 9


@pytest.mark.parametrize("name", SCRIPTS)
def test_demo_runs(name, tmp_path, capsys):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    assert "Traceback" not in out
    if name.startswith("09"):
        # the definition files it writes are the committed ones, byte for byte
        written = sorted(os.listdir(tmp_path / "demo_files"))
        assert written == sorted(os.listdir(DEMOS / "demo_files"))
        for f in written:
            assert (tmp_path / "demo_files" / f).read_bytes() == (
                DEMOS / "demo_files" / f).read_bytes(), f
