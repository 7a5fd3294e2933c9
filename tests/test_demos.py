"""Each demo script runs to completion as a program."""

import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)   # a demo may import the test oracles by path
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
