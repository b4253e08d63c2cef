"""Every script the README documents runs to completion."""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = re.findall(r"^python3 (scripts/\S+\.py)", (ROOT / "README.md").read_text(), re.M)


def test_readme_lists_every_script():
    assert sorted(SCRIPTS) == sorted(p.relative_to(ROOT).as_posix()
                                     for p in (ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs(script, capsys):
    runpy.run_path(str(ROOT / script))["main"]()
    assert len(capsys.readouterr().out.splitlines()) >= 3
