"""The package builds from pyproject.toml alone and ships its run-time data."""

import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sdist_ships_prelude(tmp_path):
    # build in a copy, so nothing is written into the checkout
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    proc = subprocess.run(
        [sys.executable, "-c", "import setuptools.build_meta as b; print(b.build_sdist('dist'))"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    archive = tmp_path / "dist" / proc.stdout.strip().splitlines()[-1]
    with tarfile.open(archive) as tar:
        names = {n.split("/", 1)[1] for n in tar.getnames() if "/" in n}
    assert "src/ambreal/prelude.cfp" in names
    assert "src/ambreal/engine.py" in names
