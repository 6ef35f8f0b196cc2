"""Each script under demos/ prints exactly its pinned output.

The scripts run in a fresh interpreter with the package on the path and
TMPDIR pointing at the test's temporary directory; the directory a demo
creates there (``lie2alg-demo-*``) is masked before comparing."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).with_name("golden") / "demos"
DEMO_TMPDIR = re.compile(r"\S*lie2alg-demo-[^/\s]+")


def test_every_demo_has_a_golden():
    assert [p.stem for p in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_golden(tmp_path, demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = DEMO_TMPDIR.sub("<demo tmpdir>", run.stdout)
    assert out == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
