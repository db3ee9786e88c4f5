"""The demo scripts run to completion.

demo_oracle.py is left out: it enumerates whole oracle cells and takes
about 20 s, where the others take well under a second each."""
import os
import subprocess
import sys

import pytest

from conftest import p1h_env

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("script", ["demo_certificates.py", "demo_classify.py", "demo_forms.py"])
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, script)],
        capture_output=True, text=True, env=p1h_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
