"""Smoke test for the walkthrough scripts in demos/.

Each script runs in a fresh interpreter with the package on its path; it
must exit 0 and print something.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("block_decomposition_walkthrough.py", "exact_kernel_walkthrough.py",
         "quantum_center_walkthrough.py", "s3_family_walkthrough.py",
         "search_walkthrough.py")


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
