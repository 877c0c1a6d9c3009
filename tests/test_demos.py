"""The demo scripts and the README's library snippet stay runnable and
print their headline results."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

CASES = [
    ("concat_study_demo.py", ["--drops", "8"], "mean NN power"),
    ("detection_curves_demo.py", ["--snr-step", "10"], "SNR required for pd = 0.9"),
    ("rcs_fit_demo.py", ["--samples", "2000"], "fitted mean"),
    ("full_pipeline_demo.py", [], "two-hop sensing loss"),
]


@pytest.mark.parametrize("script,args,marker", CASES, ids=[c[0] for c in CASES])
def test_demo_runs(script, args, marker):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout


def test_readme_library_snippet_runs():
    """The snippet draws its one drop's channel at master seed 1: its path
    count and delay spread are pinned."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    n_paths, delay_spread = proc.stdout.split()
    assert int(n_paths) == 721
    assert float(delay_spread) == pytest.approx(1.2387079991332418e-07, rel=1e-12)
