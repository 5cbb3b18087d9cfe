"""The repository's tools, run as their users run them."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bit_identity.py"


def test_bit_identity_compare_needs_no_library(tmp_path):
    # two record files, one record moved and one group unchanged; orlimark
    # is made unimportable before the tool runs
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("knee | x | 1.0\nlp | y | 2.0\ncounts {}\n")
    b.write_text("knee | x | 1.5\nlp | y | 2.0\ncounts {}\n")
    code = (
        "import runpy, sys; sys.modules['orlimark'] = None; "
        f"sys.argv = [{str(TOOL)!r}, '--compare', {str(a)!r}, {str(b)!r}]; "
        f"runpy.run_path({str(TOOL)!r}, run_name='__main__')"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["knee: 1 of 1 records differ, max rel diff 0.333", "lp: 0 of 1 records differ"]
