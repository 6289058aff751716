"""The bundled tag lexicon is what scripts/make_tag_lexicon.py generates."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "make_tag_lexicon.py"
BUNDLED = REPO / "src" / "aspectminer" / "data" / "tag-lexicon.txt"


def test_script_regenerates_the_bundled_lexicon(tmp_path):
    out = tmp_path / "tag-lexicon.txt"
    subprocess.run([sys.executable, str(SCRIPT), str(out)], check=True, timeout=60)
    assert out.read_bytes() == BUNDLED.read_bytes()
