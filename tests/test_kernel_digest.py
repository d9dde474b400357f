"""The generated kernel text is pinned to ``CODEGEN_VERSION``.

``tools/kernel_digest.py`` hashes the ``kernel_source`` of a fixed corpus
(the test views, the 4- to 6-wide chains, the macrobench ``catalog_wide``
catalog and the chunked 8-chain shape) and compares the digest with the
one recorded for the current version under ``tests/data/``.  A change to
the text fails here until the version is bumped and the digest recorded
with ``--update``.  The tool runs in a process of its own: it puts the
macrobench directory on its import path to read the catalog.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_generated_text_changes_only_with_the_codegen_version():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kernel_digest.py"), "--check"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "matches the recorded digest" in result.stdout
