"""The CLI's outputs on the tiny configs of tests/golden/ match their committed digests."""

import importlib.util
import json
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_outputs_match_the_committed_digests(tmp_path):
    pinned = json.loads(regen.DIGESTS.read_text())
    assert pinned["numpy"] == np.__version__, (
        f"digests were made with numpy {pinned['numpy']}, this is numpy {np.__version__}, "
        "whose random streams may differ; regenerate them with python tests/golden/regen.py"
    )
    got = regen.digests(tmp_path)
    moved = regen.moved(pinned["files"], got)
    assert not moved, f"outputs moved: {', '.join(moved)}"
