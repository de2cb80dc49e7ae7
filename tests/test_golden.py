"""Golden CLI transcripts: each recorded run must reproduce its stdout byte for byte.

Every file under golden/ holds one argv, the exit code and the exact stdout
the CLI printed for it.  They pin ShortLex words, certificates, centralizer
lists and JSON layout across changes to the element core.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from coxcent import cli

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_golden_transcript(path):
    case = json.loads(path.read_text(encoding="utf-8"))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(case["argv"])
    assert code == case["exit_code"]
    assert out.getvalue() == case["stdout"]
