"""ROADMAP pillar 2 tracks the size of ``src/``; this is the machine that
tracks it.  ``ci/src_lines.max`` holds one integer, and ``src/`` may not
hold more Python lines than that (counted as CI does:
``find src -name '*.py' | xargs cat | wc -l``)."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_src_lines_do_not_exceed_the_ratchet():
    lines = sum(path.read_bytes().count(b"\n")
                for path in (ROOT / "src").rglob("*.py"))
    allowed = int((ROOT / "ci" / "src_lines.max").read_text())
    assert lines <= allowed, (
        f"src/ has {lines} Python lines, ci/src_lines.max allows {allowed}: "
        "lower the number when code is deleted; raise it in the diff, with "
        "a reason, when a feature needs it")
