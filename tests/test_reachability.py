"""``ci/reachability.txt`` names today's modules, without re-running the
6-8 min tool that writes it (``python ci/reachability.py``): a module
added, deleted or renamed without a re-run fails here."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _report_modules():
    table = (ROOT / "ci" / "reachability.txt").read_text().split("\n\n")[0]
    return {line.split()[0] for line in table.splitlines()[1:]} - {"total"}


def test_the_report_lists_every_src_module_and_no_other():
    modules = {str(p.relative_to(ROOT / "src")) for p in (ROOT / "src" / "repro").rglob("*.py")}
    assert _report_modules() == modules, "re-run python ci/reachability.py"


def test_every_kept_module_is_a_listed_module():
    spec = importlib.util.spec_from_file_location("reachability", ROOT / "ci" / "reachability.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert set(tool.KEPT) <= _report_modules()
