"""``ci/reachability.txt`` names today's modules, without re-running the
6-8 min tool that writes it (``python ci/reachability.py``): a module
added, deleted or renamed without a re-run fails here."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT = (ROOT / "ci" / "reachability.txt").read_text().split("\n\n")


def _tool():
    spec = importlib.util.spec_from_file_location("reachability", ROOT / "ci" / "reachability.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _report_modules():
    return {line.split()[0] for line in REPORT[0].splitlines()[1:]} - {"total"}


def test_the_report_lists_every_src_module_and_no_other():
    modules = {str(p.relative_to(ROOT / "src")) for p in (ROOT / "src" / "repro").rglob("*.py")}
    assert _report_modules() == modules, "re-run python ci/reachability.py"


def test_every_kept_module_is_a_listed_module():
    assert set(_tool().KEPT) <= _report_modules()


def test_each_module_no_product_path_reaches_is_kept_for_an_open_roadmap_item():
    kept, roadmap = _tool().KEPT, (ROOT / "ROADMAP.md").read_text()
    for line in REPORT[1].splitlines()[1:]:
        module, reason = line.strip().split(": ", 1)
        assert reason == kept.get(module), f"{module}: give it a KEPT reason, or delete it"
        items = re.findall(r'"([^"]+)"', reason)
        assert items and all(item in roadmap for item in items), (module, items)
