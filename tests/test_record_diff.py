"""tools/record_diff.py on its two small configs: silent on equal trees,
and it names the key a changed constant moves."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "record_diff.py"


def record_diff(old: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), "--small"], capture_output=True, text=True
    )


def test_same_tree_is_identical():
    result = record_diff(ROOT / "src")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[-1] == "summary: 2 of 2 configs identical"
    assert all(line.endswith(":") or "identical" in line for line in lines)


def test_changed_constant_is_named(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "psmaxwell" / "cli.py"
    text = cli.read_text()
    assert text.count("report_axis: int = 1\n") == 1
    cli.write_text(text.replace("report_axis: int = 1\n", "report_axis: int = 2\n"))
    result = record_diff(src)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "  report_axis: max abs 1, max rel 0.5" in result.stdout.splitlines()
    assert result.stdout.splitlines()[-1] == "summary: 1 of 2 configs identical"
