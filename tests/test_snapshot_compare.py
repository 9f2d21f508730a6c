import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "snapshot_outputs.py"


def compare(a, b):
    res = subprocess.run([sys.executable, str(SCRIPT), "--compare", str(a), str(b)],
                         capture_output=True, text=True, check=False)
    return res.returncode, res.stdout


def write_tree(root: Path, files: dict):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")


def test_compare_reports_moved_numbers_and_fails_on_text(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_tree(a, {"same.txt": "exit 0\n", "run/log.csv": "step,A\n0,2.0\n1,-4.0e-3\n"})
    write_tree(b, {"same.txt": "exit 0\n", "run/log.csv": "step,A\n0,2.000000001\n1,-4.0e-3\n"})
    code, out = compare(a, b)
    assert code == 0
    assert out.splitlines() == ["run/log.csv: lines 3 / 3, text same, max rel change 5.00e-10",
                                "1 files differ, 0 in line count, text or presence"]

    (b / "same.txt").write_text("exit 2\nerror: outside the box\n", encoding="utf-8")
    code, out = compare(a, b)
    assert code == 1
    assert "same.txt: lines 1 / 2, text DIFFERS" in out

    (b / "same.txt").write_text("exit 0\n", encoding="utf-8")
    (b / "extra.txt").write_text("1\n", encoding="utf-8")
    code, out = compare(a, b)
    assert code == 1
    assert f"extra.txt: only in {b}" in out
