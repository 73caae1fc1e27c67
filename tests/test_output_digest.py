"""scripts/output_digest.py: the --against verdicts and the exit status."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# verdict -> the lines printed under it: the first line that differs,
# from the --against side (-) and this one (+)
SHOWN = {"text differs": ["    - line 2: x = 1.5", "    + line 2: y = 1.5"]}


@pytest.mark.parametrize("old, new, verdict, status", [
    ({"f": b"t,C\n1.5\n"}, {"f": b"t,C\n1.5\n"}, "identical", 0),
    ({"f": b"t,C\n2\n"}, {"f": b"t,C\n2.000000000001\n"}, "5.000e-13", 0),
    ({"f": b"t\nx = 1.5\nz\n"}, {"f": b"t\ny = 1.5\nz\n"}, "text differs", 1),
    ({"f": b"1\n"}, {"f": b"1\n", "g": b"2\n"}, "on one side only", 1),
    ({"f": b"1\n", "g": b"2\n"}, {"f": b"1\n"}, "on one side only", 1),
])
def test_against_exits_one_on_a_file_no_rounding_explains(
        digest, monkeypatch, capsys, tmp_path, old, new, verdict, status):
    files = {"old": old, "new": new}
    monkeypatch.setattr(digest, "outputs", lambda root, names, tmp: files[root.name])
    argv = ["--root", str(tmp_path / "new"), "--against", str(tmp_path / "old")]
    assert digest.main(argv) == status
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(f"{verdict}  "))
    shown = SHOWN.get(verdict, [])
    assert lines[at + 1:at + 1 + len(shown)] == shown


def test_a_file_cut_short_shows_its_end(digest):
    assert digest.first_differing_lines(b"a", b"a\nb") == [
        "    - line 2: (end of file)", "    + line 2: b"]
