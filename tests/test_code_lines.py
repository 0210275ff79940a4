"""``tools/code_lines.py``: the lines it counts on a fixture, its rows
and total on ``src/fgr``, and its rows against a git revision."""

import importlib.util
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# Code lines: the import, ``def``, the two lines of the return, ``class``
# and the two lines of the string that is not a docstring.
FIXTURE = '''"""A module docstring
over two lines."""

# A comment.
import os  # a trailing comment


def f(x):
    """A function docstring."""

    # Another comment.
    return (x +
            1)


class C:
    """A class docstring."""
    text = """a string
that is not a docstring"""
'''


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rows(output: str) -> dict[str, int]:
    return {
        name: int(count.replace(",", ""))
        for name, count in (line.split() for line in output.splitlines())
    }


def test_counts_lines_holding_code(tmp_path, capsys):
    script = load_script()
    assert script.code_lines(FIXTURE) == 7
    (tmp_path / "fixture.py").write_text(FIXTURE)
    assert script.main([str(tmp_path)]) == 0
    assert rows(capsys.readouterr().out) == {"fixture.py": 7, "total": 7}


def test_src_fgr_total_is_the_sum_of_its_rows(capsys):
    assert load_script().main([]) == 0
    counted = rows(capsys.readouterr().out)
    total = counted.pop("total")
    assert {"__init__.py", "stallings.py", "constructions.py"} <= set(counted)
    assert total == sum(counted.values())


def git(folder, *args):
    # No global configuration: the identity is given on the command line.
    run = subprocess.run(
        ["git", "-c", "user.name=fixture", "-c", "user.email=fixture@example.org", *args],
        cwd=folder, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr


def test_against_a_revision_prints_both_counts_and_the_delta(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "kept.py").write_text(FIXTURE)
    (package / "gone.py").write_text("x = 1\ny = 2\n")
    (package / "notes.txt").write_text("not a module\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "fixture")
    # Two code lines more in kept.py, gone.py deleted, new.py added.
    (package / "kept.py").write_text(FIXTURE + "z = 3\nw = 4  # comment\n\n# comment\n")
    (package / "gone.py").unlink()
    (package / "new.py").write_text('"""Docstring."""\nimport os\n')
    assert load_script().main(["--against", "HEAD", str(package)]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "HEAD", "now", "delta"]
    assert {line.split()[0]: line.split()[1:] for line in lines} == {
        "gone.py": ["2", "0", "-2"],
        "kept.py": ["7", "9", "+2"],
        "new.py": ["0", "1", "+1"],
        "total": ["9", "10", "+1"],
    }
    # One file, by path, and a revision git does not know.
    assert load_script().main(["--against", "HEAD", str(package / "kept.py")]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["kept.py", "7", "9", "+2"]
    assert load_script().main(["--against", "no-such-ref", str(package)]) == 1
    assert "no-such-ref" in capsys.readouterr().err
