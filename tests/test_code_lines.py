"""``tools/code_lines.py``: the lines it counts on a fixture, and its
rows and total on ``src/fgr``."""

import importlib.util
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
