import source_lines

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment

X = 1
"""The docstring of X."""


def f(a):
    """One line."""
    # only a comment
    return (a +
            1)


TEXT = """a string
in an expression"""
'''


def test_counts_physical_and_code_lines(tmp_path, capsys):
    """Code lines: the import, X, def, both lines of the return and both of TEXT."""
    assert source_lines.code_lines(SNIPPET) == 7
    (tmp_path / "b.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "a.py").write_text("# nothing but a comment\n\nY = 2\n", encoding="utf-8")
    assert source_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["a.py 3 1", "b.py 18 7", "total 21 8"]
