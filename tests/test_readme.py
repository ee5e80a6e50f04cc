"""README's examples work: every `hypifs` line of its CLI block parses, and
its Python session runs."""

import pathlib
import re
import shlex

import pytest

from hypifs import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def test_readme_cli_lines_parse():
    lines = [line for block in fenced_blocks("sh") for line in block.splitlines()
             if line.startswith("hypifs ")]
    assert len(lines) >= 3
    for line in lines:
        try:
            cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_readme_python_session_runs(capsys):
    (session,) = fenced_blocks("python")
    exec(compile(session, "README.md", "exec"), {})
    ratio = float(capsys.readouterr().out)
    assert 0.0 < ratio < 2.0
