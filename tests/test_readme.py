"""The README's config example, library sketch and oracle API list match the current code."""

import pathlib
import re

from qbm import oracle
from qbm.config import parse_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(heading: str, lang: str = "") -> str:
    """The first fenced code block after ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading) :]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_config_block_parses(tmp_path):
    path = tmp_path / "readme.conf"
    path.write_text(fenced_block("### Config format"), encoding="utf-8")
    cfg = parse_config(path)
    assert cfg.modes == ("full", "norenorm", "rwa", "oracle")
    assert cfg.state.x0 == 2.0


def test_readme_library_sketch_runs(capsys):
    exec(compile(fenced_block("## Library sketch", "python"), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("ObservableSeries(grid=array(")


def test_readme_oracle_list_names_exist():
    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"`qbm\.oracle` exposes (.*?)\.\s", text, re.S).group(1)
    names = re.findall(r"`(\w+)`", sentence)
    assert len(names) >= 5, names
    missing = [name for name in names if not hasattr(oracle, name)]
    assert not missing, missing
