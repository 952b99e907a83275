"""The README's library sketch runs as written, and its command, config key
and function-expression lists match the code, so a stale name in any fails."""
import re
from pathlib import Path

from zexlab import cli, grid

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def _listed(label: str) -> list:
    """The backquoted names of the README paragraph that starts with ``label``."""
    paragraph = re.search(rf"^{label}(.*?)\n\n", README.read_text(), re.S | re.M).group(1)
    return re.findall(r"`([^`]+)`", paragraph)


def test_readme_lists_every_command_and_config_key():
    assert _listed("Commands:") == list(cli._COMMANDS)
    assert sorted(_listed("Known keys:")) == sorted(cli._KNOWN_KEYS)


def test_readme_function_table_lists_every_tag():
    section = README.read_text().split("Function expressions follow the grammar", 1)[1]
    rows = re.findall(r"^\| `([^`]+)` \|", section.split("\n\n", 2)[1], re.M)
    assert [row.split()[0] for row in rows] == list(grid._TAG_KEYS)
