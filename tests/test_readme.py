"""README's library example runs as written; its asserts are its checks.
Every route-matrix cell that README names is a cell of the matrix."""
import re
from pathlib import Path

import routes
from test_protocol import CELL_IDS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (## Library)", "exec"), {})


def test_readme_names_only_route_cells_that_exist():
    # a backticked <route>-s<N>-<spec>[-identity] token names a cell of
    # test_route_matches_reference
    pattern = rf"`((?:{'|'.join(routes.ROUTES)})-s\d+-[^`\s]+)`"
    named = set(re.findall(pattern, README.read_text()))
    assert named, "README names no route cell"
    assert sorted(named - set(CELL_IDS)) == []
