"""The README's code runs against the current API."""

import re
from pathlib import Path

from admgfit.data import save_data, simulate

from util import graph_one, strong_params_graph_one

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    for name in ("fit(", "report(", "simulate(", "stepwise(", "search.maps_built"):
        assert name in block
    save_data(simulate(graph_one(), strong_params_graph_one(), 2000, seed=1), tmp_path / "data.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.count("\n") == block.count("print(")
