"""The README's examples run as written."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

from minscreen.cli import main
from minscreen.workload import WorkloadGroup, WorkloadSpec, gen_synthetic

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    spec = WorkloadSpec(
        groups=(
            WorkloadGroup(Fraction(9, 10), 4, 10, 20),
            WorkloadGroup(Fraction(1, 10), 4, 10, 20),
        ),
        seed=3,
    )
    sets, pairs = gen_synthetic(spec)
    scope = {"sets": sets, "pairs": pairs}
    exec(compile(example, str(README), "exec"), scope)
    assert scope["report"].n_pairs == len(scope["outcomes"]) == len(pairs)
    assert sorted(scope["signatures"]) == sorted(sets)
    assert capsys.readouterr().out == f"{scope['cfg'].table.rows[0]}\n"


def test_command_line_example_runs(tmp_path, monkeypatch, capsys):
    """Every minscreen command of the README's command-line block exits 0,
    in order, in one directory; each later step reads what earlier ones
    wrote."""
    (block,) = [
        text
        for text in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
        if "minscreen gen" in text
    ]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("minscreen ")]
    assert [argv[1] for argv in commands] == ["gen", "sign", "screen", "thresholds", "screen", "fr"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "fr.csv").read_text().count("\n") > 1
