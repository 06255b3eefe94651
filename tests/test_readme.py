"""The README's library example runs as written."""

import re
from fractions import Fraction
from pathlib import Path

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
