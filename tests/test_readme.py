"""The README's library quick start runs as printed."""

import math
import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_without_numerical_warnings(capsys):
    namespace: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(quick_start(), str(README), "exec"), namespace)
    printed = [float(v) for v in capsys.readouterr().out.split()]
    ci, rep = namespace["ci"], namespace["rep"]
    assert printed == [ci.estimate, ci.half_length, ci.max_bias, ci.std_error]
    assert all(math.isfinite(v) for v in printed) and ci.half_length > 0.0
    assert 0.0 <= namespace["m_min"] < math.inf
    assert rep.universal_lower <= rep.kappa_two_sided <= 1.0
