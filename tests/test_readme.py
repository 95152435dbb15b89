"""The python examples of README.md run as written, in order, in one
namespace, and give what the README says they give."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_examples_run():
    quick_start, chain, hook = re.findall(r"```python\n(.*?)```",
                                          README.read_text(encoding="utf-8"), re.S)
    ns = {}
    exec(compile(quick_start, str(README), "exec"), ns)
    assert np.abs(ns["report"].primal.flat() - [2.0, 1.0]).max() <= 1e-6
    exec(compile(chain, str(README), "exec"), ns)
    exec(compile(hook, str(README), "exec"), ns)
    assert ns["primal_resid"] and ns["dual_resid"]
