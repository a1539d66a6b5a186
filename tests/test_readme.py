"""The README's library example runs against the current API."""

import re
from pathlib import Path

import numpy as np

from ghostphase import PhaseImage, phase_rmse

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    obj, phase = namespace["obj"], namespace["phase"]
    truth = PhaseImage(entries=np.angle(obj), support=np.abs(obj) > 0)
    assert phase.entries.shape == obj.shape
    assert phase_rmse(phase, truth) < 1e-6
