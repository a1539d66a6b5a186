"""The README's library and command-line examples run against the current API."""

import re
import shlex
from pathlib import Path

import numpy as np

from ghostphase import phase_rmse

from conftest import run_cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    obj, phase, support = namespace["obj"], namespace["phase"], namespace["support"]
    assert phase.shape == obj.shape
    # the truth's support is the object's; the error is over the pixels both maps trust
    assert phase_rmse(phase, np.angle(obj), support & (np.abs(obj) > 0)) < 1e-6


def test_readme_command_line_example_runs(tmp_path, monkeypatch):
    # every `ghostphase ...` line of the sh blocks, continuations joined, run in order
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("ghostphase ")]
    assert {argv[0] for argv in commands} == {"pipeline", "gen-object", "acquire", "reconstruct",
                                              "analyze", "gen-masks"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, stderr = run_cli(argv)
        assert code == 0, (argv, stderr)
