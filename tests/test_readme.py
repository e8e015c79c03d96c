"""The README's library example runs as written and prints what it shows,
and every `paymech` command of its shell block exits 0."""

import contextlib
import io
import json
import pathlib
import re
import shlex

from paymech import CommerceParams, build_commerce
from paymech.cli import dispatch

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue() == "[50.625 50.625]\n50.0\n"


def test_shell_block_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("paymech ")]
    assert len(lines) >= 10
    # the inputs the block reads but does not write: the trade game's target
    # utilities and the profile in which the buyer rejects
    monkeypatch.chdir(tmp_path)
    target = build_commerce(CommerceParams(x=100, x_prime=50, y=150, eps=0.1)).target_e
    (tmp_path / "target.json").write_text(json.dumps({"target_e": target.tolist()}))
    (tmp_path / "deviation.json").write_text(json.dumps(
        {"root": "send", "after_send": "reject", "after_not_send": "reject"}))
    for line in lines:
        text = ""
        for command in line.split(" | "):
            argv = shlex.split(command)
            assert argv[0] == "paymech", line
            out, err = io.StringIO(), io.StringIO()
            code = dispatch(argv[1:], stdout=out, stderr=err, stdin=io.StringIO(text))
            assert code == 0, (command, err.getvalue())
            text = out.getvalue()
