"""The README's examples run as written, on the README's channel."""

import re
import shlex
from pathlib import Path

import numpy as np

import squeeze_aba as sa
from squeeze_aba.cli import main
from helpers import GOLDEN

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_python_example_runs(capsys):
    (code,) = blocks("python")
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    capsys.readouterr()
    assert np.array_equal(namespace["W"].w, sa.validate_channel(GOLDEN).w)
    assert namespace["fast"].iterations == 1  # as its comment says


def test_cli_examples_run(tmp_path, monkeypatch, capsys):
    (tmp_path / "channel.csv").write_text("\n".join(",".join(map(str, row)) for row in GOLDEN))
    monkeypatch.chdir(tmp_path)
    lines = [line.split("#")[0] for block in blocks("sh") for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("squeeze-aba ")]
    assert [argv[0] for argv in commands] == ["solve", "params", "rate", "bench"]
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
    for name in ("result.json", "trace.csv", "rate.json", "bench.csv", "bench_summary.json"):
        assert (tmp_path / name).is_file(), name
