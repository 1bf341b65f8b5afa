"""The per-operation cost table runs on a checkout and names every row."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("op_costs", ROOT / "tools" / "op_costs.py")
op_costs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(op_costs)

ROWS = ("optimal_r_m2", "lambda_upper_bound", "params_from_r_lambda", "SqueezeParams(ch, 0, 0)",
        "waterfill (first update)", "solve alg2, params prebuilt", "certify aba", "certify alg1",
        "certify alg2", "certify alg3", "certify auto")


def test_table_on_two_channels(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the checkout first
    assert op_costs.main(["--checkout", str(ROOT), "--channels", "2", "--number", "1",
                          "--repeat", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert "mean over 2 seed-0 bench-2x8 channels, number=1, repeat=1" in header
    assert [row.rsplit(None, 2)[0] for row in rows] == list(ROWS)
    assert all(float(row.split()[-2]) > 0.0 and row.endswith(" us") for row in rows)
