import json
import logging
import re

import numpy as np
import pytest

import squeeze_aba as sa
from squeeze_aba.cli import build_parser, main
from helpers import GOLDEN, GOLDEN_CAPACITY, spread_rows


@pytest.fixture
def channel_csv(tmp_path):
    path = tmp_path / "golden.csv"
    path.write_text("0.7,0.2,0.1\n0.1,0.2,0.7\n")
    return str(path)


@pytest.fixture
def channel_json(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"matrix": GOLDEN}))
    return str(path)


class TestChannelFiles:
    def test_csv_and_json_agree(self, channel_csv, channel_json):
        a = sa.load_channel(channel_csv)
        b = sa.load_channel(channel_json)
        assert np.allclose(a.w, b.w)

    def test_missing_file(self, tmp_path):
        with pytest.raises(sa.ChannelFileError):
            sa.load_channel(tmp_path / "nope.csv")

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.7,x,0.1\n")
        with pytest.raises(sa.ChannelFileError):
            sa.load_channel(path)

    def test_params_roundtrip(self, channel_csv, tmp_path, golden):
        # the params file users have is the "params" object of solve --json
        params = sa.params_from_r_lambda(golden, [1 / 8, 1 / 8], 5 / 3)
        out = tmp_path / "res.json"
        assert main(["solve", channel_csv, "--method", "alg2", "--r", "0.125,0.125",
                     "--lambda", repr(5 / 3), "--json", str(out)]) == 0
        doc = json.loads(out.read_text())["params"]
        assert set(doc) == {"r", "f", "lambda"}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        back = sa.load_params_json(golden, path)
        assert np.allclose(back.r, params.r)
        assert np.allclose(back.f, params.f)
        assert back.lam == pytest.approx(params.lam, rel=1e-12)

    def test_params_inconsistent_lambda_rejected(self, tmp_path, golden):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"r": [0.125, 0.125], "f": [0, 0.25, 0], "lambda": 1.2}))
        with pytest.raises(sa.ChannelFileError):
            sa.load_params_json(golden, path)


class TestCliSolve:
    def test_one_step_solve_with_flags(self, channel_csv, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = main(["solve", channel_csv, "--method", "alg2",
                     "--r", "0.125,0.125", "--lambda", "1.6666666666666667",
                     "--json", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["iterations"] <= 1
        assert doc["converged"] is True
        assert doc["capacity"] == pytest.approx(GOLDEN_CAPACITY, abs=1e-7)
        assert np.allclose(doc["p_hat"], [0.5, 0.5], atol=1e-9)
        assert "capacity" in capsys.readouterr().out

    def test_auto_method_plans_optimal(self, channel_csv, tmp_path):
        out = tmp_path / "res.json"
        assert main(["solve", channel_csv, "--method", "auto", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert np.allclose(doc["params"]["r"], [0.125, 0.125], atol=1e-12)
        assert doc["params"]["lambda"] == pytest.approx(5 / 3, abs=1e-9)

    def test_bits_units(self, tmp_path):
        path = tmp_path / "id3.csv"
        path.write_text("1,0,0\n0,1,0\n0,0,1\n")
        out = tmp_path / "res.json"
        assert main(["solve", str(path), "--method", "aba", "--units", "bits",
                     "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["capacity"] == pytest.approx(np.log2(3.0), abs=1e-6)
        assert doc["units"] == "bits"

    def test_trace_written(self, channel_csv, tmp_path):
        trace = tmp_path / "trace.csv"
        assert main(["solve", channel_csv, "--trace", str(trace)]) == 0
        header = trace.read_text().splitlines()[0]
        assert header.startswith("iter,objective_nats,gap_nats,lower_nats,upper_nats")

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.9,0.3\n0.5,0.5\n")
        assert main(["solve", str(bad)]) == 2

    def test_malformed_vector_exit_code(self, channel_csv, capsys):
        for argv in (["solve", channel_csv, "--method", "alg2", "--r", "0.1,abc"],
                     ["params", channel_csv, "--q", "0.5,,0.5"]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: expected comma-separated numbers")

    @pytest.mark.parametrize("flags, message", [
        (["--method", "aba", "--lambda", "3"], "method 'aba' takes no squeeze parameters"),
        (["--method", "auto", "--r", "0.1,0.1"], "method 'auto' takes no squeeze parameters"),
    ])
    def test_flags_are_never_dropped(self, channel_csv, capsys, flags, message):
        # a flag reaches the method, whose own rules then apply; auto takes none
        assert main(["solve", channel_csv, *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_no_way_past_the_feasible_set(self, channel_csv, capsys):
        # solve has no --force: argparse refuses the flag, and a gain above the
        # golden channel's bound 1/(1 - 0.4) exits 2 naming the interval, as
        # does an infeasible floor
        with pytest.raises(SystemExit) as caught:
            main(["solve", channel_csv, "--method", "alg1", "--lambda", "3", "--force"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --force" in capsys.readouterr().err
        for flags, message in (
                (["--method", "alg1", "--lambda", "3"],
                 "lambda = 3 outside feasible interval [1, 1.66666666666667]"),
                (["--method", "alg2", "--r", "0.2,0", "--lambda", "1.5"],
                 "floor constraint violated: W[1,0] = 0.1 is below")):
            assert main(["solve", channel_csv, *flags]) == 2
            assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_not_converged_exit_code(self, tmp_path):
        path = tmp_path / "skew.csv"
        path.write_text("0.8,0.15,0.05\n0.1,0.3,0.6\n")
        code = main(["solve", str(path), "--method", "aba",
                     "--epsilon", "1e-12", "--max-iters", "2"])
        assert code == 3

    def test_params_file_refuses_a_squeeze_flag(self, channel_csv, tmp_path, capsys):
        # the file fixes r, f and lambda, so a flag beside it is refused, not dropped
        assert main(["params", channel_csv, "--strategy", "optimal-m2"]) == 0
        pfile = tmp_path / "p.json"
        pfile.write_text(capsys.readouterr().out)
        for flag in (["--r", "0,0"], ["--f", "0,0.25,0"], ["--lambda", "1.5"]):
            assert main(["solve", channel_csv, "--method", "alg3", *flag,
                         "--params", str(pfile)]) == 2
            assert capsys.readouterr().err.startswith(
                "error: prebuilt params fix r, f and lambda")

    @pytest.mark.parametrize("method, code", [("alg3", 0), ("alg2", 0), ("auto", 2)])
    def test_params_file_goes_to_the_method_as_given(self, channel_csv, tmp_path, capsys,
                                                     method, code):
        # alg2 and alg3 run the file's params as they are; auto plans its own and refuses them
        assert main(["params", channel_csv, "--strategy", "optimal-m2"]) == 0
        pfile = tmp_path / "p.json"
        pfile.write_text(capsys.readouterr().out)
        out = tmp_path / "res.json"
        assert main(["solve", channel_csv, "--method", method,
                     "--params", str(pfile), "--json", str(out)]) == code
        if code:
            assert capsys.readouterr().err.startswith(
                "error: method 'auto' does not accept prebuilt params")
            return
        doc = json.loads(out.read_text())
        assert doc["method"] == method and doc["converged"]
        assert np.allclose(doc["params"]["r"], [0.125, 0.125], atol=1e-12)

    def test_round_trip_restart_converges_fast(self, golden):
        first = sa.solve(golden, "aba",
                         config=sa.SolverConfig(initial=sa.make_distribution([0.3, 0.7])))
        again = sa.solve(golden, "aba",
                         config=sa.SolverConfig(initial=first.p_hat))
        assert again.converged
        assert again.iterations <= 2


class TestCliParams:
    def test_optimal_m2_json(self, channel_csv, capsys):
        assert main(["params", channel_csv, "--strategy", "optimal-m2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(doc["r"], [0.125, 0.125], atol=1e-12)
        assert np.allclose(doc["f"], [0.0, 0.25, 0.0], atol=1e-12)
        assert doc["lambda"] == pytest.approx(5 / 3, abs=1e-9)

    def test_unsqueezable_warns_but_succeeds(self, tmp_path, capsys):
        path = tmp_path / "id2.csv"
        path.write_text("1,0\n0,1\n")
        with pytest.warns(RuntimeWarning, match="not squeezable"):
            assert main(["params", str(path), "--strategy", "lambda-only"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda"] == 1.0
        assert np.allclose(doc["f"], 0.0)

    def test_heuristic_plan_validates(self, rng, tmp_path, capsys):
        u = rng.random((3, 4))
        w = u / u.sum(axis=1, keepdims=True)
        path = tmp_path / "ch.csv"
        path.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in w))
        assert main(["params", str(path), "--strategy", "heuristic"]) == 0
        doc = json.loads(capsys.readouterr().out)
        ch = sa.load_channel(path)
        params = sa.build_squeeze_params(ch, doc["r"], doc["f"])
        assert params.feasible


class TestCliRate:
    def test_plain_rate_golden(self, channel_csv, tmp_path):
        out = tmp_path / "rate.json"
        assert main(["rate", channel_csv, "--method", "aba", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["global_rate"] == pytest.approx(0.55, abs=1e-6)
        assert doc["aba_lower_bound"] == pytest.approx(0.4, abs=1e-9)
        assert doc["overlap_margin"] == pytest.approx(0.15, abs=1e-6)
        assert np.allclose(doc["R"], [0.275, -0.275, -0.275, 0.275], atol=1e-6)

    def test_offset_rate_golden(self, channel_csv, tmp_path):
        out = tmp_path / "rate.json"
        assert main(["rate", channel_csv, "--method", "alg1",
                     "--lambda", "1.6666666666666667", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["global_rate"] == pytest.approx(0.25, abs=1e-6)
        assert doc["shift_identity_residual"] < 1e-7

    def test_double_squeeze_rate_zero(self, channel_csv, tmp_path):
        out = tmp_path / "rate.json"
        assert main(["rate", channel_csv, "--method", "auto", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["global_rate"] <= 1e-8

    def test_boundary_exit_code(self, tmp_path):
        # optimizer puts no mass on the dominated middle input
        path = tmp_path / "dominated.csv"
        path.write_text("0.9,0.05,0.05\n0.34,0.33,0.33\n0.05,0.05,0.9\n")
        code = main(["rate", str(path), "--method", "aba"])
        assert code == 4


def test_auto_on_equal_rows_runs_the_plain_iteration(tmp_path, caplog):
    # plan has no finite squeeze for equal rows, so solve's auto runs aba's
    # params with a warning rather than fail where aba succeeds; both report
    # the bracket the loop evaluated, which rounding may leave a few ulps off 0
    path = tmp_path / "equal.csv"
    path.write_text("0.4,0.6\n0.4,0.6\n")
    docs = {}
    for command in ("solve", "rate"):
        for method in ("aba", "auto"):
            out = tmp_path / f"{command}-{method}.json"
            assert main([command, str(path), "--method", method, "--json", str(out)]) == 0
            docs[command, method] = json.loads(out.read_text())
    for bound in ("capacity_lower", "capacity_upper"):
        assert abs(docs["solve", "auto"][bound]) <= 1e-15, bound
    for command in ("solve", "rate"):
        assert (docs[command, "aba"].pop("method"), docs[command, "auto"].pop("method")) == \
            ("aba", "auto")
        assert docs[command, "auto"] == docs[command, "aba"]
    warned = [rec for rec in caplog.records if rec.levelno == logging.WARNING]
    assert [rec.name for rec in warned] == ["squeeze_aba", "squeeze_aba"]
    assert all(rec.getMessage().startswith("method 'auto' runs the plain iteration: ")
               and "all rows equal" in rec.getMessage() for rec in warned)


def test_auto_falls_back_where_the_plan_breaks_a_constraint(tmp_path, caplog):
    # (1 - s) b + s N with s = 1e-6: the optimal squeeze breaks an offset
    # constraint by about 1e-11, so plan raises, and solve's auto logs the
    # reason and runs the plain iteration, where aba succeeds
    w = spread_rows(np.random.default_rng(1), 1e-6)
    path = tmp_path / "tiny-spread.csv"
    path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in w) + "\n")
    with pytest.raises(sa.SqueezeConstraintError):
        sa.plan(sa.load_channel(path), "optimal-m2")
    docs = {}
    for method in ("aba", "auto"):
        out = tmp_path / f"{method}.json"
        assert main(["solve", str(path), "--method", method, "--json", str(out)]) == 0
        docs[method] = json.loads(out.read_text())
    assert (docs["aba"].pop("method"), docs["auto"].pop("method")) == ("aba", "auto")
    assert docs["auto"] == docs["aba"]
    warned = [rec for rec in caplog.records if rec.levelno == logging.WARNING]
    assert [rec.name for rec in warned] == ["squeeze_aba"]
    assert warned[0].getMessage().startswith("method 'auto' runs the plain iteration: ")
    assert "offset constraint violated" in warned[0].getMessage()


class TestInterfaceStability:
    def test_solve_json_schema(self, channel_csv, tmp_path):
        out = tmp_path / "res.json"
        assert main(["solve", channel_csv, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"capacity", "capacity_lower", "capacity_upper", "units",
                            "p_hat", "iterations", "converged", "method", "params"}
        assert set(doc["params"]) == {"r", "f", "lambda"}

    def test_rate_json_schema(self, channel_csv, tmp_path):
        out = tmp_path / "rate.json"
        assert main(["rate", channel_csv, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert {"p_star", "R", "global_rate", "rate_r0", "aba_lower_bound",
                "global_rate_power", "shift_identity_residual",
                "overlap_margin"} <= set(doc)

    def test_solve_document_refuses_unknown_units(self, golden):
        with pytest.raises(sa.ValidationError, match="unknown units 'shannons'"):
            sa.io.solve_to_dict(sa.solve(golden), "shannons")

    def test_standard_output_holds_the_file_bytes(self, channel_csv, tmp_path, capsys):
        # one JSON text form: what rate prints is what its --json file holds
        out = tmp_path / "rate.json"
        assert main(["rate", channel_csv, "--method", "alg1", "--json", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")
        assert main(["params", channel_csv]) == 0
        printed = capsys.readouterr().out
        assert printed == sa.io.json_text(json.loads(printed))

    def test_log_env_var_accepted(self, channel_csv, monkeypatch, capsys):
        monkeypatch.setenv("SQUEEZE_ABA_LOG", "debug")
        assert main(["solve", channel_csv]) == 0
        capsys.readouterr()

    def test_params_explicit_q(self, channel_csv, capsys):
        assert main(["params", channel_csv, "--strategy", "heuristic",
                     "--q", "0.5,0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert np.allclose(doc["r"], [0.125, 0.125], atol=1e-12)

    def test_params_q_needs_the_heuristic(self, channel_csv, capsys):
        for q in ("0.3,0.7", "uniform"):
            assert main(["params", channel_csv, "--strategy", "optimal-m2", "--q", q]) == 2
            assert "strategy 'optimal-m2' takes no q" in capsys.readouterr().err
        # the heuristic reads an explicit uniform q as it reads no q
        assert main(["params", channel_csv]) == 0
        default = capsys.readouterr().out
        assert main(["params", channel_csv, "--q", "uniform"]) == 0
        assert capsys.readouterr().out == default

    def test_params_non_finite_q_rejected(self, channel_csv, capsys):
        assert main(["params", channel_csv, "--strategy", "heuristic",
                     "--q", "nan,1"]) == 2
        assert "probabilities must be finite" in capsys.readouterr().err


class TestCliBench:
    def test_bench_outputs_and_determinism(self, tmp_path, capsys):
        args = ["bench", "--m", "2", "--n", "8", "--reps", "6", "--seed", "42",
                "--out", str(tmp_path / "b1")]
        assert main(args) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["replications"] == 6
        args2 = ["bench", "--m", "2", "--n", "8", "--reps", "6", "--seed", "42",
                 "--out", str(tmp_path / "b2")]
        assert main(args2) == 0
        assert (tmp_path / "b1.csv").read_bytes() == (tmp_path / "b2.csv").read_bytes()

    def test_negative_seed_exit_code(self, capsys):
        # refused by BenchConfig as a usage error, before any replication runs
        assert main(["bench", "--seed", "-1", "--reps", "1"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


class TestMalformedFiles:
    @pytest.mark.parametrize("doc", [
        {"r": "abc", "f": [0, 0, 0]},
        {"r": {"a": 1}, "f": [0, 0, 0]},
        {"r": [0, 0], "f": [0, 0, 0], "lambda": "abc"},
        {"r": [0, 0], "f": [0, 0, 0], "lambda": [1]},
        {"r": [0, 0], "f": [0, 0, 0], "lambda": float("nan")},
        {"r": [0, 0], "f": [0, 0, 0], "lambda": float("inf")},
    ])
    def test_params_file_exits_2(self, channel_csv, golden, tmp_path, capsys, doc):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))  # writes NaN and Infinity as JSON extensions
        assert main(["solve", channel_csv, "--method", "alg3", "--params", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        with pytest.raises(sa.ChannelFileError):
            sa.load_params_json(golden, path)

    @pytest.mark.parametrize("doc, name", [
        ({"r": [0.125, 0.125], "f": [0, 0.25, 0], "lambda": "1.6666666666666667"}, "lambda"),
        ({"r": ["0.125", "0.125"], "f": [0, 0.25, 0]}, "r"),
        ({"r": [True, False], "f": [0, 0, 0]}, "r"),
        ({"r": [0.125, 0.125], "f": [0, 0.25, None]}, "f"),
    ])
    def test_params_file_holds_numbers(self, channel_csv, tmp_path, capsys, doc, name):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", channel_csv, "--method", "alg3", "--params", str(path)]) == 2
        assert f'"{name}" must hold JSON numbers' in capsys.readouterr().err

    def test_channel_file_holds_numbers(self, tmp_path, capsys):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"matrix": [[str(v) for v in row] for row in GOLDEN]}))
        assert main(["solve", str(path)]) == 2
        assert '"matrix" must hold JSON numbers' in capsys.readouterr().err

    def test_channel_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "channel.json"
        path.write_text(json.dumps({"matrix": {"a": 1}}))
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        with pytest.raises(sa.ChannelFileError):
            sa.load_channel(path)


class TestFileErrors:
    @pytest.mark.parametrize("name, text, match", [
        ("empty.csv", "  \n", "channel file is empty"),
        ("nomatrix.json", json.dumps({"rows": GOLDEN}), 'needs a "matrix" key'),
        ("ragged.json", json.dumps({"matrix": [[0.5, 0.5], [1.0]]}), 'could not parse "matrix"'),
    ])
    def test_channel_file(self, tmp_path, name, text, match):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(sa.ChannelFileError, match=match):
            sa.load_channel(path)

    @pytest.mark.parametrize("text, match", [
        (None, "params file not found"),
        ('{"r": [0, 0],', "invalid JSON"),
        (json.dumps({"r": [0, 0], "lambda": 1.0}), 'needs "r" and "f" keys'),
        (json.dumps([[0, 0], [0, 0, 0]]), 'needs "r" and "f" keys'),
    ])
    def test_params_file(self, golden, tmp_path, text, match):
        path = tmp_path / "params.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(sa.ChannelFileError, match=match):
            sa.load_params_json(golden, path)

    def test_a_directory_is_not_a_file(self, channel_csv, golden, tmp_path, capsys):
        # read_text would raise IsADirectoryError, which would exit 1 as a
        # runtime failure rather than 2 as a file error
        with pytest.raises(sa.ChannelFileError, match="channel file not found"):
            sa.load_channel(tmp_path)
        with pytest.raises(sa.ChannelFileError, match="params file not found"):
            sa.load_params_json(golden, tmp_path)
        for kind, argv in (("channel", ["solve", str(tmp_path)]),
                           ("params", ["solve", channel_csv, "--method", "alg3",
                                       "--params", str(tmp_path)])):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {kind} file not found: {tmp_path}\n"

    @pytest.mark.parametrize("doc, error, message", [
        ({"r": [0, 0, 0], "f": [0, 0, 0]}, sa.DimensionMismatchError,
         "r must have length 2, got shape (3,)"),
        ({"r": [0.5, 0.5], "f": [0, 0, 0]}, sa.InfeasibleFloorError, "floor mass r_+ = 1"),
    ])
    def test_params_errors_name_the_file(self, channel_csv, golden, tmp_path, capsys,
                                         doc, error, message):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(error, match=re.escape(f"{path}: {message}")):
            sa.load_params_json(golden, path)
        assert main(["solve", channel_csv, "--method", "alg3", "--params", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


class TestCliRateFailures:
    """A channel whose p* one step still moves by 7.0e-4 at gap 1e-3."""

    @pytest.fixture
    def near_channel(self, tmp_path):
        path = tmp_path / "near.csv"
        path.write_text("0.5,0.3,0.2\n0.45,0.35,0.2\n0.1,0.1,0.8\n")
        return str(path)

    def test_unconverged_solve_exits_3(self, near_channel, capsys):
        assert main(["rate", near_channel, "--max-iters", "1"]) == 3
        assert "did not reach gap 1e-13 within 1 iterations" in capsys.readouterr().err

    def test_unfixed_point_exits_1(self, near_channel, capsys):
        assert main(["rate", near_channel, "--gap", "1e-3"]) == 1
        assert "one step moves p* by 6.993e-04" in capsys.readouterr().err


def test_cli_defaults_are_the_config_defaults():
    parser = build_parser()
    solver, bench = sa.SolverConfig(), sa.BenchConfig()
    solve_args = parser.parse_args(["solve", "channel.csv"])
    assert (solve_args.epsilon, solve_args.max_iters) == (solver.epsilon, solver.max_iters)
    assert parser.parse_args(["rate", "channel.csv"]).max_iters == solver.max_iters
    bench_args = parser.parse_args(["bench"])
    assert ((bench_args.m, bench_args.n, bench_args.reps, bench_args.seed, bench_args.epsilon)
            == (bench.m, bench.n, bench.replications, bench.seed, bench.epsilon))
