"""The public surface, pinned: every exported name, every init field of the
public dataclasses, every parameter of the public functions and a ceiling
on the package's code lines.  A new export, option, stored value or line of
code then shows up as a one-line change here."""

import ast
import copy
import dataclasses
import inspect
import io
import tokenize
from pathlib import Path

import squeeze_aba as sa

#: code lines in src/squeeze_aba: not blank, not comments, not docstrings.
#: A change that adds code raises this in the same diff.
CODE_LINES = 1116

FIELDS = {
    "ChannelMatrix": ("w",),
    "Distribution": ("probs",),
    "SqueezeParams": ("channel", "r", "f"),
    "SqueezePlan": ("params", "strategy"),
    "SolverConfig": ("epsilon", "max_iters", "initial", "record_trace"),
    "SolveResult": ("p_hat", "capacity", "capacity_lower", "capacity_upper", "iterations",
                    "converged", "method", "params", "trace"),
    "BenchConfig": ("m", "n", "replications", "seed", "epsilon", "methods"),
    "RateReport": ("p_star", "R", "global_rate", "global_rate_power", "rate_r0",
                   "aba_lower_bound", "f_plus", "gamma_spectrum"),
    "WaterfillResult": ("delta", "active_floor", "p"),
    "IterationRecord": ("iter", "p", "objective", "gap"),
    "BenchRecord": ("replication_id", "iterations", "log2_ratios", "errors"),
}

PARAMETERS = {
    "aba_step": ("channel", "p"),
    "alg1_step": ("channel", "lam", "p"),
    "alg2_step": ("channel", "params", "p"),
    "alg3_step": ("params", "p"),
    "build_squeeze_params": ("channel", "r", "f"),
    "fixed_point_on_floor": ("params", "p_hat"),
    "floored_uniform": ("r",),
    "heuristic_r": ("channel", "q"),
    "iteration_jacobian": ("params", "p"),
    "jacobi_eigh": ("a",),
    "lambda_upper_bound": ("channel",),
    "load_channel": ("path",),
    "load_params_json": ("channel", "path"),
    "make_distribution": ("p",),
    "matrix_rate": ("params", "p_star"),
    "optimal_r_m2": ("channel",),
    "params_from_r_lambda": ("channel", "r", "lam"),
    "plan": ("channel", "strategy", "q"),
    "power_rate": ("R",),
    "random_channel": ("m", "n", "rng"),
    "replication_rng": ("master_seed", "replication"),
    "run_benchmark": ("config",),
    "solve": ("channel", "method", "lam", "r", "f", "params", "config"),
    "trace_csv_rows": ("result",),
    "uniform": ("m",),
    "validate_channel": ("entries",),
    "waterfill": ("r", "x"),
    "write_trace_csv": ("result", "path"),
}

ERRORS = (
    "BoundaryFixedPointError",
    "ChannelFileError",
    "DegenerateChannelError",
    "DimensionMismatchError",
    "EmptyMatrixError",
    "FloorConstraintError",
    "InfeasibleFloorError",
    "LambdaRangeError",
    "NegativeEntryError",
    "NonInteriorStartError",
    "NonpositiveWeightError",
    "NotAFixedPointError",
    "NotTwoByNError",
    "NumericalBreakdownError",
    "RowSumToleranceError",
    "SqueezeAbaError",
    "SqueezeConstraintError",
    "ValidationError",
    "ZeroColumnError",
)


def test_exported_names():
    exported = sorted(name for name, obj in vars(sa).items()
                      if not name.startswith("_") and not inspect.ismodule(obj))
    assert exported == sorted([*FIELDS, *PARAMETERS, *ERRORS])
    assert all(issubclass(getattr(sa, name), sa.SqueezeAbaError) for name in ERRORS)


def test_dataclass_init_fields():
    assert {name: tuple(f.name for f in dataclasses.fields(getattr(sa, name)) if f.init)
            for name in FIELDS} == FIELDS


def test_public_functions_and_their_parameters():
    functions = {name: obj for name, obj in vars(sa).items()
                 if inspect.isfunction(obj) and not name.startswith("_")}
    assert {name: tuple(inspect.signature(fn).parameters)
            for name, fn in functions.items()} == PARAMETERS


def test_dataclasses_compare_and_hash():
    """Every exported dataclass compares and hashes without raising; those
    that hold arrays or dicts do so by identity."""
    ch = sa.validate_channel([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
    config = sa.SolverConfig(initial=sa.uniform(2), record_trace=True)
    res = sa.solve(ch, "alg2", r=[0.05, 0.05], config=config)
    instances = {
        "ChannelMatrix": ch, "Distribution": res.p_hat, "SqueezeParams": res.params,
        "SqueezePlan": sa.plan(ch), "SolverConfig": config, "SolveResult": res,
        "BenchConfig": sa.BenchConfig(), "IterationRecord": res.trace[0],
        "RateReport": sa.matrix_rate(res.params, sa.fixed_point_on_floor(res.params, res.p_hat)),
        "WaterfillResult": sa.waterfill([0.1, 0.1], [1.0, 2.0]),
        "BenchRecord": sa.BenchRecord(0, {"aba": 3}, {"aba": 0.0}),
    }
    assert instances.keys() == FIELDS.keys()
    for name, x in instances.items():
        assert isinstance(x, getattr(sa, name))
        assert isinstance(x == copy.copy(x), bool), name
        assert isinstance(hash(x), int), name
    # a list of methods is stored as a tuple, so that config hashes too
    listed = sa.BenchConfig(methods=["aba", "alg1"])
    assert listed.methods == ("aba", "alg1") and isinstance(hash(listed), int)
    assert listed == sa.BenchConfig(methods=("aba", "alg1"))


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, outside every docstring."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def test_code_line_ceiling():
    assert code_lines('"""Doc."""\n\n# note\nx = (1,\n     2)  # tail\n') == 2
    package = Path(sa.__file__).parent
    assert sum(code_lines(p.read_text(encoding="utf-8"))
               for p in package.glob("*.py")) <= CODE_LINES
