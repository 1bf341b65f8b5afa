"""The public surface, pinned: every init field of the public dataclasses
and every parameter of the public functions.  A new option or stored value
then shows up as a one-line change here."""

import dataclasses
import inspect

import squeeze_aba as sa

FIELDS = {
    "ChannelMatrix": ("w",),
    "Distribution": ("probs",),
    "SqueezeParams": ("channel", "r", "f", "feasible"),
    "SqueezePlan": ("r", "g", "f", "lam", "strategy"),
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
    "alg1_step": ("channel", "lam", "p", "force"),
    "alg2_step": ("channel", "params", "p"),
    "alg3_step": ("params", "p"),
    "build_squeeze_params": ("channel", "r", "f", "force"),
    "entropy": ("q",),
    "fixed_point_on_floor": ("params", "p_hat"),
    "floored_uniform": ("r",),
    "heuristic_r": ("channel", "q"),
    "iteration_jacobian": ("params", "p"),
    "jacobi_eigh": ("a",),
    "kl_divergence": ("q", "s"),
    "lambda_bounds": ("channel", "r"),
    "lambda_upper_bound": ("channel",),
    "load_channel": ("path",),
    "load_params_json": ("channel", "path"),
    "make_distribution": ("p", "floor"),
    "matrix_rate": ("params", "p_star"),
    "mutual_information": ("channel", "p"),
    "nats_to_bits": ("x",),
    "offset_from_g": ("channel", "g", "r"),
    "optimal_g": ("channel",),
    "optimal_r_m2": ("channel",),
    "params_from_r_lambda": ("channel", "r", "lam", "force"),
    "plan": ("channel", "strategy", "q"),
    "polish_fixed_point": ("params", "p", "tol"),
    "power_rate": ("R", "p_star", "max_iters"),
    "random_channel": ("m", "n", "rng"),
    "replication_rng": ("master_seed", "replication"),
    "row_entropies": ("w",),
    "run_benchmark": ("config",),
    "save_params_json": ("params", "path"),
    "solve": ("channel", "method", "lam", "r", "f", "params", "config", "force"),
    "trace_csv_rows": ("result",),
    "uniform": ("m",),
    "validate_channel": ("entries",),
    "waterfill": ("r", "x"),
    "write_trace_csv": ("result", "path"),
}


def test_dataclass_init_fields():
    assert {name: tuple(f.name for f in dataclasses.fields(getattr(sa, name)) if f.init)
            for name in FIELDS} == FIELDS


def test_public_functions_and_their_parameters():
    functions = {name: obj for name, obj in vars(sa).items()
                 if inspect.isfunction(obj) and not name.startswith("_")}
    assert {name: tuple(inspect.signature(fn).parameters)
            for name, fn in functions.items()} == PARAMETERS
