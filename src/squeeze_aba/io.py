"""File formats: every file and document the package reads or writes.

No other module opens a file or fixes a file's or a document's layout.
The formats:

- Channel CSV (read): one row per input letter, plain numbers, no header.
- Channel JSON (read): ``{"matrix": [[...], ...]}``.
- Squeeze parameters (read by ``load_params_json``, laid out by
  ``params_to_dict``): ``{"r": [...], "f": [...], "lambda": x}``.
- Solve trace CSV (``trace_csv_rows``, ``write_trace_csv``): one line per
  iteration, ``iter,objective_nats,gap_nats,lower_nats,upper_nats,p_1,...``,
  floats written with 17 significant digits.
- Bench CSV (``bench_csv_rows``): one line per replication,
  ``replication_id,n_aba,n_<method>...,log2_ratio_<method>...``, ratios
  with 12 significant digits and an empty cell for a failed method.
- The plan document (``plan_to_dict``): the parameters' layout plus the
  combined squeeze ``"g"`` = lambda rW + f and the ``"strategy"``.
- The solve document (``solve_to_dict``): ``capacity``, its bracket and
  ``units``, ``p_hat``, ``iterations``, ``converged``, ``method`` and
  ``params``; ``units="bits"`` converts the capacities here only.
- The rate document (``rate_to_dict``): a rate report's fields with
  ``shift_identity_residual``, the solve's ``method`` and ``params``, and
  ``overlap_margin``, the plain iteration's rate less its overlap bound.
- JSON text (``json_text``): every JSON document, the bench summary among
  them, in a file (``write_json``) or on standard output, with indent 2,
  sorted keys and a trailing newline.

Text files are UTF-8 with a newline after every line.  JSON fields hold
JSON numbers: a string or boolean where a number belongs makes the file
malformed (ChannelFileError naming the field), not a value to convert.
An error in a file's contents names the file.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .channel import ChannelMatrix, validate_channel
from .errors import ChannelFileError, SqueezeAbaError, ValidationError
from .experiments import BenchConfig
from .rate_analysis import RateReport
from .solvers import SolveResult
from .squeeze import SqueezeParams, build_squeeze_params
from .squeeze_select import SqueezePlan

#: nats per unit: the solve document's capacities are divided by it
UNITS = {"nats": 1.0, "bits": float(np.log(2.0))}


def _numeric(value) -> bool:
    """True for a JSON number or nested lists of them; a bool is not one."""
    return all(map(_numeric, value)) if isinstance(value, list) else type(value) in (int, float)


def _json_floats(value, name: str, path: Path) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array."""
    if not _numeric(value):
        raise ChannelFileError(f'{path}: "{name}" must hold JSON numbers only')
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged rows, or an integer past the float range
        raise ChannelFileError(f'{path}: could not parse "{name}": {exc}') from exc


def load_channel(path) -> ChannelMatrix:
    """Read and validate a channel matrix from a CSV or JSON file."""
    path = Path(path)
    if not path.is_file():  # a directory too, which read_text would meet with IsADirectoryError
        raise ChannelFileError(f"channel file not found: {path}")
    text = path.read_text(encoding="utf-8").strip()
    if not text:
        raise ChannelFileError(f"channel file is empty: {path}")
    try:
        if path.suffix.lower() == ".json" or text.startswith("{"):
            doc = json.loads(text)
            if not isinstance(doc, dict) or "matrix" not in doc:
                raise ChannelFileError(f'{path}: JSON channel needs a "matrix" key')
            entries = _json_floats(doc["matrix"], "matrix", path)
        else:
            rows = [line for line in text.splitlines() if line.strip()]
            entries = np.asarray([[float(cell) for cell in line.split(",")] for line in rows])
    except ChannelFileError:
        raise
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ChannelFileError(f"{path}: could not parse channel matrix: {exc}") from exc
    try:
        return validate_channel(entries)
    except SqueezeAbaError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def params_to_dict(params: SqueezeParams) -> dict:
    return {"r": params.r.tolist(), "f": params.f.tolist(), "lambda": params.lam}


def plan_to_dict(plan: SqueezePlan) -> dict:
    """``params_to_dict``'s layout plus the combined squeeze g and the strategy."""
    sp = plan.params
    return {**params_to_dict(sp), "g": (sp.lam * (sp.r @ sp.channel.w) + sp.f).tolist(),
            "strategy": plan.strategy}


def solve_to_dict(result: SolveResult, units: str) -> dict:
    """The solve document, its capacities in ``units`` ("nats" or "bits")."""
    if units not in UNITS:
        raise ValidationError(f"unknown units {units!r}; expected one of {tuple(UNITS)}")
    scale = UNITS[units]
    return {
        "capacity": result.capacity / scale,
        "capacity_lower": result.capacity_lower / scale,
        "capacity_upper": result.capacity_upper / scale,
        "units": units,
        "p_hat": result.p_hat.probs.tolist(),
        "iterations": result.iterations,
        "converged": result.converged,
        "method": result.method,
        "params": params_to_dict(result.params),
    }


def rate_to_dict(result: SolveResult, report: RateReport, plain: RateReport) -> dict:
    """The rate document of ``report``, analysed at ``result``'s optimizer;
    ``plain`` is the plain iteration's report there, whose rate the overlap
    bound applies to."""
    return {
        "p_star": report.p_star.probs.tolist(),
        "R": [float(v) for v in report.R.ravel()],
        "global_rate": report.global_rate,
        "global_rate_power": report.global_rate_power,
        "rate_r0": report.rate_r0,
        "aba_lower_bound": report.aba_lower_bound,
        "shift_identity_residual": report.shift_identity_residual(),
        "gamma_spectrum": report.gamma_spectrum.tolist(),
        "method": result.method,
        "params": params_to_dict(result.params),
        "overlap_margin": plain.global_rate - plain.aba_lower_bound,
    }


def load_params_json(channel: ChannelMatrix, path) -> SqueezeParams:
    """Rebuild validated squeeze parameters for ``channel`` from a JSON file.

    The file's "lambda", when present, is cross-checked against the value
    implied by (r, f); a mismatch, or a lambda that is not a finite number,
    is an error rather than a silent pick.
    """
    path = Path(path)
    if not path.is_file():  # a directory too, which read_text would meet with IsADirectoryError
        raise ChannelFileError(f"params file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ChannelFileError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "r" not in doc or "f" not in doc:
        raise ChannelFileError(f'{path}: params JSON needs "r" and "f" keys')
    r = _json_floats(doc["r"], "r", path)
    f = _json_floats(doc["f"], "f", path)
    try:
        params = build_squeeze_params(channel, r, f)
    except SqueezeAbaError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    if doc.get("lambda") is not None:
        stated = _json_floats(doc["lambda"], "lambda", path)
        if stated.ndim or not np.isfinite(stated):
            raise ChannelFileError(f"{path}: stated lambda {stated} is not a finite number")
        stated = float(stated)
        if abs(stated - params.lam) > 1e-9 * max(1.0, abs(stated)):
            raise ChannelFileError(
                f"{path}: stated lambda {stated:.15g} is inconsistent with "
                f"(r, f), which imply {params.lam:.15g}"
            )
    return params


def trace_csv_rows(result: SolveResult):
    """Yield CSV lines for a solve trace: iter, objective, gap, bounds, p.

    The p columns are each record's own iterate, on Omega(r) for a floored
    method, so a floored trace does not end on ``p_hat``.
    Raises ValidationError on a result solved without a trace.
    """
    if not result.trace:
        raise ValidationError("the result holds no trace; solve with "
                              "SolverConfig(record_trace=True)")
    yield "iter,objective_nats,gap_nats,lower_nats,upper_nats," + \
        ",".join(f"p_{i + 1}" for i in range(result.p_hat.m))
    for rec in result.trace:
        cells = [str(rec.iter), f"{rec.objective:.17g}", f"{rec.gap:.17g}",
                 f"{rec.objective:.17g}", f"{rec.objective + rec.gap:.17g}"]
        cells.extend(f"{v:.17g}" for v in rec.p)
        yield ",".join(cells)


def write_trace_csv(result: SolveResult, path) -> None:
    """Write ``trace_csv_rows(result)`` to ``path``; an untraced result is
    refused before the file is created."""
    rows = trace_csv_rows(result)
    # next() runs the generator's trace check before the file is opened
    _write_lines(path, chain([next(rows)], rows))


def bench_csv_rows(config: BenchConfig, records):
    """CSV lines: replication_id, per-method counts, per-method log2 ratios."""
    others = [m for m in config.methods if m != "aba"]
    header = ["replication_id", "n_aba"]
    header += [f"n_{m}" for m in others]
    header += [f"log2_ratio_{m}" for m in others]
    yield ",".join(header)
    for rec in records:
        cells = [str(rec.replication_id), _cell(rec.iterations.get("aba"))]
        cells += [_cell(rec.iterations.get(m)) for m in others]
        cells += [_cell(rec.log2_ratios.get(m), fmt="{:.12g}") for m in others]
        yield ",".join(cells)


def _cell(value, fmt: str = "{}") -> str:
    return "" if value is None else fmt.format(value)


def write_bench_outputs(config: BenchConfig, records, summary, prefix: str) -> tuple[str, str]:
    """Write <prefix>.csv and <prefix>_summary.json; returns the two paths."""
    csv_path = f"{prefix}.csv"
    json_path = f"{prefix}_summary.json"
    _write_lines(csv_path, bench_csv_rows(config, records))
    write_json(json_path, summary)
    return csv_path, json_path


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def json_text(doc) -> str:
    """The package's one JSON text form: indent 2, sorted keys, a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path, doc) -> None:
    """Write ``json_text(doc)`` to ``path``: a file holds what standard output shows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(doc))
