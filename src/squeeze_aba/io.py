"""File formats: channel matrices (CSV or JSON) and squeeze parameters (JSON).

Channel CSV has one row per input letter, plain numbers, no header.
Channel JSON is ``{"matrix": [[...], ...]}``.  Squeeze parameters
serialize as ``{"r": [...], "f": [...], "lambda": x}``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channel import ChannelMatrix, validate_channel
from .errors import ChannelFileError, SqueezeAbaError
from .squeeze import SqueezeParams, build_squeeze_params


def load_channel(path, *, tolerance: float = 1e-9,
                 drop_zero_columns: bool = False) -> ChannelMatrix:
    """Read and validate a channel matrix from a CSV or JSON file."""
    path = Path(path)
    if not path.exists():
        raise ChannelFileError(f"channel file not found: {path}")
    text = path.read_text(encoding="utf-8").strip()
    if not text:
        raise ChannelFileError(f"channel file is empty: {path}")
    try:
        if path.suffix.lower() == ".json" or text.startswith("{"):
            doc = json.loads(text)
            if not isinstance(doc, dict) or "matrix" not in doc:
                raise ChannelFileError(f'{path}: JSON channel needs a "matrix" key')
            entries = np.asarray(doc["matrix"], dtype=float)
        else:
            rows = [line for line in text.splitlines() if line.strip()]
            entries = np.asarray([[float(cell) for cell in line.split(",")] for line in rows])
    except ChannelFileError:
        raise
    except (ValueError, json.JSONDecodeError) as exc:
        raise ChannelFileError(f"{path}: could not parse channel matrix: {exc}") from exc
    try:
        return validate_channel(entries, tolerance, drop_zero_columns=drop_zero_columns)
    except SqueezeAbaError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def params_to_dict(params: SqueezeParams) -> dict:
    return {"r": params.r.tolist(), "f": params.f.tolist(), "lambda": params.lam}


def save_params_json(params: SqueezeParams, path) -> None:
    Path(path).write_text(json.dumps(params_to_dict(params), indent=2) + "\n",
                          encoding="utf-8")


def load_params_json(channel: ChannelMatrix, path) -> SqueezeParams:
    """Rebuild validated squeeze parameters for ``channel`` from a JSON file.

    The file's "lambda", when present, is cross-checked against the value
    implied by (r, f); a mismatch is an error rather than a silent pick.
    """
    path = Path(path)
    if not path.exists():
        raise ChannelFileError(f"params file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ChannelFileError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "r" not in doc or "f" not in doc:
        raise ChannelFileError(f'{path}: params JSON needs "r" and "f" keys')
    params = build_squeeze_params(channel, np.asarray(doc["r"], dtype=float),
                                  np.asarray(doc["f"], dtype=float))
    if "lambda" in doc and doc["lambda"] is not None:
        stated = float(doc["lambda"])
        if abs(stated - params.lam) > 1e-9 * max(1.0, abs(stated)):
            raise ChannelFileError(
                f"{path}: stated lambda {stated:.15g} is inconsistent with "
                f"(r, f), which imply {params.lam:.15g}"
            )
    return params
