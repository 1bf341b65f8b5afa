"""File formats: channel matrices (CSV or JSON) and squeeze parameters (JSON).

Channel CSV has one row per input letter, plain numbers, no header.
Channel JSON is ``{"matrix": [[...], ...]}``.  Squeeze parameters
serialize as ``{"r": [...], "f": [...], "lambda": x}``.  JSON fields hold
JSON numbers: a string or boolean where a number belongs makes the file
malformed (ChannelFileError naming the field), not a value to convert.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channel import ChannelMatrix, validate_channel
from .errors import ChannelFileError, SqueezeAbaError
from .squeeze import SqueezeParams, build_squeeze_params


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


def load_params_json(channel: ChannelMatrix, path) -> SqueezeParams:
    """Rebuild validated squeeze parameters for ``channel`` from a JSON file.

    The file's "lambda", when present, is cross-checked against the value
    implied by (r, f); a mismatch, or a lambda that is not a finite number,
    is an error rather than a silent pick.
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
    r = _json_floats(doc["r"], "r", path)
    f = _json_floats(doc["f"], "f", path)
    params = build_squeeze_params(channel, r, f)
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
