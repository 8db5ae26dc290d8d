"""JSON (de)serialization for matrices, states, and channels.

Complex matrices serialize as nested arrays of [re, im] pairs:

    {"dim": 2, "matrix": [[[1,0],[0,0]],[[0,0],[0,0]]]}

Channels use the block schema

    {"dim": n, "basis": matrix-or-"identity",
     "blocks": [{"dA": int, "dB": int, "tau": matrix}, ...]}

or a named shortcut such as {"kind": "dephaser", "dim": 2}.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import Block, DestructionChannel, standard_channel
from .errors import ParseError
from .linalg import check_density

INF_TOKEN = "inf"

# The fields each named kind takes besides "kind"; any other is a parse error.
KIND_FIELDS = {
    "dephaser": {"dim", "basis"}, "replacer": {"gamma"}, "depolarizer": {"dim"},
    "cond_depolarizer": {"d_a", "d_b"}, "cond_replacer": {"gamma", "d_b"},
    "tpce": {"shape", "basis"},
}


def _check_fields(data: dict, allowed: set, what: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ParseError(f"{what} does not take field(s) {', '.join(map(repr, unknown))}")


def _dim(value, what: str) -> int:
    """A JSON dimension field: a positive int or integral float, not a bool or a string."""
    if not (type(value) is int or (type(value) is float and value.is_integer())) or value < 1:
        raise ParseError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def matrix_to_json(m: np.ndarray) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def matrix_from_json(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"matrix payload is not numeric: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ParseError(
            f"matrix payload must be square nested [re, im] pairs, got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def state_to_json(rho: np.ndarray) -> dict:
    return {"dim": int(rho.shape[0]), "matrix": matrix_to_json(rho)}


def state_from_json(data: dict) -> np.ndarray:
    if not isinstance(data, dict) or "matrix" not in data:
        raise ParseError("state JSON must be an object with a 'matrix' field")
    m = matrix_from_json(data["matrix"])
    if "dim" in data and _dim(data["dim"], "state 'dim'") != m.shape[0]:
        raise ParseError("state 'dim' does not match the matrix size")
    return check_density(m)


def channel_to_json(ch: DestructionChannel) -> dict:
    return {
        "dim": ch.dim,
        "basis": "identity" if ch._identity_basis else matrix_to_json(ch.basis),
        "blocks": [
            {"dA": b.d_a, "dB": b.d_b, "tau": matrix_to_json(b.tau)} for b in ch.blocks
        ],
    }


def channel_from_json(data: dict) -> DestructionChannel:
    if not isinstance(data, dict):
        raise ParseError("channel JSON must be an object")
    if "kind" in data:
        if not isinstance(data["kind"], str):
            raise ParseError(f"channel 'kind' must be a string, got {data['kind']!r}")
        params = {k: v for k, v in data.items() if k != "kind"}
        if data["kind"] in KIND_FIELDS:
            _check_fields(params, KIND_FIELDS[data["kind"]], f"channel kind {data['kind']!r}")
        for key in ("dim", "d_a", "d_b"):
            if key in params:
                params[key] = _dim(params[key], f"channel {key!r}")
        if "gamma" in params:
            params["gamma"] = matrix_from_json(params["gamma"])
        if "basis" in params:
            basis = params["basis"]
            params["basis"] = None if basis == "identity" else matrix_from_json(basis)
        if "shape" in params:
            shape = params["shape"]
            if not isinstance(shape, list) or any(
                not isinstance(p, list) or len(p) != 2 for p in shape
            ):
                raise ParseError("channel 'shape' must be a list of [d_A, d_B] pairs")
            params["shape"] = [(_dim(a, "block d_A"), _dim(b, "block d_B")) for a, b in shape]
        return standard_channel(data["kind"], **params)
    _check_fields(data, {"dim", "basis", "blocks"}, "a block-schema channel")
    for key in ("dim", "blocks"):
        if key not in data:
            raise ParseError(f"channel JSON missing field {key!r}")
    dim = _dim(data["dim"], "channel 'dim'")
    basis = data.get("basis", "identity")
    u = np.eye(dim, dtype=complex) if basis == "identity" else matrix_from_json(basis)
    if not isinstance(data["blocks"], list) or not all(isinstance(b, dict) for b in data["blocks"]):
        raise ParseError("channel 'blocks' must be a list of objects")
    blocks = []
    for item in data["blocks"]:
        _check_fields(item, {"dA", "dB", "tau"}, "a channel block")
        try:
            blocks.append(
                Block(_dim(item["dA"], "block 'dA'"), _dim(item["dB"], "block 'dB'"),
                      matrix_from_json(item["tau"]))
            )
        except KeyError as exc:
            raise ParseError(f"channel block missing field {exc}") from exc
    return DestructionChannel(dim, u, tuple(blocks))


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def dump_json(data, path: str | None = None) -> str:
    """Deterministic JSON emission; +-inf becomes the string "inf"."""

    def default(o):
        if isinstance(o, np.ndarray):
            return matrix_to_json(o)
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"cannot serialize {type(o)}")

    def sanitize(o):
        if isinstance(o, float) and np.isinf(o):
            return INF_TOKEN if o > 0 else "-" + INF_TOKEN
        if isinstance(o, dict):
            return {k: sanitize(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [sanitize(v) for v in o]
        return o

    text = json.dumps(sanitize(data), indent=2, sort_keys=True, default=default)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
