"""Published JSON Schemas for the serialized outputs.

Schema ids: verdict/1 (discrimination verdicts), trajectory/1 (evolution
samples), report/1 (boundary sweeps).
Every numeric field that carries a physical scale is paired with a unit
string.
"""

from __future__ import annotations

from .boundary import REPORT_SCHEMA_ID, Scenario
from .discrimination import VERDICT_SCHEMA_ID, Reason, Regime
from .evolution import TRAJECTORY_SCHEMA_ID

_REGIME = {"enum": [r.value for r in Regime]}

_QUANTITY = {
    "type": "object",
    "properties": {
        "value": {"type": ["number", "null"]},
        "unit": {"type": "string"},
    },
    "required": ["value", "unit"],
    "additionalProperties": False,
}

_COMPLEX_MATRIX = {
    "type": "array",
    "items": {
        "type": "array",
        "items": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
    },
}

_BASIS = {"type": "array", "items": {"type": "string"}, "minItems": 1}

VERDICT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": VERDICT_SCHEMA_ID,
    "type": "object",
    "properties": {
        "schema": {"const": VERDICT_SCHEMA_ID},
        "infinite": {"type": "boolean"},
        "tau": _QUANTITY,
        "regime": _REGIME,
        "reason": {"enum": [r.value for r in Reason]},
        "derivation": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "symbol": {"type": "string"},
                    "value": {"type": "number"},
                    "unit": {"type": "string"},
                },
                "required": ["symbol", "value", "unit"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["schema", "infinite", "tau", "regime", "reason", "derivation"],
    "additionalProperties": False,
}

TRAJECTORY_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": TRAJECTORY_SCHEMA_ID,
    "type": "object",
    "properties": {
        "schema": {"const": TRAJECTORY_SCHEMA_ID},
        "basis": _BASIS,
        "pair": {"type": "array", "items": {"type": "string"},
                 "minItems": 2, "maxItems": 2},
        "samples": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "time": _QUANTITY,
                    "rho": _COMPLEX_MATRIX,
                    "visibility": {"type": "number"},
                    "min_eigenvalue": {"type": "number"},
                    "trace_drift": {"type": "number"},
                },
                "required": ["time", "rho", "visibility", "min_eigenvalue"],
            },
        },
    },
    "required": ["schema", "basis", "pair", "samples"],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": REPORT_SCHEMA_ID,
    "type": "object",
    "properties": {
        "schema": {"const": REPORT_SCHEMA_ID},
        "scenario": {"enum": [s.value for s in Scenario]},
        "axis": {"type": "string"},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "value": {"type": "number"},
                    "unit": {"type": "string"},
                    "tau": _QUANTITY,
                    "regime": _REGIME,
                    "digest": {"type": "string"},
                },
                "required": ["value", "unit", "tau", "regime"],
            },
        },
        "critical_value": {
            "oneOf": [{"type": "null"}, _QUANTITY],
        },
    },
    "required": ["schema", "scenario", "axis", "rows", "critical_value"],
    "additionalProperties": False,
}
