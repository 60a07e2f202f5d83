"""Each published schema refuses a document one constraint away from a real
writer output: the golden CLI documents pass, and each edit below breaks
exactly one rule of the schema."""

import copy
import json
from pathlib import Path

import jsonschema
import pytest

from collapsim.schemas import REPORT_SCHEMA, TRAJECTORY_SCHEMA, VERDICT_SCHEMA

GOLDEN = Path(__file__).parent / "golden"

DOCUMENTS = {"verdict/1": ("tau_trapped_json.txt", VERDICT_SCHEMA),
             "trajectory/1": ("evolve_gap_json.txt", TRAJECTORY_SCHEMA),
             "report/1": ("sweep_trapped_json.txt", REPORT_SCHEMA)}


def document(schema_id):
    name, schema = DOCUMENTS[schema_id]
    return json.loads((GOLDEN / name).read_text()), schema


def sample(doc):
    return doc["samples"][1]


def drop(key):
    return lambda d: d.pop(key)


def put(key, value):
    return lambda d: d.__setitem__(key, value)


EDITS = {
    "verdict/1": {
        "other-schema": put("schema", "verdict/2"),
        "extra-key": put("notes", "x"),
        "no-tau": drop("tau"),
        "no-derivation": drop("derivation"),
        "infinite-as-text": put("infinite", "true"),
        "unknown-regime": lambda d: d.update(regime="mixed"),
        "unknown-reason": lambda d: d.update(reason="unknown"),
        "tau-without-unit": lambda d: d["tau"].pop("unit"),
        "tau-extra-key": lambda d: d["tau"].update(digits=5),
        "tau-as-text": lambda d: d["tau"].update(value="inf"),
        "step-without-unit": lambda d: d["derivation"][0].pop("unit"),
        "step-extra-key": lambda d: d["derivation"][0].update(note=""),
        "step-value-null": lambda d: d["derivation"][0].update(value=None),
    },
    "trajectory/1": {
        "other-schema": put("schema", "trajectory/2"),
        "extra-key": put("stride", 16),
        "no-pair": drop("pair"),
        "no-samples": drop("samples"),
        "empty-basis": put("basis", []),
        "numbered-basis": put("basis", ["here", 1]),
        "pair-of-one": put("pair", ["here"]),
        "pair-of-three": put("pair", ["here", "there", "here"]),
        "re-only-entry": lambda d: sample(d)["rho"][0].__setitem__(
            1, sample(d)["rho"][0][1][:1]),
        "three-part-entry": lambda d: sample(d)["rho"][0][1].append(0.0),
        "text-entry": lambda d: sample(d)["rho"][0][1].__setitem__(0, "0.5"),
        "sample-without-time": lambda d: sample(d).pop("time"),
        "sample-without-rho": lambda d: sample(d).pop("rho"),
        "sample-without-visibility": lambda d: sample(d).pop("visibility"),
        "sample-without-min-eigenvalue":
            lambda d: sample(d).pop("min_eigenvalue"),
        "drift-as-text": lambda d: sample(d).update(trace_drift="0"),
        "time-without-unit": lambda d: sample(d)["time"].pop("unit"),
    },
    "report/1": {
        "other-schema": put("schema", "report/2"),
        "extra-key": put("grid", 7),
        "no-rows": drop("rows"),
        "no-critical-value": drop("critical_value"),
        "unknown-scenario": put("scenario", "tabletop"),
        "axis-as-number": put("axis", 1),
        "critical-value-as-number": put("critical_value", 3.97e-24),
        "row-without-tau": lambda d: d["rows"][0].pop("tau"),
        "row-without-unit": lambda d: d["rows"][0].pop("unit"),
        "row-without-regime": lambda d: d["rows"][0].pop("regime"),
        "row-value-as-text": lambda d: d["rows"][0].update(value="1"),
        "row-unknown-regime": lambda d: d["rows"][0].update(regime="mixed"),
        "row-digest-as-number": lambda d: d["rows"][0].update(digest=1),
    },
}


@pytest.mark.parametrize("schema_id", sorted(DOCUMENTS))
def test_writer_output_is_accepted(schema_id):
    jsonschema.validate(*document(schema_id))


@pytest.mark.parametrize("schema_id, edit", [
    pytest.param(schema_id, edit, id=f"{schema_id}-{name}")
    for schema_id, edits in EDITS.items() for name, edit in edits.items()])
def test_one_constraint_away_is_refused(schema_id, edit):
    doc, schema = document(schema_id)
    broken = copy.deepcopy(doc)
    edit(broken)
    assert broken != doc
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(broken, schema)
