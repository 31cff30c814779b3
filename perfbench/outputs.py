"""Checks on the outputs of each benchmarked CLI call.

An output is accepted only if it validates against its JSON schema from
``src/cqpolar/schemas`` and passes the command's own invariants.  Each check
also returns a fingerprint: the values that must agree between the preset and
file runs of one channel, and with ``reference.json`` at the default seed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

# Largest difference in any information or fidelity value that counts as
# agreement.  Measured: one random Z4 channel run through the pure-mixture
# path (preset) and the dense path (file) differs by at most 7.8e-9 over
# benchmark seeds 0-59, so a tolerance near machine precision would flag a
# non-defect; 1e-7 leaves head-room for that path switch.
AGREE_TOL = 1e-7

# Largest |sum_s I(W^s) - 2^n I(W)| accepted, in nats.  Measured defects are
# at most 1.6e-13 (BSC n=6) over the benchmark's polarize calls.
CONSERVATION_TOL = 1e-10


class OutputError(Exception):
    """An output failed a check."""


class Schemas:
    """The CLI's JSON schemas, with the cross-file references resolved."""

    def __init__(self, schema_dir: Path):
        from referencing import Registry, Resource

        docs = {p.name: json.loads(p.read_text()) for p in sorted(schema_dir.glob("*.json"))}
        self.registry = Registry().with_resources(
            (name, Resource.from_contents(doc)) for name, doc in docs.items()
        )
        self.docs = docs

    def validate(self, payload, name: str) -> None:
        import jsonschema

        try:
            jsonschema.validate(payload, self.docs[name], registry=self.registry)
        except jsonschema.ValidationError as exc:
            raise OutputError(f"{name}: {exc.message}") from None


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise OutputError(f"cannot read {path.name}: {exc}") from None


def check_polarize(schemas: Schemas, out: Path, n: int) -> dict:
    payload = _load_json(out.with_name(out.name + ".json"))
    schemas.validate(payload, "scan.schema.json")
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    records = payload["records"]
    if len(rows) != 1 << n or len(records) != 1 << n:
        raise OutputError(f"expected {1 << n} branches, got {len(rows)} rows")
    defect = abs(sum(r["I"] for r in records) - (1 << n) * payload["base_I"])
    if defect > CONSERVATION_TOL:
        raise OutputError(f"information not conserved: defect {defect:.3e}")
    return {
        "base_I": payload["base_I"],
        "records": [
            [r["branch"], r["I"], r["F"], r["Fmax"], r["I_quot"], r["F_quot"],
             sorted(r["fd"].values()), [[q["I"], q["F"]] for q in r["quotients"]]]
            for r in records
        ],
    }


def check_construct(schemas: Schemas, out: Path) -> dict:
    payload = _load_json(out)
    schemas.validate(payload, "plan.schema.json")
    return {
        "rate": payload["rate"],
        "bound": payload["bound"],
        "decisions": [
            [d["branch"], d["subgroup"], d["in_selected_set"], d["quot_F"]]
            for d in payload["decisions"]
        ],
    }


def check_decode(schemas: Schemas, out: Path, trials: int) -> tuple:
    """The fingerprint, and whether the report claims the plan's bound holds."""
    payload = _load_json(out)
    schemas.validate(payload, "decode_report.schema.json")
    if payload["trials"] != trials or not 0 <= payload["errors"] <= trials:
        raise OutputError("report does not account for the requested trials")
    if "bound_holds_within_3sigma" not in payload:
        raise OutputError("report lacks bound_holds_within_3sigma")
    # block_error stays out of the fingerprint: fixing the decoder's
    # section-map defect changes it; the bound claim is counted instead
    fingerprint = {
        "trials": payload["trials"],
        "bound": payload["bound"],
        "rate_nats": payload["rate_nats"],
        "step_branches": payload["step_branches"],
    }
    return fingerprint, payload["bound_holds_within_3sigma"]


def check_verify(schemas: Schemas, out: Path) -> dict:
    try:
        lines = out.read_text().splitlines()
    except OSError as exc:
        raise OutputError(f"cannot read {out.name}: {exc}") from None
    failures = 0
    for line in lines:
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise OutputError(f"bad JSONL line: {exc}") from None
        schemas.validate(row, "verify_line.schema.json")
        failures += not row["passed"]
    if not lines:
        raise OutputError("no check reports")
    return {"instances": len(lines), "failures": failures}


def check_mac(schemas: Schemas, out: Path) -> dict:
    payload = _load_json(out)
    schemas.validate(payload, "mac_region.schema.json")
    return {
        "sum_rate": payload["sum_rate"],
        "region": payload["region"]["constraints"],
        "estimates": {n: e["constraints"] for n, e in payload["polarized_estimates"].items()},
    }


def difference(a, b, path: str = "") -> str | None:
    """Where two fingerprints disagree, or None; floats agree within AGREE_TOL."""
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return None if a == b else f"{path or 'value'}: {a!r} != {b!r}"
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return None if abs(a - b) <= AGREE_TOL else f"{path or 'value'}: {a!r} != {b!r}"
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            return f"{path or 'value'}: keys differ"
        for key in sorted(a):
            hit = difference(a[key], b[key], f"{path}.{key}")
            if hit:
                return hit
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path or 'value'}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            hit = difference(x, y, f"{path}[{i}]")
            if hit:
                return hit
        return None
    return f"{path or 'value'}: {type(a).__name__} != {type(b).__name__}"
