"""Rewrite reference.json: the output fingerprints of one pass at the default seed.

    python3 perfbench/make_reference.py

Run from the repository root after a change that is meant to alter outputs.
Ops that fail get no entry, so their outputs are not compared until a later
rewrite records them.
"""

import importlib
import json
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import outputs  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    cli = importlib.import_module("cqpolar.cli")
    schemas = outputs.Schemas(run.SRC / "cqpolar" / "schemas")
    reference = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, workloads.DEFAULT_SEED, run.OUT / name)
        workloads.setup(workload, cli)
        results = workloads.Runner(cli, workload, schemas).run_pass()
        reference[name] = {r.key: r.fingerprint for r in results if not r.error}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
