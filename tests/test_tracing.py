"""The benchmark tracer still finds every name it wraps, and puts each one back.

``perfbench/tracing.py`` wraps functions and methods of the package from the
outside, by name, and some of its callbacks read their positional arguments.
A refactor that moves or deletes one of those names, or reorders those
arguments, fails here instead of in a traced benchmark run.
"""

import importlib.util
import math
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _package_attributes() -> dict:
    """Every attribute of every loaded cqpolar module and of the classes it defines."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "cqpolar" or name.startswith("cqpolar.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    out[(name, attr, member)] = inner
    return out


def _changed(before: dict, after: dict) -> set:
    return {key for key in before.keys() | after.keys() if before.get(key) is not after.get(key)}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_install_wraps_and_uninstall_restores():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    import cqpolar.cli  # noqa: F401 -- load every module install() imports first

    before = _package_attributes()
    try:
        tracing.install(tracer)
        patched = _changed(before, _package_attributes())
        assert tracer._patches and patched
        for owner, attr, original in tracer._patches:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    assert not _changed(before, _package_attributes())


def test_traced_pass_runs_every_callback_and_yields_finite_metrics(tmp_path):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    from cqpolar import cli

    tracing.install(tracer)
    try:
        tracer.begin_pass()
        assert cli.main([
            "verify", "--checks", "mixture-fidelity-subadditive,pgm-error-bound",
            "--trials", "1", "--out", str(tmp_path / "v.jsonl"),
        ]) == 0
        assert cli.main([
            "polarize", "--preset", "pure-states", "--angles", "0,0.9", "--n", "1",
            "--out", str(tmp_path / "s.csv"),
        ]) == 0
        tracer.end_pass()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    assert metrics["linalg.fidelity_calls"] > 0
    assert metrics["linalg.pgm_calls"] > 0
    assert metrics["linalg.max_dim"] > 0  # the fidelity and PGM callbacks read their arguments
    assert metrics["polarize.transform_calls"] == 2
