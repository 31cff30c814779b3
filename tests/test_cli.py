import csv
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCHEMA_DIR = Path(__file__).parent.parent / "src" / "cqpolar" / "schemas"


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "cqpolar.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def validate_schema(payload, schema_name):
    import jsonschema
    from referencing import Registry, Resource

    resources = []
    for path in SCHEMA_DIR.glob("*.json"):
        doc = json.loads(path.read_text())
        resources.append((path.name, Resource.from_contents(doc)))
    registry = Registry().with_resources(resources)
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validate(payload, schema, registry=registry)


def test_channel_validate_rejects_bad_matrix(tmp_path):
    bad = {
        "group": [2],
        "k": 2,
        "states": {
            "(0)": {"re": [[1, 0], [0, 0]]},
            "(1)": {"re": [[1.4, 0], [0, -0.4]]},
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    res = run_cli("channel", "validate", str(path))
    assert res.returncode == 1
    assert "(1)" in res.stderr  # names the offending input symbol


@pytest.mark.parametrize(
    "branch",
    [{"w": 1.0, "re": [[float("nan"), 0], [0, 1]]},
     {"w": 1.0, "re": [[0.5, 0], [0, 0.5]], "im": [[0, float("inf")], [float("-inf"), 0]]},
     {"w": float("nan"), "re": [[1, 0], [0, 0]]}],
    ids=["nan-re", "inf-im", "nan-weight"],
)
def test_channel_validate_rejects_non_finite_numbers(tmp_path, branch):
    # NaN compares false, so it once passed every tolerance check and printed ok
    ok = {"w": 1.0, "re": [[1, 0], [0, 0]]}
    branches = [branch] if branch["w"] == 1.0 else [branch, dict(ok, label="b")]
    channel = {"group": [2], "k": 2,
               "states": {"(0)": {"re": [[1, 0], [0, 0]]}, "(1)": {"branches": branches}}}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(channel))
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    res = run_cli("channel", "validate", str(path))
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: input (1): branch 0 "), res.stderr
    assert "finite" in res.stderr


def test_channel_validate_refuses_what_the_table_engine_refuses(tmp_path):
    # input 0's branch weights sum within the 1e-7 a HybridState allows, but a
    # diagonal channel's likelihood row must sum to 1 within 1e-8
    ket0 = {"re": [[1, 0], [0, 0]]}
    channel = {"group": [2], "k": 2, "states": {
        "(0)": {"branches": [dict(ket0, w=0.50000005, label="a"), dict(ket0, w=0.5, label="b")]},
        "(1)": {"re": [[0, 0], [0, 1]]}}}
    path = tmp_path / "off.json"
    path.write_text(json.dumps(channel))
    scan = ("polarize", "--channel", str(path), "--n", "1", "--out", str(tmp_path / "s.csv"))
    for args in (("channel", "validate", str(path)), scan):
        res = run_cli(*args)
        assert res.returncode == 1
        assert re.search(r"input \(0,\) sums to 1\.00000005", res.stderr), res.stderr


def test_channel_validate_refuses_a_hybrid_file_whose_weights_miss_one(tmp_path):
    # two labels per input, weights 0.5 + 5e-8 and 0.5: a HybridState allows the
    # sum, but its transforms compound the defect, so the file is refused at
    # load, naming the input, before any scan
    ket = {"0": [[1, 0], [0, 0]], "1": [[0, 0], [0, 1]],
           "+": [[0.5, 0.5], [0.5, 0.5]], "-": [[0.5, -0.5], [-0.5, 0.5]]}
    states = {f"({x})": {"branches": [{"w": 0.5 + 5e-8, "label": "z", "re": ket[z]},
                                      {"w": 0.5, "label": "x", "re": ket[p]}]}
              for x, z, p in [(0, "0", "+"), (1, "1", "-")]}
    path = tmp_path / "hybrid.json"
    path.write_text(json.dumps({"group": [2], "k": 2, "states": states}))
    scan = ("polarize", "--channel", str(path), "--n", "1", "--out", str(tmp_path / "s.csv"))
    for args in (("channel", "validate", str(path)), scan):
        res = run_cli(*args)
        assert res.returncode == 1
        assert re.search(r"input \(0,\) sums to 1\.0000000500", res.stderr), res.stderr


def test_classical_preset_refuses_a_flip_with_no_symbol_to_flip_to(tmp_path):
    # q = 1 has no second symbol, so p > 0 left a likelihood row summing to 1 - p
    out = tmp_path / "ch.json"
    base = ("channel", "preset", "--preset", "classical-symmetric", "--q", "1")
    res = run_cli(*base, "--p", "0.1", "--out", str(out))
    assert res.returncode == 1 and not out.exists()
    assert "q = 1" in res.stderr and "p = 0.1" in res.stderr, res.stderr
    assert run_cli(*base, "--p", "0", "--out", str(out)).returncode == 0
    assert run_cli("channel", "validate", str(out)).returncode == 0


def test_channel_preset_and_validate(tmp_path):
    out = tmp_path / "ch.json"
    res = run_cli(
        "channel", "preset", "--preset", "classical-symmetric", "--q", "3",
        "--p", "0.2", "--out", str(out),
    )
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    validate_schema(payload, "channel.schema.json")
    assert run_cli("channel", "validate", str(out)).returncode == 0


def test_polarize_csv_and_sidecar(tmp_path):
    out = tmp_path / "scan.csv"
    res = run_cli(
        "polarize", "--preset", "classical-symmetric", "--q", "2", "--p", "0.11",
        "--n", "3", "--out", str(out),
    )
    assert res.returncode == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 8
    assert list(rows[0]) == ["branch", "I", "Fmax", "F", "best_H", "I_quot", "F_quot"]
    payload = json.loads((tmp_path / "scan.csv.json").read_text())
    validate_schema(payload, "scan.schema.json")
    total = sum(float(r["I"]) for r in rows)
    assert total == pytest.approx(8 * payload["base_I"], abs=1e-8)


def test_polarize_bits_flag(tmp_path):
    out_n = tmp_path / "n.csv"
    out_b = tmp_path / "b.csv"
    for out, units in [(out_n, "nats"), (out_b, "bits")]:
        assert run_cli(
            "polarize", "--preset", "classical-symmetric", "--q", "2", "--p", "0.11",
            "--n", "1", "--out", str(out), "--units", units,
        ).returncode == 0
    nats = list(csv.DictReader(out_n.open()))
    bits = list(csv.DictReader(out_b.open()))
    for a, b in zip(nats, bits):
        assert float(b["I"]) == pytest.approx(float(a["I"]) / np.log(2), abs=1e-9)


def test_construct_decode_roundtrip(tmp_path):
    plan = tmp_path / "plan.json"
    res = run_cli(
        "construct", "--preset", "pure-states", "--angles", "0,1.0471975511965976",
        "--n", "2", "--tau", "0.5", "--seed", "3", "--out", str(plan),
    )
    assert res.returncode == 0
    payload = json.loads(plan.read_text())
    validate_schema(payload, "plan.schema.json")
    report = tmp_path / "decode.json"
    prof = tmp_path / "prof.csv"
    res = run_cli(
        "decode-sim", "--plan", str(plan), "--trials", "100", "--seed", "5",
        "--out", str(report), "--profile-csv", str(prof),
    )
    assert res.returncode == 0
    payload = json.loads(report.read_text())
    validate_schema(payload, "decode_report.schema.json")
    assert payload["trials"] == 100
    assert prof.exists()


def test_decode_sim_deterministic_modulo_timestamp(tmp_path):
    plan = tmp_path / "plan.json"
    run_cli(
        "construct", "--preset", "pure-states", "--angles", "0,1.2",
        "--n", "1", "--tau", "1.0", "--seed", "2", "--out", str(plan),
    )
    out = tmp_path / "report.json"
    outs = []
    for _ in range(2):
        assert run_cli(
            "decode-sim", "--plan", str(plan), "--trials", "60", "--seed", "9",
            "--out", str(out),
        ).returncode == 0
        payload = json.loads(out.read_text())
        payload["manifest"].pop("timestamp")
        payload["manifest"].pop("wallclock_s")
        outs.append(payload)
    assert outs[0] == outs[1]


def test_verify_jsonl(tmp_path):
    out = tmp_path / "verify.jsonl"
    res = run_cli(
        "verify", "--checks", "info-fidelity-lower,sequential-union-bound",
        "--trials", "4", "--seed", "1", "--out", str(out),
    )
    assert res.returncode == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines
    for line in lines:
        validate_schema(line, "verify_line.schema.json")
        assert line["passed"]
    # byte-identical on rerun (JSONL has no timestamps)
    first = out.read_text()
    run_cli(
        "verify", "--checks", "info-fidelity-lower,sequential-union-bound",
        "--trials", "4", "--seed", "1", "--out", str(out),
    )
    assert out.read_text() == first


def test_verify_unknown_check_exits_validation(tmp_path):
    res = run_cli("verify", "--checks", "bogus", "--out", str(tmp_path / "v.jsonl"))
    assert res.returncode == 1


def test_capacity_exit_code(tmp_path):
    res = run_cli(
        "polarize", "--preset", "pure-states", "--angles", "0,0.8",
        "--n", "7", "--out", str(tmp_path / "scan.csv"),
        env={"CQPOLAR_DIM_CAP": "64"},
    )
    assert res.returncode == 2
    assert "capacity" in res.stderr.lower()


@pytest.mark.parametrize("cap", ["-3", "0", "four"])
def test_a_dim_cap_setting_below_1_is_refused_when_read(tmp_path, capsys, monkeypatch, cap):
    # a cap below 1 once let every transform fail with "quantum dimension 4
    # exceeds cap -3", which blamed the transform instead of the setting
    monkeypatch.setenv("CQPOLAR_DIM_CAP", cap)
    out = tmp_path / "scan.csv"
    code, err = _main(capsys, "polarize", "--preset", "pure-states", "--angles", "0,0.9",
                      "--n", "1", "--out", str(out))
    assert code == 2
    assert err == f"capacity error: CQPOLAR_DIM_CAP must be an integer >= 1, got {cap!r}\n"
    assert not out.exists()


def test_capacity_error_names_branch_and_depth(tmp_path):
    res = run_cli(
        "polarize", "--preset", "pure-states", "--angles", "0,0.9",
        "--n", "4", "--out", str(tmp_path / "scan.csv"),
    )
    assert res.returncode == 2
    assert "branch ---- at depth 4" in res.stderr


def test_decode_sim_plan_with_frozen_and_info_slots(tmp_path):
    plan = tmp_path / "plan.json"
    assert run_cli(
        "construct", "--preset", "classical-symmetric", "--q", "2", "--p", "0.05",
        "--n", "4", "--tau", "1e-3", "--seed", "3", "--out", str(plan),
    ).returncode == 0
    frozen = [d["info_nats"] == 0.0 for d in json.loads(plan.read_text())["decisions"]]
    assert any(frozen) and not all(frozen)
    report = tmp_path / "decode.json"
    res = run_cli(
        "decode-sim", "--plan", str(plan), "--trials", "200", "--seed", "4",
        "--out", str(report),
    )
    assert res.returncode == 0, res.stderr
    payload = json.loads(report.read_text())
    validate_schema(payload, "decode_report.schema.json")
    assert payload["bound_holds_within_3sigma"]


@pytest.fixture(scope="module")
def z4_plan(tmp_path_factory):
    """A Z4 plan whose first decision lifts the cosets of {0, 2} through (2, 1)."""
    path = tmp_path_factory.mktemp("z4") / "plan.json"
    assert run_cli(
        "construct", "--preset", "classical-symmetric", "--q", "4", "--p", "0.1",
        "--n", "2", "--tau", "0.5", "--out", str(path),
    ).returncode == 0
    plan = json.loads(path.read_text())
    plan["decisions"][0].update(subgroup=[0, 2], section={"0": 2, "1": 1}, info_nats=np.log(2))
    plan["rate"] = sum(d["info_nats"] for d in plan["decisions"]) / len(plan["decisions"])
    return plan


def _inflate_info(plan):
    for d in plan["decisions"]:
        d["info_nats"] = 5.0
    plan["rate"] = 5.0


@pytest.mark.parametrize(
    "edit, message",
    [
        (_inflate_info, "plan decision 0: info_nats 5.0 is not log(q/|H|) = 0.69314"),
        (lambda p: p.update(rate=p["rate"] + 1e-6), "plan: rate "),
        (lambda p: p.update(bound=p["bound"] * 2), "plan: bound "),
        (lambda p: p["decisions"][1].update(quot_F=0.0), "plan: bound "),
    ],
    ids=["info-nats", "rate", "bound", "quot-F"],
)
def test_decode_sim_refuses_an_inconsistent_plan(tmp_path, z4_plan, edit, message):
    plan = json.loads(json.dumps(z4_plan))
    edit(plan)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    res = run_cli(
        "decode-sim", "--plan", str(path), "--trials", "5", "--out", str(tmp_path / "r.json")
    )
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: " + message), res.stderr
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "change",
    [
        {},
        {"subgroup": [0, 1]},  # not closed under addition
        {"subgroup": [0, 5]},  # an index outside the group
        {"section": {"0": 2, "1": 1, "3": 3}},  # an extra coset key
        {"section": {"0": 2, "3": 1}},  # a key that is not the representative
        {"section": {"0": 2}},  # a missing coset
        {"section": {"0": 2, "1": 5}},  # a value outside the group
    ],
    ids=["valid", "non-subgroup", "subgroup-range", "extra-key", "non-canonical-key",
         "missing-coset", "value-range"],
)
def test_decode_sim_rejects_invalid_plan_decisions(tmp_path, z4_plan, change):
    plan = json.loads(json.dumps(z4_plan))
    plan["decisions"][0].update(change)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    res = run_cli(
        "decode-sim", "--plan", str(path), "--trials", "5", "--out", str(tmp_path / "r.json")
    )
    if not change:
        assert res.returncode == 0, res.stderr
        return
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: plan decision 0:"), res.stderr


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_decode_sim_refuses_a_non_positive_trial_count(tmp_path, z4_plan, trials):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(z4_plan))
    res = run_cli(
        "decode-sim", "--plan", str(path), "--trials", trials, "--out", str(tmp_path / "r.json")
    )
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: an experiment needs at least one trial"), (
        res.stderr
    )
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "change",
    [
        {"section": {"0": 2.7, "1": 1}},  # a float value, once truncated to 2
        {"section": {"0": "x", "1": 1}},  # a string value
        {"section": {"0": 2, "1": True}},  # a JSON boolean, once read as 1
        {"subgroup": [0.0, 2.0]},  # float subgroup entries
    ],
    ids=["float-value", "string-value", "bool-value", "float-subgroup"],
)
def test_decode_sim_rejects_non_integer_plan_entries(tmp_path, z4_plan, change):
    plan = json.loads(json.dumps(z4_plan))
    plan["decisions"][0].update(change)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    res = run_cli(
        "decode-sim", "--plan", str(path), "--trials", "5", "--out", str(tmp_path / "r.json")
    )
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: plan decision 0:"), res.stderr
    assert "must be integers" in res.stderr


def test_decode_sim_rejects_plan_decision_without_section(tmp_path, z4_plan):
    plan = json.loads(json.dumps(z4_plan))
    del plan["decisions"][0]["section"]
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    res = run_cli(
        "decode-sim", "--plan", str(path), "--trials", "5", "--out", str(tmp_path / "r.json")
    )
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: plan decision 0: missing section"), res.stderr


@pytest.mark.parametrize("subgroup", [[0, 2], [0]], ids=["non-subgroup", "trivial"])
def test_oversized_group_field_is_validation_error(tmp_path, z4_plan, subgroup):
    """A file naming a group of order 90000 fails validation without q x q tables."""
    channel = {"group": [300, 300], "k": 2, "states": {"(0,0)": {"re": [[1, 0], [0, 0]]}}}
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(channel))
    res = run_cli("channel", "validate", str(path))
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: channel does not define inputs"), res.stderr
    plan = json.loads(json.dumps(z4_plan))
    plan["group"] = [300, 300]
    plan["decisions"][0]["subgroup"] = subgroup
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    res = run_cli(
        "decode-sim", "--plan", str(path), "--trials", "5", "--out", str(tmp_path / "r.json")
    )
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: plan decision 0:"), res.stderr


def test_mac_region_output(tmp_path):
    out = tmp_path / "mac.json"
    csv_out = tmp_path / "mac.csv"
    res = run_cli(
        "mac-region", "--users", "2;2", "--seed", "1", "--n", "2",
        "--out", str(out), "--csv", str(csv_out),
    )
    assert res.returncode == 0
    payload = json.loads(out.read_text())
    validate_schema(payload, "mac_region.schema.json")
    region = payload["region"]["constraints"]
    assert region["0,1"] == pytest.approx(payload["sum_rate"], abs=1e-9)
    est2 = payload["polarized_estimates"]["2"]["constraints"]
    assert est2["0,1"] == pytest.approx(payload["sum_rate"], abs=1e-8)
    rows = list(csv.DictReader(csv_out.open()))
    assert {r["subset"] for r in rows} == {"~", "0", "1", "0,1"}


def test_missing_channel_args_is_validation_error(tmp_path):
    res = run_cli("polarize", "--n", "2", "--out", str(tmp_path / "s.csv"))
    assert res.returncode == 1


@pytest.mark.parametrize(
    "preset,named",
    [
        (["--preset", "pure-states", "--angles", "0,x"], "angles"),
        (["--preset", "classical-symmetric", "--p", "0.1"], "'q'"),
        (["--preset", "random", "--q", "2"], "'k'"),
    ],
    ids=["bad-angle", "symmetric-without-q", "random-without-k"],
)
def test_bad_preset_parameters_are_validation_errors(tmp_path, preset, named):
    res = run_cli("polarize", *preset, "--n", "1", "--out", str(tmp_path / "s.csv"))
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: preset "), res.stderr
    assert named in res.stderr
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "preset",
    [
        ["--preset", "classical-symmetric", "--q", "2", "--p", "0.1"],
        ["--preset", "pure-states", "--angles", "0,0.9"],
    ],
    ids=["bsc", "pure-qubit"],
)
def test_polarize_refuses_a_negative_depth(tmp_path, preset):
    res = run_cli("polarize", *preset, "--n", "-1", "--out", str(tmp_path / "s.csv"))
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: depth n must be >= 0"), res.stderr
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("angles", ["0,nan", "0,inf"])
def test_polarize_refuses_non_finite_angles(tmp_path, angles):
    # a NaN state once reached LAPACK and died with a LinAlgError traceback
    out = tmp_path / "s.csv"
    res = run_cli("polarize", "--preset", "pure-states", "--angles", angles, "--n", "1",
                  "--out", str(out))
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: preset 'pure-states': angles must be finite"), (
        res.stderr
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["mac-region", "--users", "2;2"],
     ["mac-region", "--users", "2;2", "--mixed"],
     ["polarize", "--preset", "random", "--q", "2", "--n", "1"]],
    ids=["mac-pure", "mac-mixed", "random-preset"],
)
@pytest.mark.parametrize("k", ["0", "-1"])
def test_an_output_dimension_below_one_is_refused(tmp_path, command, k):
    # mac-region once ran k=0 as k=2 and recorded k: 0 in its manifest
    out = tmp_path / "out"
    res = run_cli(*command, "--k", k, "--out", str(out))
    assert res.returncode == 1
    assert res.stderr.startswith(f"validation error: output dimension k must be >= 1, got {k}"), (
        res.stderr
    )
    assert not out.exists()


def test_mac_region_refuses_a_negative_depth(tmp_path):
    # it once exited 0 with empty polarized estimates
    out = tmp_path / "mac.json"
    res = run_cli("mac-region", "--users", "2;2", "--n", "-1", "--out", str(out))
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: depth n must be >= 0, got -1"), res.stderr
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_verify_refuses_a_non_positive_trial_count(tmp_path, trials):
    out = tmp_path / "v.jsonl"
    res = run_cli("verify", "--trials", trials, "--out", str(out))
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: a verify run needs at least one trial"), (
        res.stderr
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "size,named",
    [(["--q", "0"], "q must be >= 2"), (["--q", "1"], "q must be >= 2"),
     (["--k", "0"], "k must be >= 1")],
    ids=["q0", "q1", "k0"],
)
def test_verify_refuses_a_size_below_its_least(tmp_path, size, named):
    # 0 once read as unset and ran the default grid
    out = tmp_path / "v.jsonl"
    res = run_cli("verify", *size, "--trials", "1", "--out", str(out))
    assert res.returncode == 1
    assert res.stderr.startswith(f"validation error: verify sizes {named}"), res.stderr
    assert not out.exists()


@pytest.mark.parametrize("users", ["2;x", "2,;2", ""])
def test_mac_region_refuses_non_integer_user_orders(tmp_path, users):
    out = tmp_path / "mac.json"
    res = run_cli("mac-region", "--users", users, "--out", str(out))
    assert res.returncode == 1
    assert res.stderr.startswith(f"validation error: --users {users!r}"), res.stderr
    assert not out.exists()


def test_verify_all_checks(tmp_path):
    out = tmp_path / "verify.jsonl"
    res = run_cli("verify", "--checks", "all", "--trials", "3", "--seed", "2", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    from cqpolar.checks import CHECKS

    assert {line["check_id"] for line in lines} >= set(CHECKS)
    for line in lines:
        validate_schema(line, "verify_line.schema.json")
        assert type(line["hypothesis_satisfied"]) is bool
        assert type(line["passed"]) is bool


def _main(capsys, *argv):
    """Run the CLI in-process: (exit code, stderr)."""
    from cqpolar.cli import main

    code = main(list(argv))
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,named",
    [
        (["polarize", "--preset", "pure-states", "--angles", "0,0.9", "--n", "1"],
         "the following arguments are required: --out"),
        (["polarize", "--preset", "pure-states", "--angles", "0,0.9", "--n", "x", "--out", "s"],
         "argument --n: invalid int value: 'x'"),
        (["no-such-command"], "invalid choice: 'no-such-command'"),
    ],
    ids=["missing-out", "non-integer-n", "unknown-subcommand"],
)
def test_usage_errors_exit_with_the_validation_code(capsys, argv, named):
    # argparse exits 2, the code reserved for capacity errors
    code, err = _main(capsys, *argv)
    assert code == 1
    assert err.startswith("usage: cqpolar"), err
    assert "validation error: cqpolar" in err and named in err, err


def test_help_still_exits_zero(capsys):
    from cqpolar.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: cqpolar" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["channel", "preset", "--preset", "random", "--q", "2", "--k", "2"],
        ["polarize", "--preset", "random", "--q", "2", "--k", "2", "--n", "1"],
        ["construct", "--preset", "random", "--q", "2", "--k", "2", "--n", "1"],
        ["decode-sim", "--plan", "plan.json"],
        ["verify", "--trials", "1"],
        ["mac-region", "--users", "2;2"],
    ],
    ids=["channel-preset", "polarize", "construct", "decode-sim", "verify", "mac-region"],
)
def test_a_negative_seed_is_refused_before_dispatch(tmp_path, capsys, argv):
    # numpy's default_rng once raised an uncaught ValueError
    out = tmp_path / "out"
    code, err = _main(capsys, *argv, "--seed", "-3", "--out", str(out))
    assert code == 1
    assert err == "validation error: --seed must be >= 0, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize("plan", ["missing.json", "not-json.json"])
def test_decode_sim_names_an_unreadable_plan(tmp_path, capsys, plan):
    (tmp_path / "not-json.json").write_text("{not json")
    path = tmp_path / plan
    code, err = _main(capsys, "decode-sim", "--plan", str(path), "--out", str(tmp_path / "r"))
    assert code == 1
    assert err.startswith(f"validation error: cannot read plan JSON {path}: "), err


@pytest.mark.parametrize("option", ["--out", "--json"])
def test_polarize_names_an_output_in_a_missing_directory(tmp_path, capsys, option):
    paths = {"--out": tmp_path / "s.csv", "--json": tmp_path / "s.json"}
    paths[option] = bad = tmp_path / "missing" / "file"
    outputs = [str(x) for pair in paths.items() for x in pair]
    code, err = _main(capsys, "polarize", "--preset", "pure-states", "--angles", "0,0.9",
                      "--n", "1", *outputs)
    assert code == 1
    assert err.startswith(f"validation error: cannot write {bad}: "), err


def test_decode_sim_names_a_profile_csv_in_a_missing_directory(tmp_path, capsys, z4_plan):
    plan, bad = tmp_path / "plan.json", tmp_path / "missing" / "p.csv"
    plan.write_text(json.dumps(z4_plan))
    code, err = _main(capsys, "decode-sim", "--plan", str(plan), "--trials", "3",
                      "--out", str(tmp_path / "r.json"), "--profile-csv", str(bad))
    assert code == 1
    assert err.startswith(f"validation error: cannot write {bad}: "), err


def test_mac_region_names_a_csv_in_a_missing_directory(tmp_path, capsys):
    bad = tmp_path / "missing" / "m.csv"
    code, err = _main(capsys, "mac-region", "--users", "2;2", "--n", "1",
                      "--out", str(tmp_path / "m.json"), "--csv", str(bad))
    assert code == 1
    assert err.startswith(f"validation error: cannot write {bad}: "), err


@pytest.mark.parametrize("command", ["polarize", "decode-sim", "mac-region"])
def test_no_output_is_written_when_another_cannot_be(tmp_path, capsys, z4_plan, command):
    # each once left its first report on disk when its second could not be written
    plan, first, bad = tmp_path / "plan.json", tmp_path / "first", tmp_path / "missing" / "f"
    plan.write_text(json.dumps(z4_plan))
    argv = {
        "polarize": ["polarize", "--preset", "pure-states", "--angles", "0,0.9", "--n", "1",
                     "--json"],
        "decode-sim": ["decode-sim", "--plan", str(plan), "--trials", "3", "--profile-csv"],
        "mac-region": ["mac-region", "--users", "2;2", "--n", "1", "--csv"],
    }[command]
    code, err = _main(capsys, *argv, str(bad), "--out", str(first))
    assert code == 1
    assert err.startswith(f"validation error: cannot write {bad}: "), err
    assert [p.name for p in tmp_path.iterdir()] == ["plan.json"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_are_created_under_the_umask(tmp_path, capsys, umask, mode):
    # every report was once created with mode 0600, whatever the umask
    old = os.umask(umask)
    try:
        code, err = _main(capsys, "polarize", "--preset", "pure-states", "--angles", "0,0.9",
                          "--n", "1", "--out", str(tmp_path / "s.csv"))
    finally:
        os.umask(old)
    assert code == 0, err
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"s.csv": mode, "s.csv.json": mode}


def test_a_channel_file_is_read_whatever_its_name(tmp_path, capsys):
    # a path not ending in .json was once parsed as JSON text, and the error named no file
    path = tmp_path / "z4.txt"
    preset = ["channel", "preset", "--preset", "random", "--q", "4", "--k", "2"]
    assert _main(capsys, *preset, "--out", str(path))[0] == 0
    assert _main(capsys, "channel", "validate", str(path))[0] == 0
    scan = ["polarize", "--channel", str(path), "--n", "1", "--out", str(tmp_path / "s.csv")]
    assert _main(capsys, *scan)[0] == 0
    path.unlink()
    for argv in (["channel", "validate", str(path)], scan):
        code, err = _main(capsys, *argv)
        assert code == 1
        reason = "No such file or directory"
        assert err == f"validation error: cannot read channel JSON {path}: {reason}\n"


def test_a_plan_given_as_json_text_is_hashed_as_text(tmp_path, capsys, z4_plan):
    text = json.dumps(z4_plan)
    out = tmp_path / "r.json"
    assert _main(capsys, "decode-sim", "--plan", text, "--trials", "3", "--out", str(out))[0] == 0
    hashes = json.loads(out.read_text())["manifest"]["input_hashes"]
    assert hashes == {text: hashlib.sha256(text.encode()).hexdigest()}


@pytest.mark.parametrize(
    "argv,named",
    [(["channel", "validate"], "channel validate needs FILE"),
     (["channel", "preset", "--preset", "pure-states", "--angles", "0,1"],
      "channel preset needs --out")],
    ids=["validate-without-file", "preset-without-out"],
)
def test_channel_names_its_missing_argument(capsys, argv, named):
    # both once raised TypeError
    code, err = _main(capsys, *argv)
    assert code == 1
    assert err == f"validation error: {named}\n"


@pytest.mark.parametrize("tau", ["-1", "nan", "inf"])
def test_construct_refuses_a_negative_or_non_finite_tau(tmp_path, capsys, tau):
    # it once froze every slot and exited 0
    out = tmp_path / "plan.json"
    code, err = _main(capsys, "construct", "--preset", "pure-states", "--angles", "0,0.9",
                      "--n", "1", "--tau", tau, "--out", str(out))
    assert code == 1
    assert err.startswith("validation error: tau must be finite and >= 0"), err
    assert not out.exists()


def test_decode_sim_refuses_a_plan_with_a_negative_tau(tmp_path, capsys, z4_plan):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({**z4_plan, "params": {**z4_plan["params"], "tau": -0.5}}))
    code, err = _main(capsys, "decode-sim", "--plan", str(plan), "--out", str(tmp_path / "r"))
    assert code == 1
    assert err.startswith("validation error: plan: params: tau must be finite and >= 0"), err


# A fast call set in the order it runs, and the SHA-256 prefix of each output
# with its manifest removed (the JSON is checked to be in the written format
# first), and of everything the calls printed; paths are relative to the run's
# directory.  These outputs matched byte for byte before the subcommands
# returned their outputs to one writer.  The hybrid outputs (pure.*, z4.csv,
# z4-scan.json, mac.*) were re-pinned when the scans began to build siblings
# together: W^+ reads H(avg W^+) off its minus sibling, a sum in another order,
# and every value that moved moved by at most 6.7e-16.
_GOLDEN_CALLS = [
    ["channel", "preset", "--preset", "random", "--q", "4", "--k", "2", "--out", "z4.json"],
    ["polarize", "--preset", "pure-states", "--angles", "0,0.9", "--n", "2", "--out", "pure.csv"],
    ["polarize", "--preset", "classical-symmetric", "--q", "2", "--p", "0.11", "--n", "4",
     "--out", "bsc.csv"],
    ["polarize", "--channel", "z4.json", "--n", "1", "--units", "bits", "--out", "z4.csv",
     "--json", "z4-scan.json"],
    ["construct", "--preset", "classical-symmetric", "--q", "2", "--p", "0.11", "--n", "3",
     "--tau", "0.5", "--out", "plan.json"],
    ["decode-sim", "--plan", "plan.json", "--trials", "50", "--out", "decode.json",
     "--profile-csv", "profile.csv"],
    ["mac-region", "--users", "2;2", "--n", "1", "--out", "mac.json", "--csv", "mac.csv"],
    ["verify", "--trials", "1", "--out", "verify.jsonl"],
]
_GOLDEN = {
    "z4.json": "b51424925501", "pure.csv": "bced6dcf15de", "pure.csv.json": "a3fd9b817d91",
    "bsc.csv": "578fb36039bc", "bsc.csv.json": "8d29640dffa7", "z4.csv": "b02e10a8ac62",
    "z4-scan.json": "b861e5ae4dd9", "plan.json": "4f0ca1d83d07", "decode.json": "fb622e55a41e",
    "profile.csv": "60c020a079ea", "mac.json": "e8960972a1d6", "mac.csv": "5af5ce60bb42",
    "verify.jsonl": "97bd818ded1f", "stdout": "1160af839003",
}


def _golden_digest(path) -> str:
    text = path.read_text()
    if path.suffix == ".json":
        obj = json.loads(text)
        assert text == json.dumps(obj, indent=1, sort_keys=True) + "\n", path.name
        obj.pop("manifest", None)
        text = json.dumps(obj, indent=1, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def test_cli_outputs_are_pinned(tmp_path, capsys, monkeypatch):
    from cqpolar.cli import main

    monkeypatch.chdir(tmp_path)
    printed = []
    for argv in _GOLDEN_CALLS:
        assert main(argv) == 0, argv
        printed.append(capsys.readouterr().out)
    got = {path.name: _golden_digest(path) for path in sorted(tmp_path.iterdir())}
    got["stdout"] = hashlib.sha256("".join(printed).encode()).hexdigest()[:12]
    assert got == _GOLDEN
