"""The benchmark's workloads and the runner that drives the CLI in-process.

Each workload is a fixed list of CLI calls (ops) repeated in passes, plus
frontier probes.  Every input -- channel seeds, ``--seed`` values and channel
files -- is derived from the benchmark seed, so one seed always gives the same
inputs.  Why each workload exists is recorded in ``interactions.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import outputs

#: The seed whose outputs must also match ``reference.json``.
DEFAULT_SEED = 0

#: A probe stops starting new depths once this much time has gone, and a
#: depth that ends later does not count.  The slowest probe depth measured
#: (BSC n=7, which ends in exit code 2) takes about 6 s.
PROBE_BUDGET_S = 40.0

WORKLOADS = ("hybrid-scan", "classical-scan", "decode-sim", "verify")

PURE_QUBIT = ["--preset", "pure-states", "--angles", "0,0.9"]


def _bsc(p):
    return ["--preset", "classical-symmetric", "--q", "2", "--p", str(p)]


Z3 = ["--preset", "classical-symmetric", "--q", "3", "--p", "0.1"]


@dataclass
class Op:
    """One CLI call: ``cqpolar <command> <argv> --out <file>``."""

    key: str
    command: str
    argv: list
    n: int = 0  # polarize depth
    trials: int = 0  # decode-sim trials


@dataclass
class Probe:
    """Runs ``polarize`` on one channel family from ``start_n`` upward."""

    family: str
    argv: list
    start_n: int


@dataclass
class Workload:
    name: str
    out: Path
    ops: list
    probes: list = field(default_factory=list)
    agree: list = field(default_factory=list)  # (op key, op key) pairs
    files: dict = field(default_factory=dict)  # channel file name -> random preset kwargs
    plans: list = field(default_factory=list)  # decode-sim plans built in set-up


class SetupError(Exception):
    """Set-up could not produce the workload's inputs."""


def _seeds(seed: int, count: int) -> list:
    state = np.random.SeedSequence([0x5EED, seed % (1 << 63)]).generate_state(count)
    return [str(int(s) % 1_000_000) for s in state]


def build(name: str, seed: int, out: Path) -> Workload:
    s = _seeds(seed, 8)
    if name == "hybrid-scan":
        return Workload(
            name, out,
            ops=[
                Op("pure-qubit-n3", "polarize", PURE_QUBIT + ["--n", "3"], n=3),
                Op("z4-preset-n2", "polarize",
                   ["--preset", "random", "--q", "4", "--k", "2", "--seed", s[0], "--n", "2"], n=2),
                Op("z4-file-n2", "polarize", ["--channel", str(out / "z4.json"), "--n", "2"], n=2),
                Op("z2xz2-file-n2", "polarize",
                   ["--channel", str(out / "z2xz2.json"), "--n", "2"], n=2),
                Op("mixed-q4-n2", "polarize",
                   ["--preset", "random", "--q", "4", "--k", "2", "--mixed", "--seed", s[2],
                    "--n", "2"], n=2),
                Op("construct-pure-qubit-n3", "construct",
                   PURE_QUBIT + ["--n", "3", "--seed", s[3]]),
                Op("mac-pure", "mac-region", ["--users", "2;2", "--k", "2", "--seed", s[4],
                                              "--n", "2"]),
                Op("mac-mixed", "mac-region", ["--users", "2;2", "--k", "2", "--mixed",
                                               "--seed", s[5], "--n", "2"]),
            ],
            probes=[Probe("pure-qubit", PURE_QUBIT, 3)],
            agree=[("z4-preset-n2", "z4-file-n2")],
            files={
                "z4.json": dict(q=4, k=2, seed=int(s[0])),
                "z2xz2.json": dict(q=4, k=2, group=[2, 2], seed=int(s[1])),
            },
        )
    if name == "classical-scan":
        return Workload(
            name, out,
            ops=[
                Op("bsc-n6", "polarize", _bsc(0.11) + ["--n", "6"], n=6),
                Op("z3-n4", "polarize", Z3 + ["--n", "4"], n=4),
                Op("symmetric-q4-n4", "polarize",
                   ["--preset", "classical-symmetric", "--q", "4", "--p", "0.1", "--n", "4"], n=4),
                Op("depolarized-q4-n4", "polarize",
                   ["--preset", "depolarized-orthogonal", "--q", "4", "--lam", "0.2",
                    "--n", "4"], n=4),
                Op("construct-bsc-n6", "construct", _bsc(0.05) + ["--n", "6", "--seed", s[0]]),
            ],
            probes=[Probe("bsc", _bsc(0.11), 6), Probe("z3", Z3, 4)],
        )
    if name == "decode-sim":
        plans = [
            ("bsc-n4", _bsc(0.05) + ["--n", "4", "--tau", "1e-3", "--seed", s[0]], 300),
            ("bsc-n6", _bsc(0.05) + ["--n", "6", "--tau", "1e-3", "--seed", s[1]], 60),
            ("pure-qubit-n3", PURE_QUBIT + ["--n", "3", "--tau", "0.05", "--seed", s[2]], 60),
            ("z4-n2", ["--preset", "random", "--q", "4", "--k", "2", "--n", "2", "--tau", "0.3"],
             400),
        ]
        return Workload(
            name, out,
            ops=[
                Op(f"decode-{key}", "decode-sim",
                   ["--plan", str(out / f"plan-{key}.json"), "--trials", str(trials),
                    "--seed", s[4 + i]], trials=trials)
                for i, (key, _, trials) in enumerate(plans)
            ],
            plans=[(key, argv, int(s[3])) for key, argv, _ in plans],
        )
    if name == "verify":
        # three calls at the default trial count rather than one long call: more
        # passes fit in a run, and three seeds average over the instances drawn
        return Workload(name, out, ops=[Op(f"verify-all-{i}", "verify", ["--seed", s[i]])
                                        for i in range(3)])
    raise ValueError(f"unknown workload {name!r}")


# -- set-up ---------------------------------------------------------------------------------


def _call(cli, argv):
    """cli.main(argv) with its console output captured: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue().strip()


def _mixes_frozen_and_info(plan_path: Path) -> bool:
    decisions = json.loads(plan_path.read_text())["decisions"]
    frozen = [d["info_nats"] == 0.0 for d in decisions]
    return any(frozen) and not all(frozen)


def setup(workload: Workload, cli) -> None:
    """Write the channel files and build the decode-sim plans."""
    from cqpolar.channel import channel_to_json, preset_channel

    workload.out.mkdir(parents=True, exist_ok=True)
    for fname, params in workload.files.items():
        channel = preset_channel("random", **params)
        (workload.out / fname).write_text(json.dumps(channel_to_json(channel)))
    for key, argv, search_seed in workload.plans:
        path = workload.out / f"plan-{key}.json"
        # a plan without a seed of its own is a random channel: take the first
        # channel seed from the search sequence whose plan mixes frozen and info
        candidates = [None] if "--seed" in argv else range(search_seed, search_seed + 20)
        for cand in candidates:
            extra = [] if cand is None else ["--seed", str(cand)]
            rc, err = _call(cli, ["construct", *argv, *extra, "--out", str(path)])
            if rc != 0:
                raise SetupError(f"construct {key} exited with {rc}: {err}")
            if _mixes_frozen_and_info(path):
                break
        else:
            raise SetupError(f"no plan for {key} mixes frozen and info slots")


# -- running ops ------------------------------------------------------------------------------


@dataclass
class OpResult:
    key: str
    command: str
    seconds: float
    error: str = None  # why the op failed, if it did
    wrong: bool = False  # an output the program produced failed a check
    fingerprint: object = None
    exit_code: int = None
    bound_holds: bool = None  # decode-sim only
    kernel_s: float = None  # the gauge's mean kernel time on both sides of the call


class Runner:
    """Runs ops through ``cli.main`` and checks every output."""

    def __init__(self, cli, workload: Workload, schemas, reference: dict = None):
        self.cli = cli
        self.workload = workload
        self.schemas = schemas
        self.reference = reference or {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list = []

    def _output(self, op: Op) -> Path:
        suffix = {"polarize": ".csv", "verify": ".jsonl"}.get(op.command, ".json")
        return self.workload.out / f"{op.key}{suffix}"

    def _check(self, op: Op, out: Path, result: OpResult) -> None:
        s = self.schemas
        if op.command == "polarize":
            result.fingerprint = outputs.check_polarize(s, out, op.n)
        elif op.command == "construct":
            result.fingerprint = outputs.check_construct(s, out)
        elif op.command == "decode-sim":
            result.fingerprint, result.bound_holds = outputs.check_decode(s, out, op.trials)
        elif op.command == "verify":
            result.fingerprint = outputs.check_verify(s, out)
        else:
            result.fingerprint = outputs.check_mac(s, out)

    def run_op(self, op: Op, allowed=(0,)) -> OpResult:
        out = self._output(op)
        for stale in (out, out.with_name(out.name + ".json")):
            stale.unlink(missing_ok=True)
        argv = [op.command, *op.argv, "--out", str(out)]
        start = perf_counter()
        try:
            rc, err = _call(self.cli, argv)
        except Exception as exc:  # a crash is a counted failure, not the benchmark's end
            result = OpResult(op.key, op.command, perf_counter() - start,
                              error=f"{type(exc).__name__}: {exc}")
            return self._count(result)
        result = OpResult(op.key, op.command, perf_counter() - start, exit_code=rc)
        if rc not in allowed:
            result.error = f"exit code {rc}: {err.splitlines()[-1] if err else ''}"
        elif rc == 0:
            try:
                self._check(op, out, result)
                ref = self.reference.get(op.key)
                diff = ref is not None and outputs.difference(ref, result.fingerprint)
                if diff:
                    raise outputs.OutputError(f"differs from reference.json at {diff}")
            except outputs.OutputError as exc:
                result.error, result.wrong = str(exc), True
        return self._count(result)

    def _count(self, result: OpResult) -> OpResult:
        self.attempted += 1
        if result.error:
            self._fail(result, result.error)
        return result

    def _fail(self, result: OpResult, message: str) -> None:
        self.failed += 1
        self.wrong += result.wrong
        if len(self.errors) < 8 and (result.key, message) not in self.errors:
            self.errors.append((result.key, message))

    def run_pass(self, gauge=None) -> list:
        """One call of each op; with a gauge, its kernel is timed between the calls."""
        ops = self.workload.ops
        results, samples = [], []
        for i, op in enumerate(ops):
            if gauge is not None:
                samples.append(gauge.between(ops[i - 1].key, op.key))
            results.append(self.run_op(op))
            if gauge is not None:
                gauge.last[op.key] = results[-1].seconds
        if gauge is not None:
            samples.append(gauge.between(ops[-1].key))
            for result, (t0, n0), (t1, n1) in zip(results, samples, samples[1:]):
                result.kernel_s = (t0 + t1) / (n0 + n1)
        by_key = {r.key: r for r in results}
        for a, b in self.workload.agree:
            ra, rb = by_key[a], by_key[b]
            if ra.error or rb.error:
                continue
            diff = outputs.difference(ra.fingerprint, rb.fingerprint)
            if diff:
                rb.error, rb.wrong = f"disagrees with {a} at {diff}", True
                self._fail(rb, rb.error)
        return results

    def frontier(self, probe: Probe) -> int:
        """Largest n at which polarize completes, from probe.start_n upward."""
        best = probe.start_n - 1
        start = perf_counter()
        n = probe.start_n
        while perf_counter() - start < PROBE_BUDGET_S:
            op = Op(f"probe-{probe.family}", "polarize", probe.argv + ["--n", str(n)], n=n)
            result = self.run_op(op, allowed=(0, 2))
            if result.error or result.exit_code != 0:
                break
            if perf_counter() - start > PROBE_BUDGET_S:
                break
            best = n
            n += 1
        return best
