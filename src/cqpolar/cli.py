"""Command-line surface: channel I/O, scans, construction, decoding, checks.

Every JSON report embeds a run manifest (subcommand, parameters, seed, tool
version, hashes of the --channel and --plan inputs, wall clock) sufficient to
reproduce the output.  Exit codes: 0 success, 1 validation failure (a usage
error too: a missing or malformed option, an unknown subcommand, a negative
seed, a path that cannot be read or written), 2 capacity exceeded, 3 check
failure.

Outputs are all written or none: a subcommand returns its outputs, and
``main`` checks every target directory before it writes the first file.  Each
file replaces its target atomically and is created with mode 0666 less the
umask.  A --channel or --plan value that starts with '{' is JSON text, and
any other value is a file path (see ``channel.read_json``).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import fields
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from . import __version__
from .channel import CqChannel, channel_to_json, is_json_text, load_channel, preset_channel
from .checks import CHECKS, GRID_KS, GRID_QS, run_all, summarize
from .codes import CodeParams, build_plan, plan_channel, plan_from_json, plan_to_json, rate_gap
from .config import default_caps
from .decoder import error_experiment
from .errors import CapacityError, LoadError, StructuralError
from .mac import MacChannel, polarized_region_estimate, random_mac, region
from .polarize import _routed, format_label, polarization_scan

EXIT_OK, EXIT_VALIDATION, EXIT_CAPACITY, EXIT_CHECK = 0, 1, 2, 3


class Report(NamedTuple):
    """What a subcommand hands to ``main`` to publish."""

    outputs: list  # (path, text or a JSON object that gets the manifest), in writing order
    line: str  # printed once every output is written
    failure: str = ""  # a check failure: printed to stderr, and the exit code is 3


def _hash_input(source: str) -> str:
    """SHA-256 of an input file, or of the JSON text given in its place."""
    if is_json_text(source):
        return hashlib.sha256(source.encode()).hexdigest()
    with open(source, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _manifest(args, started: float) -> dict:
    params = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    inputs = [getattr(args, name, None) for name in ("channel", "plan")]
    return {
        "tool": "cqpolar",
        "version": __version__,
        "subcommand": args.subcommand,
        "params": params,
        "seed": getattr(args, "seed", None),
        "input_hashes": {p: _hash_input(p) for p in inputs if p},
        "wallclock_s": round(time.time() - started, 3),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _write_atomic(path: str, text: str) -> None:
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".cqpolar-{os.urandom(8).hex()}")
    try:
        # mode 0666: the kernel applies the umask, as it does for open(path, "w")
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise LoadError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _publish(outputs, manifest: dict) -> None:
    """Write every output, or none when some target directory cannot take a file."""
    texts = [(path, out if isinstance(out, str) else
              json.dumps({**out, "manifest": manifest}, indent=1, sort_keys=True) + "\n")
             for path, out in outputs]
    for path, _ in texts:
        directory = os.path.dirname(os.path.abspath(path))
        if not (os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)):
            raise LoadError(f"cannot write {path}: {directory} is not a writable directory")
    for path, text in texts:
        _write_atomic(path, text)


def _csv(header: list, rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def _channel_from_args(args) -> CqChannel:
    if getattr(args, "channel", None):
        return load_channel(args.channel)
    name = getattr(args, "preset", None)
    if not name:
        raise LoadError("provide --channel FILE or --preset NAME")
    params = {key: getattr(args, key) for key in ("q", "p", "lam", "k")}
    params = {key: value for key, value in params.items() if value is not None}
    if getattr(args, "angles", None):
        params["angles"] = args.angles.split(",")
    if getattr(args, "mixed", False):
        params["mixed"] = True
    return preset_channel(name, seed=getattr(args, "seed", None), **params)


def _add_channel_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--channel", help="channel JSON file")
    p.add_argument("--preset", help="preset family name")
    p.add_argument("--q", type=int, help="input alphabet size (presets)")
    p.add_argument("--p", type=float, help="flip probability (classical-symmetric)")
    p.add_argument("--lam", type=float, help="depolarization weight")
    p.add_argument("--k", type=int, help="output dimension (random preset)")
    p.add_argument("--angles", help="comma-separated angles (pure-states)")
    p.add_argument("--mixed", action="store_true", help="mixed outputs (random preset)")


def _user_orders(text: str) -> list:
    """``--users`` as per-user cyclic orders: ';' between users, ',' between factors."""
    try:
        return [[int(x) for x in user.split(",")] for user in text.split(";")]
    except ValueError:
        raise StructuralError(
            f"--users {text!r}: want integer cyclic orders, e.g. '2;2' or '2,2;4'"
        ) from None


# -- subcommands --------------------------------------------------------------------


def cmd_channel(args) -> Report:
    needs, flag = ("file", "FILE") if args.action == "validate" else ("out", "--out")
    if not getattr(args, needs):
        raise LoadError(f"channel {args.action} needs {flag}")
    if args.action == "validate":
        ch = load_channel(args.file)
        _routed(ch)  # a diagonal channel must also pass the table engine's checks
        return Report([], f"ok: group={ch.alphabet!r} q={ch.q} k={ch.k}")
    return Report([(args.out, channel_to_json(_channel_from_args(args)))], f"wrote {args.out}")


def cmd_polarize(args) -> Report:
    ch = _channel_from_args(args)
    records = polarization_scan(ch, args.n, default_caps())
    g = ch.alphabet
    # information columns are nats internally; --units bits is display-only
    scale = 1.0 / float(np.log(2)) if args.units == "bits" else 1.0
    rows = [
        {
            "branch": format_label(r.branch),
            "I": r.I * scale,
            "Fmax": r.fmax,
            "F": r.f,
            "best_H": ";".join(repr(g.element_by_index(i)) for i in r.best_H.indices),
            "I_quot": r.quot_I[r.best_H] * scale,
            "F_quot": r.quot_F[r.best_H],
        }
        for r in records
    ]
    payload = {
        "records": [
            {
                **row,
                "fd": {repr(g.element_by_index(d)): v for d, v in rec.fd.items()},
                "quotients": [
                    {
                        "subgroup": [list(g.label_of(i)) for i in H.indices],
                        "I": rec.quot_I[H] * scale,
                        "F": rec.quot_F[H],
                    }
                    for H in rec.quot_I
                ],
            }
            for row, rec in zip(rows, records)
        ],
        "base_I": ch.holevo_information() * scale,
        "units": args.units,
    }
    table = _csv(list(rows[0]), [list(row.values()) for row in rows])
    return Report(
        [(args.out, table), (args.json or args.out + ".json", payload)],
        f"wrote {args.out} ({len(rows)} branches)",
    )


def cmd_construct(args) -> Report:
    ch = _channel_from_args(args)
    plan = build_plan(ch, CodeParams(**{f.name: getattr(args, f.name) for f in fields(CodeParams)}))
    payload = plan_to_json(plan)
    payload["rate_gap"] = gap = rate_gap(plan)
    return Report(
        [(args.out, payload)],
        f"wrote {args.out}: rate={plan.rate:.6f} nats, gap={gap:.6f}, bound={plan.bound:.3e}",
    )


def cmd_decode_sim(args) -> Report:
    plan = plan_from_json(args.plan)
    result = error_experiment(plan_channel(plan), plan, args.trials, args.seed)
    outputs = [(args.out, result)]
    if args.profile_csv:
        columns = ("step_branches", "first_error_profile", "step_mismatch_profile")
        profile = zip(*(result[c] for c in columns))
        header = ["branch", "first_error_rate", "mismatch_rate"]
        outputs.append((args.profile_csv, _csv(header, profile)))
    return Report(
        outputs,
        f"block error {result['block_error']:.4f} over {args.trials} trials; "
        f"bound {result['bound']:.3e}",
    )


def cmd_verify(args) -> Report:
    names = None if args.checks == "all" else [c.strip() for c in args.checks.split(",")]
    qs = GRID_QS if args.q is None else [args.q]
    ks = GRID_KS if args.k is None else [args.k]
    reports = run_all(seed=args.seed, trials=args.trials, qs=qs, ks=ks, checks=names)
    lines = [json.dumps(r.as_json(), sort_keys=True) for r in reports]
    summary = summarize(reports)
    failures = sum(v["failures"] for v in summary.values())
    return Report(
        [(args.out, "\n".join(lines) + "\n")],
        "\n".join(
            f"{name}: {agg['instances']} instances, {agg['failures']} failures, "
            f"{agg['vacuous']} vacuous, min margin {agg['min_margin']}"
            for name, agg in sorted(summary.items())
        ),
        f"{failures} check failures" if failures else "",
    )


def cmd_mac_region(args) -> Report:
    if args.n < 0:
        raise StructuralError(f"depth n must be >= 0, got {args.n}")
    user_orders = _user_orders(args.users)
    if args.channel:
        mac = MacChannel(user_orders, load_channel(args.channel))
    else:
        mac = random_mac(user_orders, 2 if args.k is None else args.k, args.seed, mixed=args.mixed)
    reg = region(mac)
    estimates = {n: polarized_region_estimate(mac, n) for n in range(1, args.n + 1)}
    payload = {
        "users": user_orders,
        "region": reg.as_json(),
        "polarized_estimates": {str(n): e.as_json() for n, e in estimates.items()},
        "sum_rate": mac.sum_rate(),
    }
    outputs = [(args.out, payload)]
    if args.csv:
        rows = [[s, n, v] for n, r in [(0, reg), *estimates.items()]
                for s, v in sorted(r.as_json()["constraints"].items())]
        outputs.append((args.csv, _csv(["subset", "n", "bound_nats"], rows)))
    return Report(outputs, f"wrote {args.out}")


# -- parser -------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are validation errors, not exits."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise StructuralError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cqpolar",
        description="Polar-coding laboratory for classical-quantum channels "
        "over finite Abelian groups.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("channel", help="validate or emit channel files")
    p.add_argument("action", choices=["validate", "preset"])
    p.add_argument("file", nargs="?", help="channel JSON (validate)")
    _add_channel_opts(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (preset)")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("polarize", help="scan all synthetic channels to depth n")
    _add_channel_opts(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output")
    p.add_argument("--json", help="JSON sidecar (default: OUT.json)")
    p.add_argument("--units", choices=["nats", "bits"], default="nats",
                   help="display units for information columns")
    p.set_defaults(func=cmd_polarize)

    p = sub.add_parser("construct", help="build a polar code plan")
    _add_channel_opts(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, default=CodeParams.delta)
    p.add_argument("--beta", type=float, default=CodeParams.beta,
                   help="recorded and checked against --beta-prime; no computation reads it")
    p.add_argument("--beta-prime", dest="beta_prime", type=float, default=CodeParams.beta_prime)
    p.add_argument("--mode", choices=CodeParams.MODES, default=CodeParams.mode)
    p.add_argument("--tau", type=float, default=CodeParams.tau)
    p.add_argument("--sections", choices=CodeParams.SECTIONS, default=CodeParams.sections)
    p.add_argument("--seed", type=int, default=CodeParams.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("decode-sim", help="Monte-Carlo decode a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--profile-csv", dest="profile_csv")
    p.set_defaults(func=cmd_decode_sim)

    p = sub.add_parser("verify", help="run the inequality suite")
    p.add_argument("--checks", default="all",
                   help="'all' or comma-separated ids: " + ", ".join(sorted(CHECKS)))
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--out", default="verify.jsonl")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mac-region", help="rate region and polarized estimates")
    p.add_argument("--users", required=True,
                   help="per-user cyclic orders, e.g. '2;2' or '2,2;4'")
    p.add_argument("--channel", help="channel JSON over the product group")
    p.add_argument("--k", type=int, help="output dimension of the random MAC (default 2)")
    p.add_argument("--mixed", action="store_true")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_mac_region)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.seed < 0:
            raise StructuralError(f"--seed must be >= 0, got {args.seed}")
        started = time.time()
        report = args.func(args)
        _publish(report.outputs, _manifest(args, started))
        print(report.line)
        if report.failure:
            print(report.failure, file=sys.stderr)
            return EXIT_CHECK
        return EXIT_OK
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (LoadError, StructuralError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
