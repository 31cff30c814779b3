"""Command-line surface: channel I/O, scans, construction, decoding, checks.

Every JSON report embeds a run manifest (subcommand, parameters, seed, tool
version, input hashes, wall clock) sufficient to reproduce the output;
reports are written atomically.  Exit codes: 0 success, 1 validation
failure (a usage error too: a missing or malformed option, an unknown
subcommand, a negative seed, a path that cannot be read or written), 2
capacity exceeded, 3 check failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .channel import CqChannel, load_channel, preset_channel
from .checks import CHECKS, run_all, summarize
from .codes import CodeParams, build_plan, plan_from_json, plan_to_json, rate_gap
from .config import default_caps
from .decoder import error_experiment
from .errors import CapacityError, LoadError, StructuralError
from .mac import MacChannel, polarized_region_estimate, random_mac, region
from .polarize import _routed, format_label, polarization_scan

EXIT_OK, EXIT_VALIDATION, EXIT_CAPACITY, EXIT_CHECK = 0, 1, 2, 3


def _hash_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args, started: float, inputs=()) -> dict:
    params = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    return {
        "tool": "cqpolar",
        "version": __version__,
        "subcommand": args.subcommand,
        "params": params,
        "seed": getattr(args, "seed", None),
        "input_hashes": {p: _hash_file(p) for p in inputs if p},
        "wallclock_s": round(time.time() - started, 3),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cqpolar-")
    except OSError as exc:
        raise LoadError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj) -> None:
    _write_atomic(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _write_csv(path: str, header: list, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomic(path, buf.getvalue())


def _channel_from_args(args) -> CqChannel:
    if getattr(args, "channel", None):
        return load_channel(args.channel)
    name = getattr(args, "preset", None)
    if not name:
        raise LoadError("provide --channel FILE or --preset NAME")
    params = {}
    if args.q is not None:
        params["q"] = args.q
    if getattr(args, "p", None) is not None:
        params["p"] = args.p
    if getattr(args, "lam", None) is not None:
        params["lam"] = args.lam
    if getattr(args, "k", None) is not None:
        params["k"] = args.k
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


def cmd_channel(args) -> int:
    started = time.time()
    needs, flag = ("file", "FILE") if args.action == "validate" else ("out", "--out")
    if not getattr(args, needs):
        raise LoadError(f"channel {args.action} needs {flag}")
    if args.action == "validate":
        ch = load_channel(args.file)
        _routed(ch)  # a diagonal channel must also pass the table engine's checks
        print(f"ok: group={ch.alphabet!r} q={ch.q} k={ch.k}")
        return EXIT_OK
    ch = _channel_from_args(args)
    from .channel import channel_to_json

    payload = channel_to_json(ch)
    payload["manifest"] = _manifest(args, started)
    _write_json(args.out, payload)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_polarize(args) -> int:
    started = time.time()
    ch = _channel_from_args(args)
    records = polarization_scan(ch, args.n, default_caps())
    g = ch.alphabet
    # information columns are nats internally; --units bits is display-only
    scale = 1.0 / float(np.log(2)) if args.units == "bits" else 1.0
    rows = []
    for r in records:
        best = r.best_H
        rows.append(
            {
                "branch": format_label(r.branch),
                "I": r.I * scale,
                "Fmax": r.fmax,
                "F": r.f,
                "best_H": ";".join(repr(g.element_by_index(i)) for i in best.indices),
                "I_quot": r.quot_I[best] * scale,
                "F_quot": r.quot_F[best],
            }
        )
    _write_csv(args.out, list(rows[0]), [list(row.values()) for row in rows])
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
        "manifest": _manifest(args, started, [args.channel] if args.channel else []),
    }
    _write_json(args.json or args.out + ".json", payload)
    print(f"wrote {args.out} ({len(rows)} branches)")
    return EXIT_OK


def cmd_construct(args) -> int:
    started = time.time()
    ch = _channel_from_args(args)
    params = CodeParams(
        n=args.n,
        delta=args.delta,
        beta=args.beta,
        beta_prime=args.beta_prime,
        seed=args.seed,
        mode=args.mode,
        tau=args.tau,
        sections=args.sections,
    )
    plan = build_plan(ch, params)
    payload = plan_to_json(plan)
    payload["rate_gap"] = gap = rate_gap(plan)
    payload["manifest"] = _manifest(args, started, [args.channel] if args.channel else [])
    _write_json(args.out, payload)
    print(f"wrote {args.out}: rate={plan.rate:.6f} nats, gap={gap:.6f}, bound={plan.bound:.3e}")
    return EXIT_OK


def cmd_decode_sim(args) -> int:
    from .codes import plan_channel

    started = time.time()
    plan = plan_from_json(args.plan)
    report = error_experiment(plan_channel(plan), plan, args.trials, args.seed)
    report["manifest"] = _manifest(args, started, [args.plan])
    _write_json(args.out, report)
    if args.profile_csv:
        profile = zip(
            report["step_branches"],
            report["first_error_profile"],
            report["step_mismatch_profile"],
        )
        _write_csv(args.profile_csv, ["branch", "first_error_rate", "mismatch_rate"], profile)
    print(
        f"block error {report['block_error']:.4f} over {args.trials} trials; "
        f"bound {report['bound']:.3e}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.time()
    names = None if args.checks == "all" else [c.strip() for c in args.checks.split(",")]
    qs = [args.q] if args.q is not None else (2, 3, 4)
    ks = [args.k] if args.k is not None else (2, 3)
    reports = run_all(seed=args.seed, trials=args.trials, qs=qs, ks=ks, checks=names)
    lines = [json.dumps(r.as_json(), sort_keys=True) for r in reports]
    summary = summarize(reports)
    payload = "\n".join(lines) + "\n"
    _write_atomic(args.out, payload)
    failures = sum(v["failures"] for v in summary.values())
    for name, agg in sorted(summary.items()):
        print(
            f"{name}: {agg['instances']} instances, {agg['failures']} failures, "
            f"{agg['vacuous']} vacuous, min margin {agg['min_margin']}"
        )
    if failures:
        print(f"{failures} check failures", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_mac_region(args) -> int:
    started = time.time()
    if args.n < 0:
        raise StructuralError(f"depth n must be >= 0, got {args.n}")
    user_orders = _user_orders(args.users)
    if args.channel:
        ch = load_channel(args.channel)
        mac = MacChannel(user_orders, ch)
    else:
        mac = random_mac(user_orders, 2 if args.k is None else args.k, args.seed, mixed=args.mixed)
    reg = region(mac)
    estimates = {}
    for n in range(1, args.n + 1):
        estimates[n] = polarized_region_estimate(mac, n)
    payload = {
        "users": user_orders,
        "region": reg.as_json(),
        "polarized_estimates": {str(n): e.as_json() for n, e in estimates.items()},
        "sum_rate": mac.sum_rate(),
        "manifest": _manifest(args, started, [args.channel] if args.channel else []),
    }
    _write_json(args.out, payload)
    if args.csv:
        bounds = [(0, reg), *estimates.items()]
        rows = [
            [s, n, v] for n, r in bounds for s, v in sorted(r.as_json()["constraints"].items())
        ]
        _write_csv(args.csv, ["subset", "n", "bound_nats"], rows)
    print(f"wrote {args.out}")
    return EXIT_OK


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
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--beta", type=float, default=0.2)
    p.add_argument("--beta-prime", dest="beta_prime", type=float, default=0.4)
    p.add_argument("--mode", choices=["best-effort", "paper-strict"], default="best-effort")
    p.add_argument("--tau", type=float, default=1e-3)
    p.add_argument("--sections", choices=["random", "zero"], default="random")
    p.add_argument("--seed", type=int, default=0)
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
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (LoadError, StructuralError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
