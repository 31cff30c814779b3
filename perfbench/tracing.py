"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the ``cqpolar`` modules from
the outside, so nothing under ``src/`` changes.  A function imported with
``from .x import f`` is a separate name in every importing module, so each
wrapped function is replaced at every import site that holds it.

Each call of a wrapped name records one span: its name, start, end and the
span that was open when it began.  Spans stay in memory in flat arrays and are
written out when the run ends.  A span's self time is its duration minus the
durations of its children; a layer's time is the sum of the self times of its
spans, so no time is counted twice.  Counters and peak gauges are recorded at
the same boundaries, per traced pass.
"""

from __future__ import annotations

import functools
import itertools
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patches: list = []
        self._uids = weakref.WeakKeyDictionary()
        self._next_uid = itertools.count()
        self.passes: list = []  # (first span, end span, counters) per traced pass
        self._pass_start = 0
        self.counts: dict = {}
        self.pairs: set = set()

    # -- passes ----------------------------------------------------------------------
    def begin_pass(self) -> None:
        self._pass_start = len(self.span_start)
        self.counts = {}
        self.pairs = set()

    def end_pass(self) -> None:
        self.counts["channel.unique_pairs"] = len(self.pairs)
        self.passes.append((self._pass_start, len(self.span_start), self.counts))

    # -- counters ----------------------------------------------------------------------
    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def uid(self, obj) -> int:
        """A per-object id that is never reused while the run lasts."""
        uid = self._uids.get(obj)
        if uid is None:
            uid = self._uids[obj] = next(self._next_uid)
        return uid

    # -- wrappers ----------------------------------------------------------------------
    def span(self, name: str, fn, after=None):
        """``fn`` wrapped to record a span; ``after(args, result)`` runs on success."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def patch_function(self, fn, wrapper) -> None:
        """Replace ``fn`` in every loaded cqpolar module that holds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cqpolar" or modname.startswith("cqpolar.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------------------
    def self_times(self) -> np.ndarray:
        start = np.frombuffer(self.span_start, dtype=float)
        dur = np.frombuffer(self.span_end, dtype=float) - start
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur - child

    def per_pass(self):
        """Per traced pass: (calls by span name, self seconds by span name, counters)."""
        self_t = self.self_times()
        name = np.frombuffer(self.span_name, dtype=np.int32)
        k = len(self.names)
        out = []
        for a, b, counts in self.passes:
            calls = np.bincount(name[a:b], minlength=k)
            secs = np.bincount(name[a:b], weights=self_t[a:b], minlength=k)
            out.append(
                (
                    {n: int(calls[i]) for i, n in enumerate(self.names)},
                    {n: float(secs[i]) for i, n in enumerate(self.names)},
                    counts,
                )
            )
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=float),
            end=np.frombuffer(self.span_end, dtype=float),
            passes=np.array([(a, b) for a, b, _ in self.passes], dtype=np.int64).reshape(-1, 2),
        )


# -- layer wiring -------------------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap the boundaries of every cqpolar layer that the benchmark measures."""
    from cqpolar import channel, checks, cli, codes, config, decoder, diagonal, groups
    from cqpolar import linalg, mac, polarize, states

    t = tracer

    def fn(module, attr, name, after=None):
        original = getattr(module, attr)
        t.patch_function(original, t.span(name, original, after))

    def method(cls, attr, name, after=None):
        t.patch_method(cls, attr, t.span(name, cls.__dict__[attr], after))

    # cli: every command, and the bytes its reports write
    fn(cli, "main", "cli")
    fn(cli, "_write_atomic", "cli", lambda a, r: t.add("cli.bytes_written", len(a[1].encode())))

    # channel
    def on_pair(args, _):
        ch = args[0]
        x, y = ch._index(args[1]), ch._index(args[2])
        if x != y:
            t.pairs.add((t.uid(ch), min(x, y), max(x, y)))

    def on_quotient(args, _):
        ch, H = args[0], args[1]
        if H.order in (1, ch.q):
            t.add("channel.trivial_quotients")

    method(channel.CqChannel, "holevo_information", "channel.holevo")
    method(channel.CqChannel, "pairwise_fidelity", "channel.fidelity", on_pair)
    method(channel.CqChannel, "quotient", "channel.quotient", on_quotient)
    fn(channel, "load_channel", "channel.load")

    # polarize
    fn(polarize, "polarization_scan", "polarize.scan")
    fn(polarize, "make_record", "polarize.record")
    fn(polarize, "minus_transform", "polarize.transform")
    fn(polarize, "plus_transform", "polarize.transform")

    # states
    fn(states, "tensor_states", "states.tensor")
    fn(states, "mix_states", "states.mix")
    fn(states, "batched_mixture_entropies", "states.entropy_batch")
    fn(states, "state_fidelity", "states.fidelity")

    # linalg: dense matrices passed in, with their computed decomposition work
    def dense_work(mats):
        for m in mats:
            d = int(np.shape(m)[0])
            t.peak("linalg.max_dim", d)
            t.add("linalg.decomp_work", d**3)

    fn(linalg, "fidelity", "linalg.fidelity", lambda a, r: dense_work(a[:2]))
    fn(linalg, "von_neumann_entropy", "linalg.entropy", lambda a, r: dense_work(a[:1]))
    fn(linalg, "pretty_good_measurement", "linalg.pgm", lambda a, r: dense_work(a[0]))

    # diagonal
    def on_merge(args, result):
        t.add("diagonal.columns_in", np.shape(args[0])[1])
        t.add("diagonal.columns_out", result.shape[1])

    for attr in ("minus_transform", "plus_transform"):
        method(diagonal.DiagonalChannel, attr, "diagonal.transform")
    for attr in ("holevo_information", "pairwise_fidelity", "fd", "fd_table",
                 "avg_fidelity", "f_max", "nested_fmax"):
        method(diagonal.DiagonalChannel, attr, "diagonal.functional")
    method(diagonal.DiagonalChannel, "quotient", "diagonal.quotient")
    fn(diagonal, "merge_columns", "diagonal.merge", on_merge)

    # resource caps: peak size against the cap, recorded before the check can raise
    caps_cls = config.ResourceCaps
    orig_dim, orig_branches, orig_columns = (
        caps_cls.check_dim, caps_cls.check_branches, caps_cls.check_columns,
    )

    def check_dim(self, dim, context):
        layer = "polarize" if "transform" in context else "decoder"
        t.peak(f"{layer}.peak_dim_frac", dim / self.dim_cap)
        return orig_dim(self, dim, context)

    def check_branches(self, count, context):
        t.peak("polarize.peak_branches_frac", count / self.branch_cap)
        return orig_branches(self, count, context)

    def check_columns(self, count, context):
        t.peak("diagonal.peak_alphabet_frac", count / self.column_cap)
        return orig_columns(self, count, context)

    t.patch_method(caps_cls, "check_dim", check_dim)
    t.patch_method(caps_cls, "check_branches", check_branches)
    t.patch_method(caps_cls, "check_columns", check_columns)

    # decoder
    def on_init(args, _):
        t.add(f"decoder.plans_{args[0].kind}")

    def on_decode(args, result):
        engine, (_, trace) = args[0], result
        t.add("decoder.trials")
        if engine.kind != "diagonal":
            t.add("decoder.collapses",
                  sum(len(engine._cells[i]) > 1 for i in range(len(trace.steps))))

    dec = decoder.SCDecoder
    method(dec, "__init__", "decoder.init", on_init)
    method(dec, "transmit", "decoder.transmit")
    method(dec, "decode", "decoder.decode", on_decode)
    method(dec, "conditional_states", "decoder.conditional_states")
    method(dec, "step_povm_rep", "decoder.step_povm")
    fn(decoder, "_subspace_pgm", "decoder.pgm_build")
    fn(decoder, "_dense_pgm", "decoder.pgm_build")
    fn(decoder, "error_experiment", "decoder.experiment")

    # codes and groups
    fn(codes, "encode", "codes.encode")
    fn(codes, "plan_from_json", "codes.plan_load")
    fn(codes, "build_plan", "codes.build_plan")
    fn(groups, "random_section_map", "groups.section_map")
    method(groups.SectionMap, "__call__", "groups.section_map")
    fn(groups, "enumerate_subgroups", "groups.subgroup_enum")

    # checks and mac
    def on_run_all(_, reports):
        t.add("checks.instances", len(reports))
        t.add("checks.vacuous", sum(not r.hypothesis_satisfied for r in reports))

    fn(checks, "run_all", "checks.run", on_run_all)
    fn(mac, "region", "mac.region")
    fn(mac, "polarized_region_estimate", "mac.estimate")


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics for one traced pass: self-time medians, counts per pass."""
    rows = tracer.per_pass()

    def secs(name):
        return float(np.median([s.get(name, 0.0) for _, s, _ in rows]))

    def calls(name):
        return float(np.median([c.get(name, 0) for c, _, _ in rows]))

    def count(key):
        return float(np.median([k.get(key, 0) for _, _, k in rows]))

    out = {}
    for layer in ("channel.holevo", "channel.fidelity", "channel.quotient",
                  "polarize.record", "polarize.transform", "states.tensor", "states.mix",
                  "states.entropy_batch", "states.fidelity", "linalg.fidelity",
                  "linalg.entropy", "linalg.pgm", "diagonal.transform", "codes.encode",
                  "groups.section_map"):
        out[f"{layer}_calls"] = calls(layer)
        out[f"{layer}_s"] = secs(layer)
    out["channel.fidelity_unique_ratio"] = _ratio(
        count("channel.unique_pairs"), calls("channel.fidelity"))
    out["channel.trivial_quotient_ratio"] = _ratio(
        count("channel.trivial_quotients"), calls("channel.quotient"))
    out["channel.load_s"] = secs("channel.load")
    out["polarize.scan_s"] = secs("polarize.scan")
    out["polarize.peak_branches_frac"] = count("polarize.peak_branches_frac")
    out["polarize.peak_dim_frac"] = count("polarize.peak_dim_frac")
    out["linalg.max_dim"] = count("linalg.max_dim")
    out["linalg.decomp_work"] = count("linalg.decomp_work")
    out["diagonal.merge_s"] = secs("diagonal.merge")
    out["diagonal.merge_ratio"] = _ratio(
        count("diagonal.columns_out"), count("diagonal.columns_in"))
    out["diagonal.functional_s"] = secs("diagonal.functional")
    out["diagonal.quotient_s"] = secs("diagonal.quotient")
    out["diagonal.peak_alphabet_frac"] = count("diagonal.peak_alphabet_frac")
    for kind in ("pure", "dense", "diagonal"):
        out[f"decoder.plans_{kind}"] = count(f"decoder.plans_{kind}")
    out["decoder.trials"] = count("decoder.trials")
    out["decoder.init_s"] = secs("decoder.init")
    out["decoder.experiment_s"] = secs("decoder.experiment")
    out["decoder.transmit_s"] = secs("decoder.transmit")
    out["decoder.decode_s"] = secs("decoder.decode")
    out["decoder.conditional_states_s"] = secs("decoder.conditional_states")
    out["decoder.step_povm_calls"] = calls("decoder.step_povm")
    out["decoder.pgm_builds"] = calls("decoder.pgm_build")
    out["decoder.pgm_build_s"] = secs("decoder.pgm_build")
    out["decoder.povm_hit_ratio"] = _ratio(
        calls("decoder.step_povm") - calls("decoder.pgm_build"), calls("decoder.step_povm"))
    out["decoder.collapses"] = count("decoder.collapses")
    out["decoder.peak_dim_frac"] = count("decoder.peak_dim_frac")
    out["codes.plan_load_s"] = secs("codes.plan_load")
    out["codes.build_plan_s"] = secs("codes.build_plan")
    out["groups.subgroup_enum_s"] = secs("groups.subgroup_enum")
    out["cli.self_s"] = secs("cli")
    out["cli.bytes_written"] = count("cli.bytes_written")
    out["checks.instances"] = count("checks.instances")
    out["checks.vacuous_ratio"] = _ratio(count("checks.vacuous"), count("checks.instances"))
    out["checks.self_s"] = secs("checks.run")
    out["mac.region_s"] = secs("mac.region")
    out["mac.estimate_s"] = secs("mac.estimate")
    out["trace.spans"] = float(np.median([b - a for a, b, _ in tracer.passes]))
    return out
