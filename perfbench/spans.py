"""Outside-in tracing of the cjrio layers for the benchmark's traced run.

Nothing under ``src/`` knows about tracing.  :func:`instrument` replaces the
public functions of each layer, in the namespaces its callers look them up
in, with wrappers that record one span per call; :meth:`Tracer.uninstall`
puts every original back.  Spans stay in memory as flat arrays and are
aggregated, and written out, after the run.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from time import perf_counter_ns

NODE_KINDS = ("entangle", "transfer", "consent", "concentrate", "first_op",
              "hop_link", "hop_close", "joint_measure", "control_measure",
              "polar_fix", "to_spatial")
OPTICS = ("apply_bbs", "apply_hwp", "apply_qwp", "apply_pbs",
          "apply_pauli_spatial", "apply_pauli_polar", "apply_su2_spatial")
KERR = ("fresh_probe", "kerr", "enumerate_homodyne")
ORACLE = ("brute_force_correction", "direct_apply", "target_fidelity")
PAULI_SPANS = ("optics.apply_pauli_spatial", "optics.apply_pauli_polar")
OP_SPAN = "bench.op"


class Tracer:
    """Span recorder plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.op_id = -1
        self.patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []

    # -- spans -------------------------------------------------------------

    def name_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with one span per call; ``on_result`` sees each result."""
        nid = self.name_of(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Generator function ``fn`` with one span per item produced."""
        nid = self.name_of(name)

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                yield item

        return traced

    # -- patches -----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Patched attributes that do not hold their original any more."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self.patched
                if getattr(owner, attr) is not original]

    # -- output --------------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, inclusive ns and self ns; and per
        (parent name, child name) pair: calls and inclusive ns."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls, incl, self_ns = Counter(), Counter(), Counter()
        pair_calls, pair_incl = Counter(), Counter()
        names, nid, parent = self.names, self.name_id, self.parent
        for i in range(n):
            name = names[nid[i]]
            calls[name] += 1
            incl[name] += dur[i]
            self_ns[name] += dur[i] - child[i]
            if parent[i] >= 0:
                key = (names[nid[parent[i]]], name)
                pair_calls[key] += 1
                pair_incl[key] += dur[i]
        return calls, incl, self_ns, pair_calls, pair_incl

    def write_tsv(self, path) -> None:
        """Every span as ``span op parent name start_ns end_ns``, times relative
        to the first span, one line each, gzip-compressed."""
        t0 = self.start[0] if len(self.start) else 0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\top\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.op[i]}\t{self.parent[i]}\t"
                         f"{names[self.name_id[i]]}\t{self.start[i] - t0}\t"
                         f"{self.end[i] - t0}\n")


def instrument(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the cjrio package."""
    from cjrio import cli, hilbert, oracle, protocol, stages

    # protocol.py, oracle.py, stages.py and cli.py bind these names at
    # import, so the wrappers go into each caller's namespace.
    for fn in OPTICS:
        tracer.patch(protocol, fn, tracer.wrap(f"optics.{fn}", getattr(protocol, fn)))
    for fn in ("apply_pauli_spatial", "apply_pauli_polar"):
        tracer.patch(oracle, fn, tracer.wrap(f"optics.{fn}", getattr(oracle, fn)))

    def outcomes(counter):
        def count(result):
            tracer.counts[counter] += len(result)
        return count

    for fn in KERR:
        on_result = outcomes("kerr.enumerate_homodyne.outcomes") if fn == "enumerate_homodyne" else None
        tracer.patch(protocol, fn, tracer.wrap(f"kerr.{fn}", getattr(protocol, fn), on_result))
    tracer.patch(protocol, "enumerate_measurement",
                 tracer.wrap("hilbert.enumerate_measurement", protocol.enumerate_measurement,
                             outcomes("hilbert.enumerate_measurement.outcomes")))

    # protocol.py calls these as oracle.<name>, looked up at call time.
    for fn in ORACLE:
        tracer.patch(oracle, fn, tracer.wrap(f"oracle.{fn}", getattr(oracle, fn)))
    for fn in ("direct_apply", "target_fidelity"):
        tracer.patch(cli, fn, tracer.wrap(f"oracle.{fn}", getattr(cli, fn)))
    tracer.patch(stages, "direct_apply", tracer.wrap("oracle.direct_apply", stages.direct_apply))

    def count_mismatch(result):
        if result is not None:
            tracer.counts["stages.check.mismatches"] += 1

    make_checker = stages.make_stage_checker

    def make_stage_checker(config):
        return tracer.wrap("stages.check", make_checker(config), count_mismatch)

    tracer.patch(stages, "make_stage_checker", make_stage_checker)

    build = tracer.wrap("protocol.setup", protocol.build_protocol)

    def build_protocol(*args, **kwargs):
        proto = build(*args, **kwargs)
        for node in proto.nodes:
            node.run = tracer.wrap("protocol.node." + node.name.split("[")[0], node.run)
        return proto

    tracer.patch(protocol, "build_protocol", build_protocol)
    tracer.patch(protocol, "run_full", tracer.wrap("protocol.driver", protocol.run_full))
    for owner in (protocol, cli):
        tracer.patch(owner, "iter_branches",
                     tracer.wrap_generator("protocol.driver", owner.iter_branches))
    tracer.patch(cli, "main", tracer.wrap("cli.main", cli.main))

    # A timing span would cost more than the lookup, so this one only counts.
    index_of = hilbert.HybridState.index_of

    def counted_index_of(state, photon):
        tracer.counts["hilbert.index_of.calls"] += 1
        return index_of(state, photon)

    tracer.patch(hilbert.HybridState, "index_of", counted_index_of)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer numbers from the recorded spans, as name -> (value, unit).

    Times are ms per op; a layer a workload never enters reads 0.
    """
    calls, incl, self_ns, pair_calls, pair_incl = tracer.aggregate()
    op_ns = incl[OP_SPAN]
    out: dict[str, tuple[float, str]] = {}

    def per_op(value, unit):
        return (value / n_ops, unit)

    def ms(name):
        return per_op(self_ns[name] / 1e6, "ms")

    out["protocol.setup.calls"] = per_op(calls["protocol.setup"], "count")
    out["protocol.setup.self_ms"] = ms("protocol.setup")
    for kind in NODE_KINDS:
        name = f"protocol.node.{kind}"
        out[f"{name}.visits"] = per_op(calls[name], "count")
        out[f"{name}.self_ms"] = ms(name)
    out["protocol.driver.self_ms"] = ms("protocol.driver")
    for fn in OPTICS:
        out[f"optics.{fn}.calls"] = per_op(calls[f"optics.{fn}"], "count")
        out[f"optics.{fn}.self_ms"] = ms(f"optics.{fn}")
    for fn in KERR:
        out[f"kerr.{fn}.calls"] = per_op(calls[f"kerr.{fn}"], "count")
        out[f"kerr.{fn}.self_ms"] = ms(f"kerr.{fn}")
    out["kerr.enumerate_homodyne.outcomes"] = per_op(
        tracer.counts["kerr.enumerate_homodyne.outcomes"], "count")
    em = "hilbert.enumerate_measurement"
    out[f"{em}.calls"] = per_op(calls[em], "count")
    out[f"{em}.self_ms"] = ms(em)
    out[f"{em}.outcomes"] = per_op(tracer.counts[f"{em}.outcomes"], "count")
    out["hilbert.index_of.calls"] = per_op(tracer.counts["hilbert.index_of.calls"], "count")

    bf = "oracle.brute_force_correction"
    out[f"{bf}.calls"] = per_op(calls[bf], "count")
    out[f"{bf}.self_ms"] = ms(bf)
    for fn in ("direct_apply", "target_fidelity"):
        out[f"oracle.{fn}.calls"] = per_op(calls[f"oracle.{fn}"], "count")
        out[f"oracle.{fn}.self_ms"] = ms(f"oracle.{fn}")
    candidates = sum(pair_calls[(bf, p)] for p in PAULI_SPANS)
    out["oracle.pauli_candidates_per_check"] = (
        candidates / calls[bf] if calls[bf] else 0.0, "ratio")

    out["stages.check.calls"] = per_op(calls["stages.check"], "count")
    out["stages.check.self_ms"] = ms("stages.check")
    out["stages.check.mismatches"] = per_op(tracer.counts["stages.check.mismatches"], "count")

    traverse = pair_incl[("cli.main", "protocol.driver")]
    fidelity = pair_incl[("cli.main", "oracle.target_fidelity")]
    out["cli.traverse_ms"] = per_op(traverse / 1e6, "ms")
    out["cli.fidelity_ms"] = per_op(fidelity / 1e6, "ms")
    out["cli.report_ms"] = per_op((incl["cli.main"] - traverse - fidelity) / 1e6, "ms")

    out["trace.spans"] = per_op(len(tracer.start), "count")
    out["trace.traced_op_ms"] = per_op(op_ns / 1e6, "ms")
    return out
