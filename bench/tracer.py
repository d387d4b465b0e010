"""Traced launcher: one ``moranlab`` CLI invocation with spans around its layers.

    python3 bench/tracer.py SPANS_FILE INVOCATION_ID -- <moranlab arguments>

It imports ``moranlab.cli``, replaces each layer function named in ``SPANS``
and ``COUNTERS`` by a wrapper (by identity, in every ``moranlab.*`` module
namespace and module-level dict that holds it, because ``delsum``,
``distribution`` and ``cli`` import names directly and ``cli`` dispatches
through a dict), then calls ``moranlab.cli.main`` and exits with its code.

A span records its name, wall start and end (``perf_counter``), thread CPU
start and end (``thread_time``) and its parent. Parent stacks and span
buffers are kept per thread, because ``fourier`` can run a thread pool; a
span opened in a pool thread has no parent. Spans stay in memory and are
written to SPANS_FILE when ``main`` returns: one JSON header line, then per
thread six ``array`` blocks (name ids, parents, t0, t1, c0, c1). ``run.py``
reduces them to self times. Counters are per-thread dicts merged at exit.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from array import array

_perf = time.perf_counter
_cpu = time.thread_time

# span name -> (module, attribute). Several functions may share a span name.
SPANS = [
    ("fourier.mask_interval", "moranlab.fourier", "mask_interval"),
    ("fourier.mu_hat_modulus", "moranlab.fourier", "mu_hat_modulus"),
    ("fourier.digit_decay_bound", "moranlab.fourier", "digit_decay_bound"),
    ("delsum.del_partial", "moranlab.delsum", "del_partial"),
    ("delsum.block_trend", "moranlab.delsum", "block_trend"),
    ("radix.to_digits", "moranlab.radix", "to_digits"),
    ("distribution.verify_partition", "moranlab.distribution", "verify_partition"),
    ("distribution.classify_Bk", "moranlab.distribution", "classify_Bk"),
    ("numtheory.build_context", "moranlab.numtheory", "build_context"),
    ("numtheory.round_threshold", "moranlab.numtheory", "round_threshold"),
    ("numtheory.order_by_crt", "moranlab.numtheory", "order_by_crt"),
    ("measure.sample_point", "moranlab.measure", "sample_point"),
    ("measure.normality_report", "moranlab.measure", "normality_report"),
    ("measure.uniqueness_avoidance", "moranlab.measure", "uniqueness_avoidance"),
    ("dimension.build_convolved", "moranlab.dimension", "build_convolved"),
    ("dimension.ball_measure", "moranlab.dimension", "ball_measure"),
    ("cli.context", "moranlab.cli", "cmd_context"),
    ("cli.fourier", "moranlab.cli", "cmd_fourier"),
    ("cli.del", "moranlab.cli", "cmd_del"),
    ("cli.partition", "moranlab.cli", "cmd_partition"),
    ("cli.normality", "moranlab.cli", "cmd_normality"),
    ("cli.uniqueness", "moranlab.cli", "cmd_uniqueness"),
    ("cli.dimension", "moranlab.cli", "cmd_dimension"),
    # artifact writing and stamping; write_batch_csv also evaluates the batch,
    # whose mu_hat_modulus and digit_decay_bound spans are its children
    ("cli.io", "moranlab.cli", "_stamp_csv"),
    ("cli.io", "moranlab.cli", "_write_json_report"),
    ("cli.io", "moranlab.fourier", "write_batch_csv"),
    ("cli.io", "moranlab.delsum", "write_del_csv"),
    ("cli.io", "moranlab.delsum", "write_block_csv"),
    ("cli.io", "moranlab.distribution", "write_histogram_csv"),
    ("cli.io", "moranlab.measure", "write_normality_csv"),
    ("cli.io", "moranlab.measure", "write_uniqueness_csv"),
    ("cli.io", "moranlab.dimension", "write_ball_csv"),
    ("cli.io", "moranlab.dimension", "write_local_dim_csv"),
]

# counted, not timed: these run too often for a span to be cheap
COUNTERS = [
    ("radix.base_at.calls", "moranlab.radix", "PrimeSchedule.base_at"),
    ("dimension.h_of_r.calls", "moranlab.dimension", "h_of_r"),
]


class _Buffer:
    """Spans, parent stack and counters of one thread."""

    __slots__ = ("stack", "names", "parents", "t0", "t1", "c0", "c1", "counts")

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.names = array("i")
        self.parents = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.c0 = array("d")
        self.c1 = array("d")
        self.counts: dict[str, int] = {}


_local = threading.local()
_buffers: list[_Buffer] = []


def _buffer() -> _Buffer:
    try:
        return _local.buf
    except AttributeError:
        buf = _local.buf = _Buffer()
        _buffers.append(buf)
        return buf


def _add(buf: _Buffer, key: str, n: int) -> None:
    buf.counts[key] = buf.counts.get(key, 0) + n


# work counts read at a layer's boundary from its arguments and result
def _partition_points(buf: _Buffer, args, cert) -> None:
    _add(buf, "distribution.points", cert.length)
    longest = buf.counts.get("distribution.max_interval", 0)
    buf.counts["distribution.max_interval"] = max(longest, cert.length)


def _digits_examined(buf: _Buffer, args, reports) -> None:
    _add(buf, "measure.digits_examined", sum(r.trusted_digit_count for r in reports))


def _del_terms(buf: _Buffer, args, report) -> None:
    # the series sums |mu_hat| over every (m, n) pair with m, n < N, N = 1..N_max
    n = report.N_max
    _add(buf, "delsum.terms", n * (n + 1) * (2 * n + 1) // 6)


def _block_terms(buf: _Buffer, args, rows) -> None:
    # a block row sums |mu_hat(h(b^n - b^m))| over n = m+1 .. N_r - 1
    sch = args[0].schedule
    _add(buf, "delsum.terms", sum(max(0, sch.N[row.r] - row.m - 1) for row in rows))


_RESULT_HOOKS = {
    "distribution.verify_partition": _partition_points,
    "measure.normality_report": _digits_examined,
    "delsum.del_partial": _del_terms,
    "delsum.block_trend": _block_terms,
}


def _span(name_id: int, name: str, fn):
    hook = _RESULT_HOOKS.get(name)

    def wrapper(*args, **kwargs):
        buf = _buffer()
        idx = len(buf.names)
        buf.names.append(name_id)
        buf.parents.append(buf.stack[-1] if buf.stack else -1)
        buf.t1.append(0.0)
        buf.c1.append(0.0)
        buf.stack.append(idx)
        buf.t0.append(_perf())
        buf.c0.append(_cpu())
        try:
            result = fn(*args, **kwargs)
        finally:
            buf.c1[idx] = _cpu()
            buf.t1[idx] = _perf()
            buf.stack.pop()
        if hook is not None:
            hook(buf, args, result)
        return result

    return wrapper


def _counter(key: str, fn):
    def wrapper(*args, **kwargs):
        counts = _buffer().counts
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _replace(orig, wrapped) -> int:
    """Rebind every reference to orig in moranlab's module namespaces."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "moranlab" and not modname.startswith("moranlab."):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)
                hits += 1
            elif type(value) is dict:
                for dk, dv in list(value.items()):
                    if dv is orig:
                        value[dk] = wrapped
                        hits += 1
    return hits


def install() -> list[str]:
    """Wrap every function in SPANS and COUNTERS; fail if one is missing.
    Returns the span names, indexed by the name ids the spans record."""
    names: list[str] = []
    for name, modname, attr in SPANS:
        if name not in names:
            names.append(name)
        orig = getattr(sys.modules[modname], attr)
        if _replace(orig, _span(names.index(name), name, orig)) == 0:
            raise SystemExit(f"tracer: {modname}.{attr} not found")
    for key, modname, attr in COUNTERS:
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, _counter(key, vars(cls)[meth]))
        elif _replace(getattr(owner, attr), _counter(key, getattr(owner, attr))) == 0:
            raise SystemExit(f"tracer: {modname}.{attr} not found")
    return names


def write_spans(path: str, header: dict) -> None:
    counts: dict[str, int] = {}
    for buf in _buffers:
        for key, n in buf.counts.items():
            if key == "distribution.max_interval":
                counts[key] = max(counts.get(key, 0), n)
            else:
                counts[key] = counts.get(key, 0) + n
    header = dict(header, counts=counts, threads=[len(buf.names) for buf in _buffers])
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for buf in _buffers:
            for arr in (buf.names, buf.parents, buf.t0, buf.t1, buf.c0, buf.c1):
                arr.tofile(fh)


def main() -> int:
    spans_path, invocation = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE INVOCATION_ID -- ARGS...")
    argv = sys.argv[4:]
    t0 = _perf()
    import moranlab.cli

    import_s = _perf() - t0
    names = install()
    try:
        return moranlab.cli.main(argv)
    finally:
        write_spans(
            spans_path,
            {
                "invocation": invocation,
                "argv": argv,
                "import_s": import_s,
                "names": names,
                "enumeration_guard": moranlab.distribution.ENUMERATION_GUARD,
            },
        )


if __name__ == "__main__":
    raise SystemExit(main())
