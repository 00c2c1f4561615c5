"""Spans and counters around mdconv's public functions, installed from outside.

The tracer replaces each wrapped function in every `mdconv` module namespace
that holds it (modules import names from each other) and puts the originals
back on `uninstall`.  Spans (id, name, start, end, parent) stay in memory
until the benchmark writes them out.  Field operations are only counted:
a span per `mul` would cost more than the multiply itself.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional

from . import oracle

# (module, attribute) pairs wrapped with a span; "Class.method" names a method.
SPANNED = [
    ("galois", "make_field"),
    ("multipoly", "PolyMatrix.matmul"),
    ("multipoly", "PolyMatrix.has_full_row_rank"),
    ("superreg", "is_superregular"),
    ("superreg", "random_superregular"),
    ("superreg", "cauchy_matrix"),
    ("superreg", "nullspace"),
    ("codes", "phi_flatten"),
    ("codes", "phi_lift"),
    ("codes", "certify"),
    ("codes", "construct_mds_rate_1n"),
    ("codes", "construct_mds_staircase"),
    ("codes", "singleton_witness"),
    ("distance", "free_distance_estimate"),
    ("distance", "encode"),
    ("cli", "main"),
]
COUNTED = ["mul", "inv", "add"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: int  # the outermost span on the stack: one benchmark operation
    thread: int
    attrs: dict
    weight: Any = 1  # a Fraction for spans that stand for 1/R of R rounds

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request, "thread": self.thread,
                **self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = {op: 0 for op in COUNTED}
        self._local = threading.local()
        self._ids = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def operation(self, name, fn):
        """Run one benchmark operation under a root span named after it."""
        return self._span("bench.op", fn, (), {}, {"op": name})

    def _span(self, name, fn, args, kwargs, attrs=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        self._ids += 1
        sid = self._ids
        parent = stack[-1] if stack else None
        request = stack[0] if stack else sid
        stack.append(sid)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        if attrs is None:
            attrs = _attrs(name, args, kwargs, result, time.process_time() - cpu0)
        self.spans.append(Span(sid, name, t0, t1, parent, request, threading.get_ident(),
                               attrs))
        return result

    # -- installation -----------------------------------------------------

    def install(self):
        import mdconv
        for modname, _ in SPANNED:
            importlib.import_module(f"mdconv.{modname}")
        # The benchmark's own modules hold imported names too.
        mods = [m for n, m in list(sys.modules.items()) if m is not None and (
            n == "mdconv" or n.startswith("mdconv.") or n.startswith("perfbench."))]
        for modname, attr in SPANNED:
            owner = sys.modules[f"mdconv.{modname}"]
            name = f"{modname}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
            else:
                orig = getattr(owner, attr)
                wrapped = self._wrap(name, orig)
                for mod in mods:
                    if getattr(mod, attr, None) is orig:
                        self._patch(mod, attr, orig, wrapped)
        FF = mdconv.FiniteField
        for op in COUNTED:
            orig = FF.__dict__[op]
            self._patch(FF, op, orig, self._count(op, orig))

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def _patch(self, obj, attr, orig, new):
        self._restore.append((obj, attr, orig))
        setattr(obj, attr, new)

    def _wrap(self, name, fn):
        span = self._span

        def wrapper(*args, **kwargs):
            return span(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, op, fn):
        counts = self.counts

        def counted(*args):
            counts[op] += 1
            return fn(*args)
        return counted

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_json()) + "\n")


def _attrs(name, args, kwargs, result, cpu) -> dict:
    """Facts a span keeps about its call, read from arguments and result."""
    if name == "superreg.is_superregular":
        return {"verdict": result.verdict, "minors": result.minors_checked}
    if name == "distance.free_distance_estimate":
        G = args[0] if args else kwargs["G"]
        cap = args[1] if len(args) > 1 else kwargs["cap"]
        space = oracle.normalized_message_count(G.field.q, G.rows, cap, G.m)
        return {"tried": result.messages_tried, "space": space, "cpu": cpu}
    if name == "cli.main":
        argv = (args[0] if args else kwargs.get("argv")) or []
        sub = next((a for a in argv if not a.startswith("-")), "")
        return {"subcommand": sub}
    return {}


# ---------------------------------------------------------------------------
# Per-layer figures from spans
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], counts: dict) -> dict[str, float]:
    """Per-layer sums over `spans`, each span counted with its `weight`.

    Ratios are formed from the weighted sums.
    """
    by_id = {s.id: s for s in spans}
    named = lambda n: [s for s in spans if s.name == n]
    total = lambda ss, f=lambda s: s.end - s.start: sum(f(s) * s.weight for s in ss)
    ratio = lambda a, b: a / b if b else 0.0

    def under(s, ancestor_name):
        p = s.parent
        while p is not None and p in by_id:
            if by_id[p].name == ancestor_name:
                return True
            p = by_id[p].parent
        return False

    scans = named("superreg.is_superregular")
    passed = [s for s in scans if s.attrs["verdict"]]
    failed = [s for s in scans if not s.attrs["verdict"]]
    tries = [s for s in scans if under(s, "superreg.random_superregular")]
    dists = named("distance.free_distance_estimate")
    tried = total(dists, lambda s: s.attrs["tried"])
    space = total(dists, lambda s: s.attrs["space"])
    d_wall = total(dists)
    scan_s = total(scans)
    matmuls = named("multipoly.matmul")
    own = self_times(spans)

    out = {
        "galois.mul_calls": counts["mul"],
        "galois.inv_calls": counts["inv"],
        "galois.add_calls": counts["add"],
        "superreg.scans": total(scans, lambda s: 1),
        "superreg.scans_failed": total(failed, lambda s: 1),
        "superreg.minors_checked.pass": total(passed, lambda s: s.attrs["minors"]),
        "superreg.minors_checked.fail": total(failed, lambda s: s.attrs["minors"]),
        "superreg.scan_s.pass": total(passed),
        "superreg.scan_s.fail": total(failed),
        "superreg.minors_per_s": ratio(total(scans, lambda s: s.attrs["minors"]), scan_s),
        "superreg.search_tries": total(tries, lambda s: 1),
        "superreg.search_yield": ratio(total(named("superreg.random_superregular"), lambda s: 1),
                                       total(tries, lambda s: 1)),
        "codes.flatten_s": total(named("codes.phi_flatten")),
        "codes.lift_s": total(named("codes.phi_lift")),
        "codes.certify_self_s": total(named("codes.certify"))
        - total([s for s in scans if under(s, "codes.certify")]),
        "multipoly.matmul_calls": total(matmuls, lambda s: 1),
        "multipoly.matmul_s": total([s for s in matmuls if not under(s, "multipoly.matmul")]),
        "multipoly.row_rank_s": total(named("multipoly.has_full_row_rank")),
        "distance.calls": total(dists, lambda s: 1),
        "distance.messages_tried": tried,
        "distance.search_space": space,
        "distance.tried_share": ratio(tried, space),
        "distance.scan_s": d_wall,
        "distance.msgs_per_s": ratio(tried, d_wall),
        "distance.cpu_per_wall": ratio(total(dists, lambda s: s.attrs["cpu"]), d_wall),
    }
    for mod in ("galois", "multipoly", "superreg", "codes", "distance", "cli"):
        out[f"self_s.{mod}"] = sum(own[s.id] * s.weight for s in spans
                                   if s.name.startswith(mod + "."))
    return out
