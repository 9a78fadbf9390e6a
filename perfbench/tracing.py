"""Per-layer tracing by wrapping the library's public functions from outside.

Every function the package exports from its eight modules is wrapped, plus
``closure.tuple_code``, ``cli.main`` and three methods.  A wrapped call
records a span (name, start, end, parent span, task) and its self time:
span time minus the time of traced child calls.  The four hot leaves
(``tuple_code``, ``qftp``, ``FiniteTree``, ``partial_isomorphism``) keep no
span of their own; their count and self time are summed under the nearest
kept span instead.  Spans stay in memory until :meth:`Tracer.write`.

Wrappers replace every module-level binding of the original function in
the package, so by-name imports (``from .closure import tuple_code``) are
traced too.  Recording happens only while ``active`` is set, that is,
inside timed task calls.
"""

from __future__ import annotations

import inspect
import json
from time import perf_counter

MODULES = ("trees", "plan", "closure", "counting", "logic", "efgame", "analysis", "cli")
EXTRA_FUNCTIONS = (("closure", "tuple_code"), ("cli", "main"))
METHODS = (
    ("efgame", "ExhaustiveSpoiler", "pick", "efgame.ExhaustiveSpoiler.pick"),
    ("efgame", "ClosureDuplicator", "respond", "efgame.ClosureDuplicator.respond"),
    ("trees", "FiniteTree", "__init__", "trees.FiniteTree"),
)
HOT = frozenset({
    "closure.tuple_code", "trees.qftp", "trees.FiniteTree", "efgame.partial_isomorphism",
})


class _Frame:
    __slots__ = ("name", "hot", "start", "child", "owner", "span_id", "parent_id",
                 "tuple_code_calls", "leaves")

    def __init__(self, name, hot, parent):
        self.name = name
        self.hot = hot
        self.child = 0.0
        if hot:
            self.owner = parent.owner if parent is not None else None
        else:
            self.owner = self
            self.parent_id = parent.owner.span_id if parent is not None and parent.owner else None
            self.tuple_code_calls = 0
            self.leaves = {}


class Tracer:
    def __init__(self):
        self.active = False
        self.task = None
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # recording

    def _enter(self, name: str, hot: bool) -> _Frame:
        stack = self.stack
        frame = _Frame(name, hot, stack[-1] if stack else None)
        if not hot:
            frame.span_id = self._next_id
            self._next_id += 1
        stack.append(frame)
        frame.start = perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
        name = frame.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        if frame.hot:
            owner = frame.owner
            if owner is not None:
                if name == "closure.tuple_code":
                    owner.tuple_code_calls += 1
                agg = owner.leaves.get(name)
                if agg is None:
                    owner.leaves[name] = [1, own]
                else:
                    agg[0] += 1
                    agg[1] += own
            if name == "trees.qftp" and parent is not None and parent.name == "closure.tuple_code":
                self.bump("closure.tuple_code.misses")
            return
        if parent is not None and parent.owner is not None:
            parent.owner.tuple_code_calls += frame.tuple_code_calls
        self.bump(f"{name}.tuple_code_calls", frame.tuple_code_calls)
        self.spans.append((frame.span_id, frame.parent_id, self.task, name,
                           frame.start, end, own, frame.leaves))

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def wrap(self, name, fn, label=None, after=None):
        """Traced stand-in for ``fn``; ``label(args, kwargs)`` may rename the
        span, ``after(tracer, args, result)`` adds counts."""
        tracer = self
        hot = name in HOT

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(label(args, kwargs) if label else name, hot)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame)
                tracer.bump(f"{name}.errors")
                raise
            tracer._exit(frame)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    # installation

    def install(self, tp) -> None:
        """Wrap the public functions of ``tp`` (the imported package)."""
        modules = {m: getattr(tp, m) for m in MODULES}
        targets = {}
        for export in tp.__all__:
            obj = getattr(tp, export)
            if inspect.isfunction(obj) and obj.__module__.startswith(tp.__name__ + "."):
                targets[obj] = f"{obj.__module__.rsplit('.', 1)[1]}.{export}"
        for module, attr in EXTRA_FUNCTIONS:
            targets[getattr(modules[module], attr)] = f"{module}.{attr}"

        wrappers = {
            fn: self.wrap(name, fn, _LABELS.get(name), _AFTER.get(name))
            for fn, name in targets.items()
        }
        for module in (tp, *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        for module, cls_name, attr, name in METHODS:
            cls = getattr(modules[module], cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), None, _AFTER.get(name)))

    # ------------------------------------------------------------------
    # results

    def layer_metrics(self, names) -> dict[str, float]:
        """Values of the named metrics: ``<span>.calls``, ``<span>.self_s``,
        or a count recorded under that name."""
        out: dict[str, float] = {}
        for name in names:
            stem, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls.get(stem, 0)
            elif field == "self_s":
                out[name] = self.self_s.get(stem, 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        calls = self.calls.get("closure.tuple_code", 0)
        misses = self.counts.get("closure.tuple_code.misses", 0)
        out["closure.tuple_code.hit_ratio"] = (calls - misses) / calls if calls else 0.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent_id, task, name, start, end, own, leaves in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent_id, "task": task, "name": name,
                    "start": start, "end": end, "self_s": own,
                    "leaves": {k: {"calls": c, "self_s": s} for k, (c, s) in leaves.items()},
                }) + "\n")


def _evaluate_label(args, kwargs):
    fast = kwargs["fast"] if "fast" in kwargs else (len(args) > 3 and args[3])
    return "logic.evaluate.fast" if fast else "logic.evaluate.plain"


def _count_expand(tracer, _args, result):
    tracer.bump("plan.expand.nodes", len(result))


def _count_tree(tracer, args, _result):
    tracer.bump("trees.FiniteTree.nodes", len(args[0].nodes))


def _count_rows(tracer, _args, result):
    tracer.bump("counting.verify_Q.rows", len(result.rows))


def _count_notes(tracer, _args, result):
    for line in result.transcript.splitlines():
        if line.startswith("# budget"):
            tracer.bump("efgame.spoiler_fallbacks")
        elif line.startswith("# capacity exhausted"):
            tracer.bump("efgame.duplicator_capacity_notes")


_LABELS = {"logic.evaluate": _evaluate_label}
_AFTER = {
    "plan.expand": _count_expand,
    "trees.FiniteTree": _count_tree,
    "counting.verify_Q": _count_rows,
    "efgame.play": _count_notes,
}
