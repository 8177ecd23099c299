"""Per-layer tracing from outside the library.

The tracer replaces public entry points of the ``demazure`` modules with
timing wrappers for the length of one traced job, and puts the originals
back afterwards.  Nothing under ``src/`` knows about it.

Every wrapped call lands on one stack, so a call's *self time* is its
duration minus the durations of the wrapped calls made directly inside it.
Hot leaf calls (S and Q arithmetic, Bruhat tests, ...) are aggregated into
per-name counts and self time; the coarse entry points (``dual`` methods,
``b_row``, ``cli.main``, the benchmark's phases) are also kept as spans
``(name, start, end, parent, run id)`` and written out when the job ends.

One hook is not public: ``demazure.formal._divide_selem``.  ``_normalize``
looks it up as a module global on every trial division, so replacing that
global is the only way to count tried and failed divisions from outside.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from typing import Callable

# (metric prefix, module, attribute path, keep spans)
ENTRY_POINTS = (
    ("rootdata.build_root_datum", "demazure.rootdata", "build_root_datum", True),
    ("rootdata.demazure_product", "demazure.rootdata", "RootDatum.demazure_product", False),
    ("rootdata.element_by_word", "demazure.rootdata", "RootDatum.element_by_word", False),
    ("rootdata.bruhat_leq", "demazure.rootdata", "RootDatum.bruhat_leq", False),
    ("formal.smul", "demazure.formal", "SElem.__mul__", False),
    ("formal.qmul", "demazure.formal", "QElem.__mul__", False),
    ("formal.qadd", "demazure.formal", "QElem.__add__", False),
    ("formal.q_equal", "demazure.formal", "q_equal", False),
    ("formal.weyl_act_q", "demazure.formal", "weyl_act_q", False),
    ("formal.divide", "demazure.formal", "_divide_selem", False),
    ("twisted.b_row", "demazure.twisted", "Algebra.b_row", True),
    ("twisted.compose_word", "demazure.twisted", "Algebra.compose_word", False),
    ("twisted.c_supports", "demazure.twisted", "Algebra.c_supports", False),
    ("twisted.leibniz_coefficient", "demazure.twisted", "Algebra.leibniz_coefficient", False),
    ("twisted.billey_closed_form", "demazure.twisted", "Algebra.billey_closed_form", False),
    ("dual.dual_basis_element", "demazure.dual", "DualBasis.dual_basis_element", True),
    ("dual.product_oracle", "demazure.dual", "DualBasis.product_oracle", True),
    ("dual.expand", "demazure.dual", "DualBasis.expand", True),
    ("dual.structure_constant", "demazure.dual", "DualBasis.structure_constant", True),
    ("dual.restriction", "demazure.dual", "DualBasis.restriction", True),
    ("dual.restriction_via_billey", "demazure.dual", "DualBasis.restriction_via_billey", True),
    ("serialize.qelem_to_json", "demazure.serialize", "qelem_to_json", False),
    ("serialize.qelem_to_str", "demazure.serialize", "qelem_to_str", False),
    ("serialize.dumps_canonical", "demazure.serialize", "dumps_canonical", True),
    ("cli.main", "demazure.cli", "main", True),
)

# ``QElem.__rmul__`` is the same function as ``__mul__``; both slots get the wrapper.
_ALIASES = {"QElem.__mul__": ("QElem.__rmul__",)}


class Tracer:
    """Call stack, per-name aggregates and spans for one traced job."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.stack: list[list] = []  # frames: [child time, span index or None]
        self.stats: dict[str, list] = {}  # name -> [calls, self time]
        self.spans: list[list] = []  # [name, start, end, parent span index, run id]
        self.divide_failed = 0
        self.compose_keys: set = set()

    def _parent_span(self) -> int | None:
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def wrap(self, name: str, fn: Callable, keep_span: bool, observe=None) -> Callable:
        """``fn`` with its calls counted and timed under ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, spans, clock, run_id = self.stack, self.spans, self.clock, self.run_id

        def wrapper(*args, **kwargs):
            span = None
            if keep_span:
                span = len(spans)
                spans.append([name, 0.0, 0.0, self._parent_span(), run_id])
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span is not None:
                    spans[span][1] = start
                    spans[span][2] = end
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def run(self, name: str, fn: Callable):
        """Call ``fn()`` inside a span named ``name`` (the benchmark's phases)."""
        return self.wrap(name, fn, keep_span=True)()

    def _observe_divide(self, args, result) -> None:
        if result is None:
            self.divide_failed += 1

    def _observe_compose(self, args, result) -> None:
        algebra, word = args[0], args[1]
        self.compose_keys.add((id(algebra), tuple(word)))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        observers = {
            "formal.divide": self._observe_divide,
            "twisted.compose_word": self._observe_compose,
        }
        # Import every module first, so none copies a wrapper by ``from ... import``.
        modules = {entry[1]: importlib.import_module(entry[1]) for entry in ENTRY_POINTS}
        undo: list[tuple[object, str, object]] = []
        try:
            for name, module_name, path, keep_span in ENTRY_POINTS:
                module = modules[module_name]
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr]
                wrapper = self.wrap(name, original, keep_span, observers.get(name))
                targets = [(owner, attr)]
                for alias in _ALIASES.get(path, ()):
                    targets.append(_resolve(module, alias))
                if owner is module:
                    # Also rebind ``from module import name`` copies elsewhere.
                    targets.extend(_rebinding_sites(module, attr, original))
                for target, target_attr in targets:
                    undo.append((target, target_attr, getattr(target, target_attr)))
                    setattr(target, target_attr, wrapper)
            yield self
        finally:
            for target, attr, value in reversed(undo):
                setattr(target, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of this job (calls, self time, ratios)."""
        out: dict[str, float] = {}
        for name, (calls, self_s) in self.stats.items():
            if name.startswith("phase."):
                continue
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        tried = out.pop("formal.divide.calls")
        out["formal.divide.tried"] = tried
        out["formal.divide.failed"] = self.divide_failed
        out["formal.divide.useful_ratio"] = (
            (tried - self.divide_failed) / tried if tried else 0.0
        )
        calls = out["twisted.compose_word.calls"]
        out["twisted.compose_word.hit_ratio"] = (
            (calls - len(self.compose_keys)) / calls if calls else 0.0
        )
        out["twisted.b_row.classes_share"] = self.covered_share(
            "twisted.b_row", "phase.classes"
        )
        return out

    def covered_share(self, name: str, within: str) -> float:
        """Share of the ``within`` spans' time spent in outermost ``name`` spans."""
        inside = {i for i, span in enumerate(self.spans) if span[0] == within}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in inside)
        if not total:
            return 0.0
        covered = 0.0
        for index, span in enumerate(self.spans):
            if span[0] != name:
                continue
            ancestors = set(self._ancestors(index))
            if ancestors & inside and not any(self.spans[a][0] == name for a in ancestors):
                covered += span[2] - span[1]
        return covered / total

    def _ancestors(self, index: int):
        parent = self.spans[index][3]
        while parent is not None:
            yield parent
            parent = self.spans[parent][3]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "run": run_id}
                    )
                    + "\n"
                )


def _resolve(module, path: str) -> tuple[object, str]:
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebinding_sites(module, attr: str, original) -> list[tuple[object, str]]:
    sites = []
    for name, other in list(sys.modules.items()):
        if other is module or not (name == "demazure" or name.startswith("demazure.")):
            continue
        if getattr(other, attr, None) is original:
            sites.append((other, attr))
    return sites
