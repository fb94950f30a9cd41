"""Spans for the traced run, recorded from outside the package.

`Tracer.install` replaces, in every loaded `hopfgalois` module, the public
functions and methods that `classify`, problem building and the CLI reach
by name with wrappers that record a span: name, start, end, parent span,
phase and problem.  `uninstall` puts the originals back, so untraced passes
in the same process pay nothing.  A target that no longer exists is
reported in `missing` and its metrics read 0 calls; nothing crashes.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from time import perf_counter

# (span name, module, attribute); "Class.attr" names a method.
SPANNED = (
    ("dsl.build_text", "hopfgalois.dsl", "build_text"),
    ("engine.ExtensionProblem", "hopfgalois.engine", "ExtensionProblem.__init__"),
    ("engine.coset_action", "hopfgalois.engine", "coset_action"),
    ("engine.enumerate_regular_normalized", "hopfgalois.engine",
     "enumerate_regular_normalized"),
    ("perms.is_regular", "hopfgalois.perms", "PermSet.is_regular"),
    ("perms.is_normalized_by", "hopfgalois.perms", "PermSet.is_normalized_by"),
    ("groups.from_permutations", "hopfgalois.groups", "FiniteGroup.from_permutations"),
    ("groups.closure_of", "hopfgalois.groups", "FiniteGroup.closure_of"),
    ("groups.subgroups", "hopfgalois.groups", "FiniteGroup.subgroups"),
    ("groups.normal_subgroups", "hopfgalois.groups", "FiniteGroup.normal_subgroups"),
    ("catalog.iso_type", "hopfgalois.catalog", "iso_type"),
    ("minimality.g_stable_subgroups", "hopfgalois.minimality", "g_stable_subgroups"),
    ("minimality.intermediate_subgroups", "hopfgalois.minimality",
     "intermediate_subgroups"),
    ("minimality.minimal_lower_bound", "hopfgalois.minimality", "minimal_lower_bound"),
    ("minimality.normal_complements", "hopfgalois.minimality", "normal_complements"),
    ("minimality.classify", "hopfgalois.minimality", "classify"),
    ("cli.main", "hopfgalois.cli", "main"),
)

# Called too often for a span each: only counted.
COUNTED = (
    ("perms.mul", "hopfgalois.perms", "Perm.__mul__"),
)

NAME, START, END, PARENT, PHASE, PROBLEM, SIZE = range(7)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, phase, problem, len(result)]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, object], int] = {}
        self.phase: object = None
        self.problem: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        self.missing = []
        for name, module, attr in SPANNED:
            self._patch(name, module, attr, self._spanned)
        for name, module, attr in COUNTED:
            self._patch(name, module, attr, self._counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, name, module, attr, make) -> None:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.missing.append(name)
            return
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            raw = vars(cls).get(meth) if isinstance(cls, type) else None
            if raw is None:
                self.missing.append(name)
                return
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(make(name, raw.__func__))
            else:
                wrapped = make(name, raw)
            setattr(cls, meth, wrapped)
            self._undo.append((cls, meth, raw))
            return
        original = getattr(mod, attr, None)
        if not callable(original):
            self.missing.append(name)
            return
        wrapped = make(name, original)
        # Rebind every name the function is imported under, so callers
        # that look it up in their own module's namespace see the wrapper.
        for mod_name, loaded in list(sys.modules.items()):
            if mod_name != "hopfgalois" and not mod_name.startswith("hopfgalois."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    self._undo.append((loaded, key, original))

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self.phase, self.problem, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if isinstance(result, list):
                rec[SIZE] = len(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            key = (name, self.phase)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- reading the spans --------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for rec in self.spans:
                out.write(json.dumps(rec) + "\n")


class PhaseView:
    """The spans and counts of one phase, such as one traced pass."""

    def __init__(self, tracer: Tracer, phase):
        self.tracer = tracer
        self.phase = phase
        spans = tracer.spans
        self.index = [i for i, rec in enumerate(spans) if rec[PHASE] == phase]
        self.child_time: dict[int, float] = {}
        for i in self.index:
            parent = spans[i][PARENT]
            if parent >= 0:
                self.child_time[parent] = (self.child_time.get(parent, 0.0)
                                           + spans[i][END] - spans[i][START])

    def _named(self, names):
        spans = self.tracer.spans
        return [i for i in self.index if spans[i][NAME] in names]

    def time(self, *names: str) -> float:
        """Wall time inside spans of the given names, each instant once."""
        spans = self.tracer.spans
        total = 0.0
        for i in self._named(names):
            parent = spans[i][PARENT]
            while parent >= 0 and spans[parent][NAME] not in names:
                parent = spans[parent][PARENT]
            if parent < 0:
                total += spans[i][END] - spans[i][START]
        return total

    def self_time(self, name: str) -> float:
        """Time inside `name` spans not covered by any of their children."""
        spans = self.tracer.spans
        return sum(spans[i][END] - spans[i][START] - self.child_time.get(i, 0.0)
                   for i in self._named((name,)))

    def calls(self, name: str) -> int:
        return len(self._named((name,)))

    def sizes(self, name: str, parent: str | None = None) -> int:
        """Summed result lengths of `name` spans, optionally only those
        called directly from a `parent` span."""
        spans = self.tracer.spans
        return sum(spans[i][SIZE] or 0 for i in self._named((name,))
                   if parent is None
                   or (spans[i][PARENT] >= 0
                       and spans[spans[i][PARENT]][NAME] == parent))

    def count(self, name: str) -> int:
        return self.tracer.counts.get((name, self.phase), 0)
