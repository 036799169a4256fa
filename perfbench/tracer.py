"""Outside-in tracer: wraps layer entry points of the aesfec package.

Only the traced repetition installs the wrappers; end-to-end repetitions
never import this module. Spans are kept in memory as
(name, start, end, parent index) and turned into self times at the end.
Attributes are looked up by name, so an entry point that a refactor
removed is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute path, span name)
ENTRY_POINTS = (
    ("aesfec.campaign", "run_campaign", "campaign.run"),
    ("aesfec.campaign", "_PointContext.run_batch", "campaign.batch"),
    ("aesfec.campaign", "_grand_engine", "grand.search"),
    ("aesfec.campaign", "_orb_engine", "grand.search"),
    ("aesfec.codes", "AesPadOracle.decode_batch", "codes.oracle"),
    ("aesfec.codes", "RlcOracle.decode_batch", "codes.oracle"),
    ("aesfec.codes", "RlcCode.encode_bits", "codes.encode"),
    ("aesfec.aes_core", "Aes128.encrypt_batch", "aes_core.encrypt"),
    ("aesfec.aes_core", "Aes128.decrypt_batch", "aes_core.decrypt"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """In-memory span recorder with per-span-name call counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.stack = []
        self.counts = defaultdict(int)
        self.missing = []
        self._installed = []
        self._queried = set()  # batch spans whose first query was seen

    def span(self, name, fn):
        """Return fn wrapped so each call records one span named `name`."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            rec = [name, time.perf_counter(), 0.0, parent]
            tracer.spans.append(rec)
            tracer.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            tracer._count(name, args, kwargs, out, parent)
            return out

        return traced

    def _count(self, name, args, kwargs, out, parent):
        c = self.counts
        if name == "campaign.batch":
            c["batch.blocks"] += int(_arg(args, kwargs, 2, "size"))
        elif name == "grand.search":
            c["search.blocks"] += 1
            c["search.queries"] += int(out[1])
        elif name == "codes.oracle":
            words = len(_arg(args, kwargs, 1, "words"))
            c["oracle.calls"] += 1
            c["oracle.words"] += words
            # The first oracle call inside a batch is the batched first query.
            if parent >= 0 and self.spans[parent][0] == "campaign.batch" and parent not in self._queried:
                self._queried.add(parent)
                c["first_query.words"] += words
                c["first_query.accepted"] += int(out[0].sum())
        elif name == "aes_core.decrypt":
            c["decrypt.words"] += len(_arg(args, kwargs, 1, "blocks"))

    def install(self, entry_points=ENTRY_POINTS):
        """Wrap every entry point that still exists; record the rest as missing."""
        for module_name, path, name in entry_points:
            *owners, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owners:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self.span(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed = []

    def self_times(self):
        """{span name: (self seconds, inclusive seconds, calls)}.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the campaign runs in one thread.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            s, inc, n = out.get(name, (0.0, 0.0, 0))
            out[name] = (s + (end - start) - child[i], inc + (end - start), n + 1)
        return out

    def coverage(self):
        """Share of the root spans' time spent inside non-root spans.

        This equals the non-root self time over the traced wall time. The
        roots' own self time is what no wrapped entry point accounts for, so
        an entry point that vanished lowers the ratio (counting it too would
        make the ratio 1 whatever the wrappers miss).
        """
        root = covered = 0.0
        for _, start, end, parent in self.spans:
            if parent < 0:
                root += end - start
            elif self.spans[parent][3] < 0:
                covered += end - start
        return covered / root if root else 0.0
