"""The cyclic garbage collector's scope around a study.

A study allocates millions of short-lived objects, almost none of them
in reference cycles, so with the default thresholds the collector runs
hundreds of young-generation passes (and several full ones, which
re-traverse every object set-up built) and reclaims next to nothing.
:class:`CollectorScope` is entered by :func:`repro.dse.study.run_study`,
:meth:`repro.runner.TaskRunner.run` and, for their whole lifetime, the
design-space pool workers.  Its outermost entry moves every object
alive at that moment out of the collector's reach (:func:`gc.freeze`)
and raises the thresholds; its outermost exit restores the thresholds
and thaws the objects, whether the body returned or raised (a
``KeyboardInterrupt`` included).  Nested entries do nothing.  Nothing
is touched at import.

Collection timing decides no draw and no result: reference counting
still frees every acyclic object at once, and the cycles a study makes
are collected a little later.  The outermost exit adds the scope's
gen-0/1/2 collection counts to the metrics registry
(``gc.gen0_collections`` ...), read from :func:`gc.get_stats`, so
counting them costs nothing per collection.
"""

from __future__ import annotations

import gc
import threading
from typing import List, Optional, Tuple

from repro.obs.metrics import get_registry

#: Collector thresholds inside the scope: a young collection per 20,000
#: net allocations instead of 700, and rarer older ones.
THRESHOLDS = (20_000, 20, 20)

_LOCK = threading.Lock()
_depth = 0
_saved: Optional[Tuple[Tuple[int, ...], bool, List[int]]] = None


def _collections() -> List[int]:
    return [generation["collections"] for generation in gc.get_stats()]


class CollectorScope:
    """Context manager: the collector tuned for a study, outermost
    entry only (see the module docstring)."""

    __slots__ = ()

    def __enter__(self) -> "CollectorScope":
        global _depth, _saved
        with _LOCK:
            _depth += 1
            if _depth == 1:
                # Objects someone else froze stay frozen at exit.
                _saved = (gc.get_threshold(), gc.get_freeze_count() == 0,
                          _collections())
                gc.freeze()
                gc.set_threshold(*THRESHOLDS)
        return self

    def __exit__(self, *exc_info) -> None:
        global _depth, _saved
        with _LOCK:
            _depth -= 1
            if _depth:
                return
            thresholds, thaw, before = _saved
            _saved = None
            gc.set_threshold(*thresholds)
            if thaw:
                gc.unfreeze()
            registry = get_registry()
            for generation, (start, end) in enumerate(
                    zip(before, _collections())):
                registry.counter(f"gc.gen{generation}_collections").inc(
                    end - start)
