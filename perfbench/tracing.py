"""Span tracer that instruments layer boundaries from the outside.

The benchmark adds no tracing inside ``src/``.  Instead, for a traced run it
replaces selected public functions and methods of the program with wrappers
that time each call, and restores the originals afterwards.  Every wrapper
is a span: its duration minus the time covered by the spans it encloses is
the span's *self time*, so the self times of all spans plus the untraced
remainder add up to the traced phase exactly.

Spans are aggregated in memory per name (call count and self time) rather
than kept one by one: a traced simulator run makes millions of calls, and a
list of span records would dominate the process's memory.
"""

from __future__ import annotations

import collections
import functools
import time
from typing import Callable, DefaultDict, List, Optional, Tuple

_MISSING = object()


class Tracer:
    """Installs timing wrappers; use as a context manager to remove them."""

    def __init__(self) -> None:
        self.self_s: DefaultDict[str, float] = collections.defaultdict(float)
        self.calls: DefaultDict[str, int] = collections.defaultdict(int)
        #: Per span nesting level, the time covered by already-closed
        #: child spans.  Synchronous code only: an asyncio coroutine never
        #: awaits while one of these spans is open, so the stack stays
        #: balanced on the event loop too.
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- instrumentation -----------------------------------------------------

    def replace(self, owner: object, attr: str, replacement: object) -> None:
        """Swap ``owner.attr`` for ``replacement`` until the tracer closes."""
        # Remember whether a class defined the attribute itself, so an
        # inherited method is restored by deleting the shadowing wrapper.
        if isinstance(owner, type):
            previous = vars(owner).get(attr, _MISSING)
        else:
            previous = getattr(owner, attr)
        self._patches.append((owner, attr, previous))
        setattr(owner, attr, replacement)

    def wrap(self, function: Callable, name: str) -> Callable:
        """A copy of ``function`` whose every call is a span ``name``."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def span(self, owner: object, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` under span ``name``."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name))

    def hook(self, owner: object, attr: str, after: Callable) -> None:
        """Call ``after(result, *args, **kwargs)`` after every call of
        ``owner.attr`` (an untimed hook; its cost lands in the caller's
        span)."""
        function = getattr(owner, attr)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            after(result, *args, **kwargs)
            return result

        self.replace(owner, attr, wrapper)

    def async_hook(
        self,
        owner: object,
        attr: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Wrap the coroutine method ``owner.attr`` with untimed hooks:
        ``before(*args)`` runs before it, ``after(result, *args)`` after."""
        function = getattr(owner, attr)

        @functools.wraps(function)
        async def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            result = await function(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        self.replace(owner, attr, wrapper)

    def remove(self) -> None:
        """Restore every replaced attribute, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    # -- results ---------------------------------------------------------------

    def self_time(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def total_self_time(self) -> float:
        return sum(self.self_s.values())
