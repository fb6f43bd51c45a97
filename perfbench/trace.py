"""Per-layer timing from outside the program.

:class:`LayerClock` replaces public callables of the library (a class
method, a module function or a method of one object) with wrappers that
add the call's wall time and count to a named layer, and puts every
original back on exit.  The wrappers pass arguments and results through
untouched, so a traced run releases and serves the same bytes as an
untraced one.

Only the outermost call of a layer is timed: a counting method that calls
another counting method of the same layer adds its time once.  Callers are
the benchmark's single driving thread.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()

#: ``on_call(args, kwargs, result)`` hook: extra work units of one call.
Units = Callable[[tuple, dict, Any], float]


class LayerClock:
    """Wall time, call counts and work units per layer, from wrapped calls."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.units: Dict[str, float] = defaultdict(float)
        self._depth: Dict[str, int] = defaultdict(int)
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(
        self, owner: object, attribute: str, layer: str, units: Optional[Units] = None
    ) -> None:
        """Time every call of ``owner.attribute`` under ``layer``.

        ``owner`` is a class (wraps the method for all instances), a module
        (wraps the function for callers that look it up there) or one
        object (wraps that object's bound method only).
        """
        saved = vars(owner).get(attribute, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        original = getattr(owner, attribute)
        is_class = isinstance(owner, type)
        clock = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            outermost = clock._depth[layer] == 0
            clock._depth[layer] += 1
            start = time.perf_counter()
            done = False
            try:
                result = original(*args, **kwargs)
                done = True
                return result
            finally:
                elapsed = time.perf_counter() - start
                clock._depth[layer] -= 1
                if outermost:
                    clock.seconds[layer] += elapsed
                    clock.calls[layer] += 1
                    if units is not None and done:
                        # On a class the wrapper is unbound: args[0] is self.
                        clock.units[layer] += units(
                            args[1:] if is_class else args, kwargs, result
                        )

        functools.update_wrapper(timed, original)
        self._patched.append((owner, attribute, saved))
        setattr(owner, attribute, timed)

    def restore(self) -> None:
        """Put every wrapped attribute back as it was, newest first."""
        while self._patched:
            owner, attribute, saved = self._patched.pop()
            if saved is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, saved)

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{layer_s, layer_calls, layer_units}`` totals so far."""
        flat: Dict[str, float] = {}
        for layer, seconds in self.seconds.items():
            flat[f"{layer}_s"] = seconds
            flat[f"{layer}_calls"] = float(self.calls[layer])
        for layer, amount in self.units.items():
            flat[f"{layer}_units"] = amount
        return flat

    def __enter__(self) -> "LayerClock":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    """Per-key difference of two :meth:`LayerClock.snapshot` results."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}
