"""Per-layer spans for the traced run, recorded around calls into `altchains`.

`Tracer.install` wraps every public function of every `altchains` module in
each module namespace that binds it (`from .intset import sumset` copies the
name, so patching `intset.sumset` alone would miss the calls made from
`method1`), plus the public classmethods such as `Chain.from_sets`.  Each
wrapper keeps a span on a stack: a layer's self time is its span's duration
minus the time of the wrapped calls made inside it.  Spans are folded into
per-layer totals as they close, so memory stays flat over long runs.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

# Kernel inputs wider than this take the hash path (judged from the input).
HASH_PATH_SPAN = 1 << 24


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _kernel(counts, args, kwargs, result):
    A = _first_arg(args, kwargs)
    if len(A):
        counts["elements"] += len(A)
        counts["span"] += A.diameter + 1
        if A.diameter > HASH_PATH_SPAN:
            counts["hash_path"] += 1


def _result_len(key):
    def count(counts, args, kwargs, result):
        counts[key] += len(result)
    return count


def _validated_members(counts, args, kwargs, result):
    counts["members"] += len(_first_arg(args, kwargs))


def _search_candidates(counts, args, kwargs, result):
    # search_moduli tries every n in (max A, 2 max A].
    counts["candidates"] += _first_arg(args, kwargs).max


def _input_bytes(counts, args, kwargs, result):
    counts["bytes"] += len(_first_arg(args, kwargs).encode())


def _output_bytes(counts, args, kwargs, result):
    counts["bytes"] += len(result.encode())


COUNTERS = {
    "intset.sumset": _kernel,
    "intset.diffset": _kernel,
    "intset.make_set": _result_len("elements"),
    "intset.parse_set_literal": _result_len("elements"),
    "chains.from_sets": _result_len("members"),
    "chains.validate_chain": _validated_members,
    "method1.search_moduli": _search_candidates,
    "cli.parse_chain_text": _input_bytes,
    "cli.chain_to_text": _output_bytes,
}


class Tracer:
    """Aggregated spans per layer: calls, self time (ns) and named counts."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.recording = False
        self._stack: list[list[int]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] += 1
                self.self_ns[name] += elapsed - frame[0]
            if count is not None:
                count(self.counts[name], args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "altchains" or n.startswith("altchains.")]
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__.startswith("altchains"):
                    if id(value) not in wrapped:
                        name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                        wrapped[id(value)] = self._wrap(name, value)
                    self._patch(module, attr, wrapped[id(value)])
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for meth, raw in list(vars(value).items()):
                        if isinstance(raw, classmethod) and not meth.startswith("_"):
                            name = f"{module.__name__.rsplit('.', 1)[-1]}.{meth}"
                            self._patch(value, meth, classmethod(self._wrap(name, raw.__func__)))

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Plain-dict totals, for merging across rounds and processes."""
        return {
            name: {"calls": self.calls[name], "self_ns": self.self_ns[name],
                   **self.counts.get(name, {})}
            for name in self.calls
        }

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.counts.clear()


def merge(into: dict, other: dict) -> None:
    for name, fields in other.items():
        slot = into.setdefault(name, {})
        for key, value in fields.items():
            slot[key] = slot.get(key, 0) + value
