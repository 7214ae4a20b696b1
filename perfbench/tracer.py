"""Run one reescalc CLI call with its layers wrapped, and write the spans.

    python3 perfbench/tracer.py JOB_ID SPANS_JSON CLI_ARG...

Every public function of each module in layers.LAYERS, and
ModuleEmbedding.power_piece, is replaced by a wrapper in every reescalc
namespace that bound it (the modules import each other's functions by
name, so patching the defining module alone would miss most calls).
Spans stay in memory and are written once the call has returned; the
exit code is the CLI's.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import time

from layers import LAYERS, UNWRAPPED


class Tracer:
    def __init__(self, job):
        self.job = job
        self.spans = []
        # Frames of the open spans: [span id, nanoseconds covered by
        # children].
        self.stack = [[0, 0]]
        self.ids = itertools.count(1)
        self.pieces_seen = set()

    def wrap(self, name, fn, before=None, after=None):
        """Wrapper recording one span per call of fn.  before(args, kwargs)
        runs ahead of the call and returns the span's extra field;
        after(extra, args, result) may replace it once fn has returned."""
        spans, stack, ids, job = self.spans, self.stack, self.ids, self.job
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            extra = before(args, kwargs) if before else None
            frame = [next(ids), 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after:
                    extra = after(extra, args, result)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += duration
                # A tuple of atoms, which the garbage collector stops
                # scanning; a list per span slows long jobs down.
                spans.append((job, frame[0], parent[0], name, start,
                              duration, duration - frame[1], extra))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        rees = importlib.import_module("reescalc.rees")
        self._default_order = importlib.import_module(
            "reescalc.groebner").DEFAULT_ORDER
        hooks = {
            "groebner.groebner_basis": (self._gb_kind, _gb_size),
            "rees.piece_product": (_piece_inputs, None),
        }
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"reescalc.{layer}")
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or attr in UNWRAPPED.get(layer, ())):
                    continue
                name = f"{layer}.{attr}"
                before, after = hooks.get(name, (None, None))
                if layer == "closures":
                    after = _chain_steps
                # Keyed by identity; each wrapper holds its function, so
                # no id is reused while patching.
                wrapped[id(fn)] = self.wrap(name, fn, before, after)
        for modname, module in list(sys.modules.items()):
            if modname != "reescalc" and not modname.startswith("reescalc."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
        embedding = rees.ModuleEmbedding
        embedding.power_piece = self.wrap(
            "rees.power_piece", embedding.power_piece, self._piece_kind)

    def _gb_kind(self, args, kwargs):
        U = args[0]
        order = args[1] if len(args) > 1 else kwargs.get("order")
        if U._cache.get(order or self._default_order) is not None:
            kind = "hit"
        elif U.is_monomial():
            kind = "mono"
        else:
            kind = "general"
        return (kind, len(U.gens), None)

    def _piece_kind(self, args, kwargs):
        E, n = args
        if n in E._power_cache:
            return (False, False)
        key = (E.rank, E.columns, n)
        duplicate = key in self.pieces_seen
        self.pieces_seen.add(key)
        return (True, duplicate)

    def write(self, path, import_s):
        # json.dumps uses the C encoder; json.dump to a file does not.
        text = json.dumps({"job": self.job, "import_s": import_s,
                           "spans": self.spans}, separators=(",", ":"))
        with open(path, "w") as fh:
            fh.write(text)


def _gb_size(extra, args, result):
    return extra[:2] + (len(result.gens),)


def _piece_inputs(args, kwargs):
    A, B = args[1], args[3]
    return len(A.gens) * len(B.gens)


def _chain_steps(extra, args, result):
    if getattr(result, "method", None) == "colon-chain":
        return result.stabilization_index + result.window
    return None


def main(argv):
    job, spans_path, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    cli = importlib.import_module("reescalc.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer(job)
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
