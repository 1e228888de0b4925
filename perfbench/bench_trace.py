"""Per-layer spans for one traced `loopcomm` process, measured from outside.

Usage: python3 bench_trace.py OUT.json [loopcomm arguments ...]

With loopcomm arguments, imports the package, wraps the layer entry points in
the module namespaces where callers look them up, runs the CLI exactly as the
`loopcomm` script does, and writes the spans to OUT.json when it ends.  With
none, it traces set-up only, `import loopcomm` and `load_dataset()`, and
prints the path of the imported package.

Each wrapper calls the original (possibly `lru_cache`d) object, so cache
behaviour is unchanged; cache counters are read from the originals at exit.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute, span name).  One function bound in several modules is
# listed once per module, because each caller resolves its own binding.
TARGETS = (
    ("loopcomm.catalog", "load_dataset", "catalog.load"),
    ("loopcomm.catalog", "parse_presentation", "catalog.parse"),
    ("loopcomm.cli", "report", "catalog.report"),
    ("loopcomm.cli", "check", "catalog.check"),
    ("loopcomm.catalog", "check", "catalog.check"),
    ("loopcomm.catalog", "route", "catalog.route"),
    ("loopcomm.catalog", "_run_step", "catalog.run_step"),
    ("loopcomm.catalog", "Report.to_dict", "catalog.render"),
    ("loopcomm.catalog", "Report.render_text", "catalog.render"),
    ("loopcomm.catalog", "total_char_class_operation", "steenrod.total_op"),
    ("loopcomm.steenrod", "total_char_class_operation", "steenrod.total_op"),
    ("loopcomm.steenrod", "express_symmetric", "steenrod.express_symmetric"),
    ("loopcomm.steenrod", "tp_mul", "steenrod.tp_mul"),
    ("loopcomm.steenrod", "total_operation_on_torus", "steenrod.torus_op"),
    ("loopcomm.catalog", "hook_component_e_top", "steenrod.hook"),
    ("loopcomm.catalog", "suspension_rp", "steenrod.suspension"),
    ("loopcomm.catalog", "suspension_quasi_projective", "steenrod.suspension"),
    ("loopcomm.catalog", "suspension_sphere", "steenrod.suspension"),
    ("loopcomm.catalog", "suspension_moore", "steenrod.suspension"),
    ("loopcomm.catalog", "check_steenrod_criterion", "steenrod.criterion"),
    ("loopcomm.catalog", "check_partial_projective_criterion", "criteria.projective"),
    ("loopcomm.catalog", "conclude_noncommutative", "criteria.conclude"),
    ("loopcomm.cli", "conclude_noncommutative", "criteria.conclude"),
    ("loopcomm.catalog", "find_rational_witness", "sullivan.witness"),
    ("loopcomm.cli", "hilbert_function", "gradedalg.hilbert"),
    ("loopcomm.gradedalg", "hilbert_function", "gradedalg.hilbert"),
    ("loopcomm.cli", "is_complete_intersection", "gradedalg.ci"),
    ("loopcomm.catalog", "is_complete_intersection", "gradedalg.ci"),
    ("loopcomm.sullivan", "is_complete_intersection", "gradedalg.ci"),
    ("loopcomm.steenrod", "indecomposable_dimension", "gradedalg.indecomposable"),
    ("loopcomm.cli", "build_formal_model", "sullivan.model"),
    ("loopcomm.catalog", "build_formal_model", "sullivan.model"),
    ("loopcomm.cli", "check_d_squared", "sullivan.d_squared"),
    ("loopcomm.cli", "_emit", "cli.emit"),
)

# cache counter prefix -> (module, attribute) of the lru_cache object
CACHES = {
    "steenrod.total_op": ("loopcomm.steenrod", "total_char_class_operation"),
    "steenrod.e_product": ("loopcomm.steenrod", "_e_product"),
    "steenrod.hook": ("loopcomm.steenrod", "hook_component_e_top"),
}


def self_times(spans) -> dict:
    """Aggregate spans into {name: {"calls", "incl_s", "self_s"}}.

    `spans` holds (id, parent id or None, name, start, end) tuples.  A span's
    self time is its duration minus the part of its interval that the union
    of its children's intervals covers.
    """
    children: dict = {}
    for sid, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict = {}
    for sid, _parent, name, start, end in spans:
        covered = 0.0
        cursor = start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        agg = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["incl_s"] += end - start
        agg["self_s"] += end - start - covered
    return out


def nested_time(spans, outer: str, prefix: str) -> float:
    """Time in the outermost `prefix` spans that run inside an `outer` span."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for sid, parent, name, start, end in spans:
        if not name.startswith(prefix):
            continue
        chain = []
        while parent is not None:
            chain.append(by_id[parent][2])
            parent = by_id[parent][1]
        if outer in chain and not any(n.startswith(prefix) for n in chain[: chain.index(outer)]):
            total += end - start
    return total


class Tracer:
    """Spans in memory plus counts recorded at the same boundaries."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (sid, parent, name, start, end)
            self._count(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, args: tuple, kwargs: dict, result) -> None:
        if name == "catalog.run_step":
            self.count("catalog.plan_steps_run")
            if type(result).__name__ == "Refusal":
                self.count("catalog.plan_steps_refused")
        elif name == "steenrod.torus_op":
            self.count("steenrod.torus_terms", len(result))
        elif name == "gradedalg.hilbert":
            up_to = args[1] if len(args) > 1 else kwargs["up_to"]
            self.count("gradedalg.hilbert_degrees", up_to + 1)
        elif name == "catalog.parse":
            self.count("catalog.presentations_parsed")

    def install(self) -> list:
        """Wrap every target that exists; return the ones that do not."""
        missing = []
        for module_name, attr, span in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(span, fn))
        return missing


def cache_counters() -> dict:
    out = {}
    for prefix, (module_name, attr) in CACHES.items():
        fn = getattr(importlib.import_module(module_name), attr, None)
        while fn is not None and not hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__  # a span wrapper around the cached original
        info = getattr(fn, "cache_info", None)
        hits, misses, size = (info().hits, info().misses, info().currsize) if info else (0, 0, 0)
        out.update({f"{prefix}_cache_hits": hits, f"{prefix}_cache_misses": misses,
                    f"{prefix}_cache_size": size})
    return out


def main(argv: list) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import loopcomm.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    missing = tracer.install()
    code = 0
    try:
        if cli_args:
            code = loopcomm.cli.main(cli_args)
        else:
            importlib.import_module("loopcomm.catalog").load_dataset()
            print(loopcomm.__file__)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        spans = tracer.spans
        record = {
            "import_s": import_s,
            "spans": self_times(spans),
            "top_s": sum(s[4] - s[3] for s in spans if s[1] is None),
            "route_engine_s": nested_time(spans, "catalog.route", "steenrod."),
            "counts": {**tracer.counts, **cache_counters()},
            "missing": missing,
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
