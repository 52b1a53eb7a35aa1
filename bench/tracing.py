"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only around calls into splitpack's public entry points, by
replacing the module-level names (and ``PackingDocument`` methods) that the
benchmark and ``splitpack.cli`` / ``splitpack.packer`` call. Nothing inside
the package is edited. GC pauses are charged to the innermost open span
through ``gc.callbacks``; ``tracemalloc`` runs only inside ``verify`` calls,
to measure the verifier's peak allocation.
"""

import gc
import json
import time
import tracemalloc
import types

# span record fields
NAME, START, END, PARENT, INSTANCE, GC_MS = range(6)

LAYER_OF = {
    "splitting.from_areas": "splitting",
    "splitting.split": "splitting",
    "splitting.weighted_split": "splitting",
    "packer.pack": "packer",
    "verifier.verify": "verifier",
    "documents.parse": "documents",
    "documents.from_tree": "documents",
    "documents.to_json": "documents",
    "documents.to_tree": "documents",
    "svg.render": "svg",
    "cli.main": "cli",
}


class Tracer:
    """Records spans and exact work counts while installed on a splitpack import."""

    def __init__(self, sp, measure_alloc: bool = False):
        self.sp = sp
        self.measure_alloc = measure_alloc
        self.spans: list[list] = []
        self.instance = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self._gc_span = -1
        self.counts = {
            "splitting.split_calls": 0,
            "splitting.elements_moved": 0,
            "packer.hats": 0,
            "packer.max_depth": 0,
            "verifier.checks": 0,
            "documents.json_bytes": 0,
            "svg.bytes": 0,
        }
        self.gc_collections = 0
        self.gc_pause_ms = 0.0
        self.verify_peak_alloc = 0
        self.worst_slack_rel = float("inf")

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.instance, 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_span = self._stack[-1] if self._stack else -1
            self._gc_start = time.perf_counter()
            return
        pause_ms = (time.perf_counter() - self._gc_start) * 1e3
        self.gc_collections += 1
        self.gc_pause_ms += pause_ms
        if self._gc_span >= 0:
            self.spans[self._gc_span][GC_MS] += pause_ms

    def _spanned(self, name: str, fn, count=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        sp = self.sp
        tracer = self

        def split_count(args, result):
            tracer.counts["splitting.split_calls"] += 1
            tracer.counts["splitting.elements_moved"] += len(args[0])

        def add_bytes(key):
            def count(args, result):
                tracer.counts[key] += len(result.encode("utf-8"))

            return count

        spanned = self._spanned
        self._patch(sp.splitting.CircleSet, "from_areas",
                    lambda f: spanned("splitting.from_areas", f))
        self._patch(sp.packer, "split", lambda f: spanned("splitting.split", f, split_count))
        self._patch(sp.packer, "weighted_split",
                    lambda f: spanned("splitting.weighted_split", f, split_count))
        traced_pack = self._traced_pack(sp.packer.__dict__["pack"])
        traced_verify = self._traced_verify(sp.verifier.__dict__["verify"])
        for module in (sp.packer, sp.cli):
            self._patch(module, "pack", lambda f: traced_pack)
        for module in (sp.verifier, sp.cli):
            self._patch(module, "verify", lambda f: traced_verify)
        docs = sp.documents
        self._patch(docs.PackingDocument, "from_tree", lambda f: spanned("documents.from_tree", f))
        self._patch(docs.PackingDocument, "to_json",
                    lambda f: spanned("documents.to_json", f, add_bytes("documents.json_bytes")))
        self._patch(docs.PackingDocument, "to_tree", lambda f: spanned("documents.to_tree", f))
        self._patch(docs.PackingDocument, "from_dict", lambda f: spanned("documents.parse", f))
        self._patch(docs.InstanceDocument, "from_dict", lambda f: spanned("documents.parse", f))
        # the CLI decodes input documents through its module-level ``json``
        json_shim = types.SimpleNamespace(
            loads=spanned("documents.parse", json.loads),
            dumps=json.dumps,
            JSONDecodeError=json.JSONDecodeError,
        )
        self._patch(sp.cli, "json", lambda m: json_shim)
        self._patch(sp.cli, "render_packing_svg",
                    lambda f: spanned("svg.render", f, add_bytes("svg.bytes")))
        self._patch(sp.cli, "main", lambda f: spanned("cli.main", f))
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc_callback)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_pack(self, pack):
        tracer = self
        PackStats = self.sp.packer.PackStats

        def traced(request, stats=None):
            own = stats if stats is not None else PackStats()
            idx = tracer._open("packer.pack")
            try:
                root = pack(request, own)
            finally:
                tracer._close(idx)
            tracer.counts["packer.hats"] += own.hat_count
            tracer.counts["packer.max_depth"] = max(tracer.counts["packer.max_depth"], own.max_depth)
            return root

        return traced

    def _traced_verify(self, verify):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.measure_alloc:
                tracemalloc.start()
            idx = tracer._open("verifier.verify")
            try:
                report = verify(*args, **kwargs)
            finally:
                tracer._close(idx)
                if tracer.measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.verify_peak_alloc = max(tracer.verify_peak_alloc, peak)
            tracer.counts["verifier.checks"] += report.check_count
            if report.tolerance > 0.0:
                tracer.worst_slack_rel = min(
                    tracer.worst_slack_rel, report.worst_slack / report.tolerance
                )
            return report

        return traced

    # -- summaries -----------------------------------------------------------

    def layer_times(self) -> dict:
        """Per-layer milliseconds over all recorded spans.

        A layer's gc_ms is the GC pause inside its outermost spans, children
        included; self_ms is span time minus the time of direct child spans.
        """
        spans = self.spans
        child_ms = [0.0] * len(spans)
        gc_incl = [s[GC_MS] for s in spans]
        for i in range(len(spans) - 1, -1, -1):
            parent = spans[i][PARENT]
            if parent >= 0:
                child_ms[parent] += (spans[i][END] - spans[i][START]) * 1e3
                gc_incl[parent] += gc_incl[i]
        total: dict[str, float] = {}
        self_ms: dict[str, float] = {}
        gc_ms: dict[str, float] = {}
        for i, s in enumerate(spans):
            name = s[NAME]
            dur = (s[END] - s[START]) * 1e3
            total[name] = total.get(name, 0.0) + dur
            self_ms[name] = self_ms.get(name, 0.0) + dur - child_ms[i]
            layer = LAYER_OF[name]
            parent = s[PARENT]
            if parent < 0 or LAYER_OF[spans[parent][NAME]] != layer:
                gc_ms[layer] = gc_ms.get(layer, 0.0) + gc_incl[i]
        return {"total": total, "self": self_ms, "gc": gc_ms}

    def dump(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent", "instance", "gc_ms"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
