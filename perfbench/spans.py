"""Spans around the calls the CLI makes into each module, and the per-layer
totals computed from them.

`replay` repeats one job the way `stuquandle.cli` runs it, but calls the
modules' public functions itself, one span per call. The package is not
modified or patched, so a traced job runs exactly the program's code
between spans.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from time import perf_counter_ns

ROOT = "job"


class Tracer:
    """Spans (name, start, end, parent, job) held in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.job_id = -1

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.job.append(self.job_id)
        self.end.append(0)
        self.current = sid
        self.start.append(perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self.current = self.parent[sid]

    def call(self, name: str, fn, *args):
        sid = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(sid)

    def totals(self):
        """Per span name: (self time in ns, calls); plus the number of spans
        that break nesting (a child outside its parent, or children that
        cover more than their parent) and the number of jobs whose span
        self times do not add up to their root span."""
        count = len(self.start)
        self_ns = [0] * len(self.names)
        calls = [0] * len(self.names)
        child_ns = [0] * count
        broken = 0
        for s in range(count):
            d = self.end[s] - self.start[s]
            self_ns[self.name[s]] += d
            calls[self.name[s]] += 1
            p = self.parent[s]
            if p >= 0:
                self_ns[self.name[p]] -= d
                child_ns[p] += d
                if self.start[s] < self.start[p] or self.end[s] > self.end[p]:
                    broken += 1
        job_self: Counter = Counter()
        job_root: dict[int, int] = {}
        for s in range(count):
            d = self.end[s] - self.start[s]
            if child_ns[s] > d:
                broken += 1
            job_self[self.job[s]] += d - child_ns[s]
            if self.parent[s] < 0:
                job_root[self.job[s]] = d
        unbalanced = sum(1 for j, d in job_root.items() if job_self[j] != d)
        by_name = {n: (self_ns[i], calls[i]) for i, n in enumerate(self.names)}
        return by_name, broken, unbalanced

    def write(self, path) -> None:
        """Every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt") as f:
            f.write("job\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for s in range(len(self.start)):
                f.write(f"{self.job[s]}\t{s}\t{self.parent[s]}\t{self.names[self.name[s]]}"
                        f"\t{self.start[s]}\t{self.end[s]}\n")


def _emit(lines: list[str]) -> str:
    text = "\n".join(lines)
    return text + "\n" if text else ""


def replay(tr: Tracer, argv: list[str], counts: Counter):
    """Run one CLI job through the modules under spans; returns
    (exit code, stdout, stderr) as the CLI would produce them."""
    from stuquandle import errors, formats, polynomial, presentation, rna

    def load(path, decode, span="formats.parse"):
        return tr.call(span, decode, tr.call("formats.parse", formats.load_document, path))

    cmd = argv[0]
    root = tr.open(ROOT)
    try:
        if cmd == "rna":
            arc = load(argv[2], formats.arc_diagram_from_dict)
            open_diagram = tr.call("rna.convert", rna.to_crossing_diagram, arc)
            closed = tr.call("rna.self_closure", rna.self_closure, open_diagram)
            pres = tr.call("presentation.compile", presentation.compile_diagram, closed)
            text = tr.call("formats.emit", lambda: json.dumps(
                formats.presentation_to_dict(pres), indent=2))
            counts["rna.arcs"] += open_diagram.arc_count
            counts["rna.stripes"] += len(arc.stripes)
            counts["formats.bytes_out"] += len(text.encode())
            out = tr.call("cli.output", _emit, [text])
        elif cmd in ("verify", "poly"):
            X = load(argv[1], formats.stuquandle_from_dict, "algebra.verify")
            if cmd == "verify":
                out = tr.call("cli.output", _emit, [f"valid stuquandle: n={X.n}, 13 axioms hold"])
            else:
                poly = tr.call("polynomial.stqp", polynomial.stuquandle_polynomial, X)
                text = tr.call("polynomial.render", poly.render)
                out = tr.call("cli.output", _emit, [text])
        else:
            P = load(argv[1], formats.presentation_from_dict)
            X = load(argv[2], formats.stuquandle_from_dict, "algebra.verify")
            colorings = tr.call("presentation.enumerate", presentation.enumerate_colorings, P, X)
            counts["presentation.colorings"] += len(colorings)
            counts["presentation.generators"] += P.generator_count
            counts["presentation.relations"] += len(P.relations)
            if cmd == "color":
                out = tr.call("cli.output", lambda: _emit(
                    [" ".join(str(v) for v in c) for c in colorings]
                    + [f"count {len(colorings)}"]))
            else:
                polys, images = [], set()
                for c in colorings:
                    image = tr.call("algebra.closure", presentation.coloring_image, c, X)
                    images.add(image.members)
                    polys.append(tr.call("polynomial.subpoly",
                                         polynomial.substuquandle_polynomial, image))
                counts["algebra.distinct_images"] += len(images)
                text = tr.call("polynomial.render", lambda: polynomial.PolynomialMultiset
                               .from_polynomials(polys).render())
                out = tr.call("cli.output", _emit, [text])
        return 0, out, ""
    except (errors.AxiomViolation, errors.NonBijectiveColumn) as exc:
        return 2, "", f"error: {exc}\n"
    finally:
        tr.close(root)
