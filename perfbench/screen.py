"""Offline screening of candidate jobs for the frozen lists in pools.py.

    PYTHONPATH=src python3 perfbench/screen.py phi 500 > phi.txt
    PYTHONPATH=src python3 perfbench/screen.py color 200 > color.txt

Draws candidates from a fixed master seed, times each through the CLI
in-process once, and prints one Python literal per accepted
candidate, ending with its cost in ms. The benchmark itself never runs
this: it only reads the frozen lists, so the code under test cannot
change which jobs a run gets.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import shutil
import sys
import time
from pathlib import Path

import jobs
import oracle
from stuquandle import cli

# phi: "thousands of colorings, few images" scaled to ~0.1 s jobs
PHI_COLORINGS = (128, 4096)
PHI_MS = (30.0, 300.0)
PHI_MAX_IMAGES = 8
# color: few colorings, search-bound, 12-21 generators
COLOR_GENERATORS = (12, 21)
COLOR_MAX_COLORINGS = 64
COLOR_MS = (5.0, 300.0)
COLOR_TARGETS = (("X_ex71", "X_ex72"), ("X_ex72", "X_ex71"), ("X_ex72", "X_ex72"),
                 ("X_ex71", "X_ex74"), ("X_ex74", "X_ex71"), ("X_ex72", "X_ex74"),
                 ("X_ex71", "X_ex71"))


class Slow(Exception):
    pass


def _alarm(signum, frame):
    raise Slow


def timed(argv, docs: dict, tmp: Path, limit_s: float = 1.0):
    """(exit code, stdout, ms), or None when the job outlives limit_s."""
    for name, doc in docs.items():
        (tmp / name).write_text(json.dumps(doc))
    argv = [str(tmp / a) if a in docs else a for a in argv]
    out = io.StringIO()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = cli.main(argv)
            ms = (time.perf_counter() - t0) * 1000
    except Slow:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), ms


def screen_phi(rng, want, tmp):
    seen = set()
    while want:
        strands = rng.choice((1, 2))
        layout = rng.choice(("nested", "interleaved"))
        signs = "".join(rng.choice("+-") for _ in range(rng.randint(4, 8)))
        n = rng.choice((8, 16))
        a = rng.choice(jobs._units(n))
        b, e = rng.randrange(2, n), rng.randrange(2, n)
        key = (strands, layout, signs, n, a, b, e)
        if len(set(signs)) < 2 or key in seen:
            continue
        seen.add(key)
        pres = oracle.convert_arc(jobs.strand_diagram(strands, layout, signs))
        X = jobs.affine_doc(n, a, b, e)
        count = oracle.linear_coloring_count(pres, X)
        if not PHI_COLORINGS[0] <= count <= PHI_COLORINGS[1]:
            continue
        result = timed(["phi", "P.json", "X.json"], {"P.json": pres, "X.json": X}, tmp)
        if result is None:
            continue
        code, out, ms = result
        if code == 0 and out.count("*u^") <= PHI_MAX_IMAGES and PHI_MS[0] <= ms <= PHI_MS[1]:
            print(f"    {key + (round(ms, 1),)!r},", flush=True)
            want -= 1


def screen_color(rng, want, tmp):
    while want:
        strands = rng.randint(2, 4)
        k = rng.randint(4, 8)
        c = rng.randint(max(2, COLOR_GENERATORS[0] - 2 * k), COLOR_GENERATORS[1] - 2 * k)
        if c < 0:
            continue
        sites = [(s, p) for s in range(strands) for p in range(0, 10 * (2 * k + 2 * c), 10)]
        sites = rng.sample(sites, 2 * (k + c))
        pairs = [sites[i] + sites[i + 1] for i in range(0, len(sites), 2)]
        arc = {"strands": strands,
               "stripes": [[sa, sb, pa, pb, rng.choice((1, -1))] for sa, pa, sb, pb in pairs[:k]],
               "classicals": [[so, po, su, pu, rng.choice((1, -1))] for so, po, su, pu in pairs[k:]]}
        pres = oracle.convert_arc(arc)
        if not COLOR_GENERATORS[0] <= pres["generators"] <= COLOR_GENERATORS[1]:
            continue
        left, right = rng.choice(COLOR_TARGETS)
        n = jobs.FACTORS[left]["n"] * jobs.FACTORS[right]["n"]
        X = jobs.product_doc(jobs.FACTORS[left], jobs.FACTORS[right], list(range(n)))
        result = timed(["color", "P.json", "X.json"], {"P.json": pres, "X.json": X}, tmp)
        if result is None:
            continue
        code, out, ms = result
        count = int(out.rsplit(" ", 1)[1])
        if code == 0 and 1 <= count <= COLOR_MAX_COLORINGS and COLOR_MS[0] <= ms <= COLOR_MS[1]:
            print(f"    ({arc!r}, {left!r}, {right!r}, {round(ms, 1)!r}),", flush=True)
            want -= 1


if __name__ == "__main__":
    kind, want = sys.argv[1], int(sys.argv[2])
    folder = Path(__file__).resolve().parent.parent / ".perfbench-work" / f"screen-{kind}"
    folder.mkdir(parents=True, exist_ok=True)
    try:
        screen = screen_phi if kind == "phi" else screen_color
        screen(random.Random(f"perfbench-screen-{kind}"), want, folder)
    finally:
        shutil.rmtree(folder, ignore_errors=True)
