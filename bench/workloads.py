"""The four benchmark workloads.

Each workload turns a seed into a pool of rounds.  A round is a fixed list
of ops, one per size class, so every round costs about the same and a run
that stops on a round boundary averages over whole rounds.  An op is one
closed-loop call into vknot (``call``) plus a property check of its output
(``check``) that the harness runs outside the timed region.  Checks test
properties rather than byte digests, so a deliberate output-format change
does not count as a failure.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable

import inputs


class CheckFailed(Exception):
    """An op's output violates a property the workload expects."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    items: int
    call: Callable[[], Any]
    check: Callable[[Any], None]  # raises CheckFailed (or anything) if wrong


class Program:
    """The vknot modules of the checkout, freshly imported."""

    MODULES = ("cli", "gauss_code", "moves", "invariant", "biquandle")

    def __init__(self, src_dir: str):
        for name in [m for m in sys.modules
                     if m == "vknot" or m.startswith("vknot.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        self.vknot = importlib.import_module("vknot")
        origin = os.path.realpath(self.vknot.__file__)
        if not origin.startswith(os.path.realpath(src_dir) + os.sep):
            raise ImportError(f"imported vknot from {origin}, not {src_dir}")
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"vknot.{name}"))

    def cli_run(self, argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        rc = self.cli.execute(argv, out, err)
        return rc, out.getvalue()


def _load_ok(rc: int, out: str):
    expect(rc == 0, f"exit code {rc}")
    return json.loads(out)


# ---------------------------------------------------------------- tabulate

TABULATE_SMALL = tuple(range(3, 16)) * 2   # crossings of the common codes
TABULATE_TAIL = (40, 60)                   # one large code per file
TABULATE_FILES = 4                         # batch files per round


def tabulate_rounds(prog: Program, seed: int, workdir: str, n_rounds: int):
    """A round is four ``vknot batch`` files of 27 codes each: 3-15
    crossings twice each, plus one code with 40-60 crossings."""
    rng = random.Random(f"tabulate/{seed}")
    rounds = []
    for r in range(n_rounds):
        ops = []
        for f in range(TABULATE_FILES):
            sizes = list(TABULATE_SMALL) + [rng.randint(*TABULATE_TAIL)]
            rng.shuffle(sizes)
            texts = [inputs.to_text(inputs.knot_code(rng, n)) for n in sizes]
            path = os.path.join(workdir, f"tabulate_{r:04d}_{f}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("".join(t + "\n" for t in texts))
            ops.append(Op(len(texts),
                          lambda path=path: prog.cli_run(["batch", "--input", path]),
                          lambda res, texts=texts: _check_batch(texts, res)))
        rounds.append(ops)
    return rounds


def _check_batch(texts, res) -> None:
    records = _load_ok(*res)
    expect(len(records) == len(texts), "record count differs from input")
    for text, record in zip(texts, records):
        expect(record.get("code") == text, "records out of input order")
        expect("error" not in record, f"error record for {text}")
        expect(record["vassiliev"]["1"] == "0", f"v1 != 0 for {text}")
        expect(inputs.value_at_one(record["polynomial"]) == 0,
               f"P(1) != 0 for {text}")


# -------------------------------------------------------------------- walk

# the default seed knots of ``vknot verify``
WALK_SEEDS = ("O1+ O2+ U1+ U2+", "O1+ U2+ O3+ U1+ O2+ U3+",
              "O1- U2+ O3+ U1- O2+ U3+", "O1+ O2+ U1+ O3+ U2+ U3+", "O1+ U1+")
WALK_STEPS = 20
WALKS_PER_KNOT = 4                          # per round


def walk_rounds(prog: Program, seed: int, workdir: str, n_rounds: int):
    """A round is four 20-step walks from each seed knot, every walk with
    its own walk seed; ``invariance_report`` compares the polynomials."""
    rng = random.Random(f"walk/{seed}")
    knots = [prog.gauss_code.parse_signed(text) for text in WALK_SEEDS]
    walk_seeds = iter(rng.sample(range(1, 2 ** 40),
                                 n_rounds * WALKS_PER_KNOT * len(knots)))
    return [[Op(1, lambda knot=knot, s=next(walk_seeds):
                prog.moves.invariance_report([knot], WALK_STEPS, 1, s),
                _check_walk)
             for _ in range(WALKS_PER_KNOT) for knot in knots]
            for _ in range(n_rounds)]


def _check_walk(report) -> None:
    expect(report.trials == 1 and report.passed == 1 and report.ok,
           f"polynomial changed along a walk: {report.failures}")


# ------------------------------------------------------------------- links

LINK_CLASSES = tuple((k, n) for k in (2, 3) for n in range(4, 11))


def links_rounds(prog: Program, seed: int, workdir: str, n_rounds: int):
    """A round is one link code per (components, crossings) class, 2-3
    components and 4-10 crossings; each op runs ``vknot parse`` and
    ``vknot link-invariant`` on it."""
    rng = random.Random(f"links/{seed}")
    rounds = []
    for _ in range(n_rounds):
        ops = []
        for k, n in LINK_CLASSES:
            code = inputs.link_code(rng, n, k)
            text = inputs.to_text(code)
            scrambled = inputs.scramble(rng, code)
            colorable = not any(inputs.role_imbalances(code))
            ops.append(Op(1, lambda text=text: (prog.cli_run(["parse", text]),
                                                prog.cli_run(["link-invariant", text])),
                          lambda res, s=scrambled, c=colorable: _check_link(s, c, res)))
        rounds.append(ops)
    return rounds


def _check_link(scrambled, colorable: bool, res) -> None:
    (rc_parse, out_parse), (rc_inv, out_inv) = res
    parsed = _load_ok(rc_parse, out_parse)
    expect(parsed["canonical"] == inputs.to_text(inputs.canonical(scrambled)),
           "canonical form differs from that of a scrambled copy")
    expect(rc_inv == (0 if colorable else 3),
           f"link-invariant exit {rc_inv}, colorable={colorable}")
    if colorable:
        expect(inputs.value_at_one(json.loads(out_inv)["polynomial"]) == 0,
               "P(1) != 0")


# -------------------------------------------------------------------- flat

# flat --certificate enumerates 2^n resolutions; eleven ops a round put the
# median latency inside one class (8 crossings) rather than between two
FLAT_CERT_SIZES = (7, 8, 8, 9, 10)
FLAT_COLOR_SIZES = (3, 4, 5)        # biquandle color over Z/7
# biquandle search N scans N^6 tuples; over Z/4 it also finds 8 zero-divisor
# solutions outside the closed form, so only moduli where the two agree
FLAT_SEARCH_SIZES = (3, 5, 6)
FLAT_TABLE = (7, 2, 3)              # (N, p, k) of star = p^-1 a + k, sharp = p a - p k


def flat_rounds(prog: Program, seed: int, workdir: str, n_rounds: int):
    """A round is three searches, three colorings and five certificates."""
    bq = prog.biquandle
    n, p, k = FLAT_TABLE
    table = bq.make_affine(bq.AffineParams(n, pow(p, -1, n), 0, k,
                                           p, 0, (-p * k) % n))
    table_path = os.path.join(workdir, "z7.tbl")
    with open(table_path, "w", encoding="utf-8") as handle:
        handle.write(bq.table_to_text(table))
    rng = random.Random(f"flat/{seed}")
    rounds = []
    for _ in range(n_rounds):
        ops = []
        for size in FLAT_SEARCH_SIZES:
            ops.append(Op(1, lambda size=size: prog.cli_run(
                              ["biquandle", "search", str(size)]),
                          lambda res, size=size: _check_search(prog, size, res)))
        for size in FLAT_COLOR_SIZES:
            text = inputs.to_text(inputs.flat_knot(rng, size))
            ops.append(Op(1, lambda text=text: prog.cli_run(
                              ["biquandle", "color", text, table_path]),
                          lambda res, text=text:
                          _check_colorings(prog, text, table, res)))
        for size in FLAT_CERT_SIZES:
            text = inputs.to_text(inputs.flat_knot(rng, size))
            ops.append(Op(1, lambda text=text: prog.cli_run(
                              ["flat", "--certificate", text]),
                          lambda res, text=text, size=size:
                          _check_certificate(prog, text, size, res)))
        rounds.append(ops)
    return rounds


def _check_search(prog: Program, size: int, res) -> None:
    found = [(d["n"], d["r"], d["s"], d["k"], d["p"], d["q"], d["l"])
             for d in _load_ok(*res)]
    closed = {(a.n, a.r, a.s, a.k, a.p, a.q, a.l)
              for a in prog.biquandle.closed_form_affine(size)}
    expect(len(found) == len(set(found)) and set(found) == closed,
           f"search {size} differs from the closed form")


def _check_colorings(prog: Program, text: str, table, res) -> None:
    data = _load_ok(*res)
    flat = prog.gauss_code.parse_flat(text)
    expect(data["count"] == len(data["colorings"]), "count != len(colorings)")
    for coloring in data["colorings"]:
        labels = tuple(tuple(int(x) for x in comp.split(","))
                       for comp in coloring.split(" ; "))
        expect(prog.biquandle.check_coloring(flat, table, labels),
               f"bad coloring {coloring}")


def _check_certificate(prog: Program, text: str, size: int, res) -> None:
    data = _load_ok(*res)
    witness = data["witness"]
    expect(data["certified"] == (witness is None), "certified disagrees with witness")
    if witness is not None:
        code = prog.gauss_code.parse_signed(witness)
        expect(prog.invariant.affine_index_polynomial(code).is_zero(),
               "witness has P != 0")
        resolved = (tuple((t[0], int(t[1:-1]), 1 if t[-1] == "+" else -1)
                          for t in witness.split()),)
        expect(inputs.to_text(inputs.forget(resolved)) == text,
               "forget(witness) differs from the input")
    if "polynomials" in data:
        polys = data["polynomials"]
        expect(len(polys) == 2 ** size, "wrong number of resolutions")
        expect(data["certified"] == ("0" not in polys),
               "certified disagrees with the resolution polynomials")


# ----------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    build: Callable
    pool_rounds: int    # rounds generated in set-up; the run cycles through them
    traced_rounds: int  # fixed prefix the traced run replays
    # op_tail_ms percentile: the highest that keeps ten ops beyond it in a
    # 25 s run even on a machine half as fast as the one it was tuned on
    tail_percentile: float


WORKLOADS = {
    "tabulate": Workload(tabulate_rounds, 50, 4, 90),
    "walk": Workload(walk_rounds, 100, 4, 95),
    "links": Workload(links_rounds, 100, 4, 95),
    "flat": Workload(flat_rounds, 60, 2, 95),
}
