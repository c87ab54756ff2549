"""CLI output pinned over a seeded corpus of ``execute`` invocations.

The corpus covers every subcommand, json/csv/text output and exit codes
0 to 4.  It leaves out the behaviours the CLI defines elsewhere in the
tests: ``--help``, counts below their minimum, unreadable paths and
internal failures inside ``batch``.  ``CORPUS_DIGEST`` is a sha256 over
``(argv, rc, stdout, stderr)`` of every invocation; a change to it is a
change to the CLI's output.
"""

import dataclasses
import hashlib
import io
import random

from vknot import basic_preflat, forget, make_affine, mirror, moves, \
    serialize, table_to_text, unary_affine_params
from vknot import cli
from vknot.cli import execute

from conftest import random_knot_code, random_link_code

TABLE_FILES = {
    "inc5.tbl": table_to_text(basic_preflat(5, 0, 1)),
    "inc3.tbl": table_to_text(basic_preflat(3, 0, 1)),
    "pre5.tbl": table_to_text(basic_preflat(5, 2, 0)),
    "alpha5.tbl": table_to_text(make_affine(unary_affine_params(5, 2, 0))),
    "short.tbl": "3\n0 1 2\n",
    "junk.tbl": "three\n",
}
BATCH_FILES = 4
MISSING = ("missing.tbl", "missing.txt")
FORMATS = ((), ("--format", "json"), ("--format", "csv"),
           ("--format", "text"))
CORPUS_SEED = 9
CORPUS_SIZE = 400
CORPUS_DIGEST = \
    "cde3c114c348744b87d4dd0eb0897685e42b4f4be27c00e726e120a1630b7d88"


def _knot(rng, most=7):
    return serialize(random_knot_code(rng, rng.randint(0, most)))


def _link(rng):
    return serialize(random_link_code(rng, rng.randint(1, 6),
                                      rng.randint(2, 3)))


def _flat(rng, most=5):
    return serialize(forget(random_knot_code(rng, rng.randint(0, most))))


def _corrupt(rng, text):
    tokens = text.split() or ["()"]
    i = rng.randrange(len(tokens))
    kind = rng.randrange(4)
    if kind == 0:
        del tokens[i]
    elif kind == 1:
        tokens[i] = tokens[i].replace("+", "-", 1) if "+" in tokens[i] \
            else tokens[i].replace("-", "+", 1)
    elif kind == 2:
        tokens.insert(i, rng.choice(("Z1+", "O", "U1", "O0+", "R1", "()")))
    else:
        tokens.append(tokens[i])
    return " ".join(tokens)


def _code(rng):
    roll = rng.random()
    if roll < 0.55:
        return _knot(rng)
    if roll < 0.8:
        return _link(rng)
    return _corrupt(rng, _knot(rng))


def _ids(rng, text):
    if rng.random() < 0.1:
        return rng.choice(("a", "1,,x", "1;2"))
    n = text.count("O") + 1
    return ",".join(str(rng.randint(1, n)) for _ in range(rng.randint(0, 3)))


def _parse(rng):
    return ["parse", rng.choice((_code, _flat, _knot))(rng)]


def _invariant(rng):
    return ["invariant", _code(rng)]


def _link_invariant(rng):
    text = rng.choice((_link, _link, _code))(rng)
    roll = rng.random()
    if roll < 0.3:
        return ["link-invariant", text]
    if roll < 0.4:
        offsets = rng.choice(("1,x", "", ",", "1.5"))
    else:
        k = text.count(";") + rng.choice((1, 1, 1, 0, 2))
        offsets = ",".join(str(rng.randint(-2, 2)) for _ in range(k))
    return ["link-invariant", "--offsets", offsets, text]


def _symbolic_weights(rng):
    return ["symbolic-weights", rng.choice((_link, _code))(rng)]


def _vassiliev(rng):
    argv = ["vassiliev"]
    if rng.random() < 0.7:
        argv += ["--max-order", rng.choice(("1", "2", "3", "4", "5", "x"))]
    return argv + [_code(rng)]


def _transform(rng):
    text = _code(rng)
    flags = [["--mirror"], ["--reverse"], ["--smooth-zero"],
             ["--switch", _ids(rng, text)], ["--virtualize", _ids(rng, text)]]
    chosen = rng.sample(flags, rng.choice((1, 1, 1, 1, 0, 2)))
    return ["transform"] + [tok for flag in chosen for tok in flag] + [text]


def _moves(rng):
    argv = ["moves"]
    if rng.random() < 0.95:
        argv += ["--walk", str(rng.randint(0, 8))]
    if rng.random() < 0.7:
        argv += ["--seed", str(rng.randint(0, 99))]
    return argv + [rng.choice((_knot, _code))(rng)]


def _verify(rng):
    argv = ["verify", "--trials", str(rng.randint(0, 2)),
            "--steps", str(rng.randint(0, 5))]
    if rng.random() < 0.5:
        argv += ["--seed", str(rng.randint(0, 99))]
    return argv + [rng.choice((_knot, _knot, _code))(rng)
                   for _ in range(rng.randint(0, 2))]


def _flat_command(rng):
    argv = ["flat"] + (["--certificate"] if rng.random() < 0.85 else [])
    text = _flat(rng) if rng.random() < 0.85 else _code(rng)
    return argv + [text]


def _graph(rng):
    text = _code(rng)
    return ["graph", "--singular", _ids(rng, text), text]


def _biquandle(rng):
    table = rng.choice(sorted(TABLE_FILES) + [MISSING[0]])
    action = rng.choice(("search", "check", "color", "color", "doodle",
                         "doodle", "frob"))
    if action == "search":
        return ["biquandle", "search",
                rng.choice(("1", "2", "3", "4", "5", "five"))]
    if action == "check":
        return ["biquandle", "check", table]
    if action == "color":
        args = [_flat(rng, 4) if rng.random() < 0.9 else _knot(rng, 3)]
    elif action == "doodle":
        args = [rng.choice((_knot, _link))(rng)]
    else:
        args = ["1"]
    return ["biquandle", action] + args \
        + ([table] if rng.random() < 0.9 else [])


def _batch(rng):
    if rng.random() < 0.1:
        return rng.choice((["batch"], ["batch", "--input", MISSING[1]]))
    return ["batch", "--input", f"batch{rng.randrange(BATCH_FILES)}.txt"]


def _usage(rng):
    return list(rng.choice((
        (), ("frobnicate",), ("parse",), ("--format", "xml", "parse", "()"),
        ("invariant", "--bogus", "O1+ U1+"), ("parse", "O1+ U1+", "extra"),
        ("moves", "--walk", "two", "O1+ U1+"), ("--format",))))


COMMANDS = (_parse, _invariant, _link_invariant, _symbolic_weights,
            _vassiliev, _transform, _moves, _verify, _flat_command, _graph,
            _biquandle, _batch, _usage)


def write_corpus_files(directory, seed=CORPUS_SEED):
    """Write the table and batch files the corpus names, relative to
    ``directory``."""
    rng = random.Random(f"files/{seed}")
    for name, text in TABLE_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    for i in range(BATCH_FILES):
        lines = ["# batch file", ""]
        for _ in range(rng.randint(3, 12)):
            lines.append(rng.choice((_code, _knot, _knot))(rng))
            if rng.random() < 0.2:
                lines.append("")
        if i == 0:
            lines.append(serialize(random_knot_code(rng, 30)))
        (directory / f"batch{i}.txt").write_text("\n".join(lines) + "\n",
                                                 encoding="utf-8")


def corpus(seed=CORPUS_SEED, size=CORPUS_SIZE):
    """``size`` argv lists drawn from every subcommand, in a seeded order."""
    rng = random.Random(f"corpus/{seed}")
    return [list(rng.choice(FORMATS)) + rng.choice(COMMANDS)(rng)
            for _ in range(size)]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    rc = execute(argv, out, err)
    return rc, out.getvalue(), err.getvalue()


def _mirrored_walk(original):
    def walk(code, steps, seed):
        result = original(code, steps, seed)
        return dataclasses.replace(result, code=mirror(result.code))
    return walk


def _failing_walk(code, steps, seed):
    raise AssertionError("walk left the diagram")


INTERNAL_CASES = (
    (_mirrored_walk, ["verify", "--trials", "2", "--steps", "3",
                      "O1+ O2+ U1+ U2+", "O1+ U1+"]),
    (_mirrored_walk, ["--format", "text", "verify", "--trials", "1",
                      "--steps", "2"]),
    (lambda original: _failing_walk, ["moves", "--walk", "3",
                                      "O1+ O2+ U1+ U2+"]),
    (lambda original: _failing_walk, ["verify", "--trials", "1",
                                      "O1+ U1+"]),
)


class TestCorpusParity:
    def test_pinned_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_corpus_files(tmp_path)
        digest = hashlib.sha256()
        codes = set()
        for argv in corpus():
            rc, out, err = run(argv)
            codes.add(rc)
            digest.update(repr((argv, rc, out, err)).encode())
        original = moves.random_walk
        for patch, argv in INTERNAL_CASES:
            with monkeypatch.context() as m:
                m.setattr(moves, "random_walk", patch(original))
                rc, out, err = run(argv)
            codes.add(rc)
            digest.update(repr((argv, rc, out, err)).encode())
        assert codes == {0, 1, 2, 3, 4}
        assert digest.hexdigest() == CORPUS_DIGEST

    def test_every_subcommand_and_format(self):
        argvs = corpus()
        tokens = {tok for argv in argvs for tok in argv}
        assert {"parse", "invariant", "link-invariant", "symbolic-weights",
                "vassiliev", "transform", "moves", "verify", "flat", "graph",
                "biquandle", "batch"} <= tokens
        assert {tuple(argv[:2]) for argv in argvs
                if argv[:1] == ["--format"]} >= {
                    ("--format", f) for f in ("json", "csv", "text")}


HOPF = "O1+ U2+ ; U1+ O2+"
SEQUENCE = (["link-invariant", "--offsets", "1,0", HOPF],
            ["link-invariant", HOPF],
            ["--format", "text", "invariant", "O1+ O2+ U1+ U2+"],
            ["moves", "--walk", "-1", "O1+ U1+"],
            ["--help"],
            ["link-invariant", HOPF])


class TestOneParser:
    def test_calls_do_not_leak_into_each_other(self):
        alone = []
        for argv in SEQUENCE:
            cli._build_parser.cache_clear()
            alone.append(run(argv))
        assert [run(argv) for argv in SEQUENCE] == alone
        assert alone[0] != alone[1]

    def test_parser_built_once(self, monkeypatch):
        built = []
        original = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        cli._build_parser.cache_clear()
        run(["link-invariant", HOPF])
        assert len(built) == 13  # the top parser and one per subcommand
        for i in range(50):
            run(SEQUENCE[i % len(SEQUENCE)])
        assert len(built) == 13
