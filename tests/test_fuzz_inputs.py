"""Mutated input files and mutated argvs never crash the CLI.

Each file case takes one shipped input file of one of the seven kinds (model,
chain, relation, edges, search scenario, Kalman scenario, constants), drops
a key or an item somewhere in it, or puts another JSON value there: a value
of another type, or a huge, negative, boolean or exponent number or time.
Each argv case takes a valid argv of one of the 22 leaf commands, reading
only shipped files, and drops one flag (or file argument) or puts another
text in place of its value: a huge, tiny or negative number, nan or inf, an
exponent time, a boolean, malformed or deeply nested JSON, or a path to a
file that is missing, a directory or of the wrong kind.
`cli.main` then runs in process. Whatever the input holds, the run must end
with exit 0, 1 or 2, let no exception out of `main` (argparse's own exit
counts as 2 for an argv case, and is a failure for a file case, whose argv
is well formed), and finish within a wall bound.
"""

import contextlib
import io
import json
import time
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oitkit.classical  # noqa: F401  (numpy's import is not timed in the first Kalman case)
from oitkit.cli import COMMANDS, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PENGUIN = str(FIXTURES / "penguin.json")

# kind -> (shipped file, argv with "{}" where the mutated file goes)
KINDS = {
    "model": ("penguin.json", ["metrics", "{}", "--format", "json"]),
    "network": ("network4.json", ["classical", "metcalfe", "--nodes", "4", "--model", "{}"]),
    "target": ("golden/target.json", ["metrics", PENGUIN, "--target", "{}"]),
    "chain": ("chain3.json", ["chain", "{}"]),
    "relation": ("golden/relation.json", ["metrics", PENGUIN, "--relation", "{}"]),
    "edges": ("golden/edges.json", ["metrics", PENGUIN, "--edges", "{}"]),
    "search": ("golden/search.json", ["classical", "search", "{}"]),
    "kalman": ("kalman_scalar.json", ["classical", "kalman", "{}"]),
    "constants": ("golden/constants.json", ["physics", "--constants", "{}", "universe"]),
}
DOCS = {kind: json.loads((FIXTURES / name).read_text()) for kind, (name, _) in KINDS.items()}

WALL_BOUND_S = 2.0

HOSTILE = [
    10**400, -(10**400), 2**63, -1, 0, 1e308, -1e308, 5e-324,
    float("nan"), float("inf"), float("-inf"), True, False, None,
    "1e999999", "-1e999999", "1e-999999", "1e1000", "1e-1000", "1E+1001",
    "", "x", "-0.5", "12", "1/3", [], {}, [True], [1, 2, 3], [[1]], {"a": 1},
]
VALUES = st.one_of(
    st.sampled_from(HOSTILE),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-3, 3), st.booleans(), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)
# a path is a list of steps: a key of an object, or an index into an array;
# a step that is not a key (or any step into an array) is taken modulo
STEPS = st.lists(st.one_of(st.integers(0, 40), st.sampled_from(["labels", "edges", "z"])), max_size=6)


def mutate(doc, path: list, op: str, value):
    """A copy of `doc` with the item at the end of `path` dropped ("drop") or
    replaced by `value` ("set"); the path stops early at a leaf."""
    doc = json.loads(json.dumps(doc))
    parent, key = None, None
    node = doc
    for step in path:
        if isinstance(node, dict) and node:
            keys = sorted(node)
            key = step if step in node else keys[step % len(keys) if isinstance(step, int) else 0]
        elif isinstance(node, list) and node:
            key = step % len(node) if isinstance(step, int) else 0
        else:
            break
        parent, node = node, node[key]
    if parent is None:
        return value if op == "set" else {}
    if op == "drop":
        del parent[key]
    else:
        parent[key] = value
    return doc


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(st.sampled_from(sorted(KINDS)), STEPS, st.sampled_from(["set", "drop"]), VALUES)
# these four ended in a TypeError traceback before every reader checked types
@example("relation", ["labels", "0"], "set", {"a": 1})
@example("edges", ["edges"], "set", [[0, 0, [1]]])
@example("search", ["order_keys", 1], "set", "x")
@example("kalman", ["z"], "set", {"a": 1})
# an exponent time made the parser build a million-digit integer
@example("model", ["occurrence", "intervals", 0, 1], "set", "1e999999")
@example("chain", ["links", 0, "states", 0, "time", "intervals", 0, 0], "set", "-1e999999")
def test_mutated_input_files_end_in_an_exit_code(tmp_path, kind, path, op, value):
    name, argv = KINDS[kind]
    target = tmp_path / f"mutated-{kind}.json"
    target.write_text(json.dumps(mutate(DOCS[kind], path, op, value)))
    code, err = run_main([str(target) if arg == "{}" else arg for arg in argv])
    if isinstance(code, SystemExit):  # argparse rejected a file through its `type`
        raise AssertionError(f"argparse exit {code.code}: {err}")
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        assert err.startswith("error: ")


def run_main(argv: list[str]) -> tuple[int | SystemExit, str]:
    """The exit code of `main(argv)`, or argparse's `SystemExit`, and its
    stderr; the run must end within the wall bound and issue no warning."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc
    elapsed = time.perf_counter() - start
    assert elapsed < WALL_BOUND_S, f"{argv}: {elapsed:.2f} s"
    assert [str(w.message) for w in caught] == [], argv
    return code, err.getvalue()


def fixture(name: str) -> str:
    return str(FIXTURES / name)


# one valid argv per leaf command, reading only shipped files
LEAVES = {
    "validate": ["validate", PENGUIN],
    "metrics": [
        "metrics", fixture("golden/sampled.json"),
        "--relation", fixture("golden/relation.json"), "--edges", fixture("golden/edges.json"),
        "--gaps", "[[1, 2], [3, 4]]", "--target", fixture("golden/target.json"),
        "--restored", "[1, 2]", "--truth", "[1, 3]",
        "--distance", "L1", "--weights", "1,1,1,1,1,2",
    ],
    "restore": ["restore", PENGUIN, "--index", "0"],
    "chain": ["chain", fixture("chain3.json")],
    "demo": ["demo", "--constants", "codata"],
    "classical entropy": ["classical", "entropy", "--probs", "0.5,0.25,0.25"],
    "classical chain-delay": ["classical", "chain-delay", "--delays", "1.5, 2.25 3"],
    "classical radar": [
        "classical", "radar", "--power", "1e6", "--gain", "1e3", "--aperture", "1",
        "--min-signal", "1e-13", "--sigma", "1",
    ],
    "classical rayleigh": [
        "classical", "rayleigh", "--wavelength", "500e-9", "--aperture", "5e-3",
    ],
    "classical variety-check": [
        "classical", "variety-check", fixture("golden/sampled.json"),
        "--relation", fixture("golden/relation.json"),
    ],
    "classical mtbf": ["classical", "mtbf", "--sessions", "[[10, 0], [20, 0], [30, 5]]"],
    "classical nyquist": ["classical", "nyquist", "--period", "0.5", "--rate", "1"],
    "classical aggregation-check": [
        "classical", "aggregation-check", fixture("golden/sampled.json"),
        "--edges", fixture("golden/edges.json"),
    ],
    "classical metcalfe": [
        "classical", "metcalfe", "--nodes", "4", "--model", fixture("network4.json"),
    ],
    "classical kalman": ["classical", "kalman", fixture("kalman_scalar.json")],
    "classical asl": ["classical", "asl", "--algorithm", "bisection", "--n", "7"],
    "classical search": [
        "classical", "search", fixture("golden/search.json"),
        "--threshold", "0", "--distance", "L1", "--weights", "1,1,1,1,1,1",
    ],
    "physics quantum": [
        "physics", "--constants", fixture("golden/constants.json"),
        "quantum", "--energy", "1.65e-34", "--time", "1",
    ],
    "physics carrier": [
        "physics", "carrier", "--mass", "1", "--radiation", "0", "--count", "0",
        "--time", "1", "--regime", "long",
    ],
    "physics bitmass": ["physics", "--constants", "codata", "bitmass", "--temperature", "77"],
    "physics qubit-rate": ["physics", "--constants", "paper", "qubit-rate"],
    "physics universe": ["physics", "universe", "--radius-ly", "4.56e10", "--age", "1e17"],
}

FLAG_TEXTS = [
    "1e308", "-1e308", "1e-400", "5e-324", "-1", "0", "1" + "0" * 400, "9" * 5000,
    "nan", "-nan", "inf", "-inf", "NaN", "Infinity", "1e1000", "1e1001", "-1e1001", "1E+1001",
    "true", "false", "null", "[1, false]", "[true, 1]", "[[1, 2], [true, 3]]",
    "[[1e1001, 2]]", '[["1e1000", "1e1001"]]', '[["-1e999999", "1e999999"]]',
    "{", "[", "[[1, 2]", '{"a": 1}', "[[[[[[1]]]]]]", "[" * 5000, "[" * 990 + "]" * 990,
    "", " ", "x", "1,x", "0.5,,0.5", "1,1,1,1,1,1,1", '"1"', "[]", "[[]]",
]
# texts that stand for a path in the test's directory: nothing there, a
# directory, or a file that holds the text given
FILES = {
    "@missing": None,
    "@directory": "",
    "@empty": "",
    "@deep": "[" * 100_000,
    "@kalman-overflow": json.dumps({**DOCS["kalman"], "Q": [[1e308]], "P0": [[1e308]]}),
}
JSON_TEXTS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=2), kids, max_size=2)
    ),
    max_leaves=6,
).map(json.dumps)
FLAG_VALUES = st.one_of(
    st.sampled_from(FLAG_TEXTS + sorted(FILES)),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=4),
    JSON_TEXTS,
)


def slots(argv: list[str]) -> list[int]:
    """The positions in `argv` of flag values and file arguments."""
    return [
        i for i, token in enumerate(argv)
        if argv[i - 1].startswith("--") or token.startswith(str(FIXTURES))
    ]


def slot_of(leaf: str, flag: str) -> int:
    """The number of `flag`'s value among the slots of `leaf`'s argv."""
    argv = LEAVES[leaf]
    return slots(argv).index(argv.index(flag) + 1)


def test_the_argv_table_has_every_leaf_and_each_argv_exits_0():
    assert {tuple(leaf.split()) for leaf in LEAVES} == {
        path for path, row in COMMANDS.items() if row.run is not None
    }
    for leaf, argv in LEAVES.items():
        assert run_main(argv)[0] == 0, leaf


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    st.sampled_from(sorted(LEAVES)), st.integers(0, 30), st.sampled_from(["set", "drop"]), FLAG_VALUES
)
# the flags once read a JSON boolean as the number 1 or 0
@example("metrics", slot_of("metrics", "--restored"), "set", "true")
@example("metrics", slot_of("metrics", "--truth"), "set", "[1, false]")
# the Kalman recursion overflowed to inf and NaN estimates, with numpy
# warnings, and exited 0
@example("classical kalman", 0, "set", "@kalman-overflow")
def test_mutated_argvs_end_in_an_exit_code(tmp_path, leaf, pick, op, value):
    argv = list(LEAVES[leaf])
    places = slots(argv)
    i = places[pick % len(places)]
    if op == "drop":
        del argv[i - 1 if argv[i - 1].startswith("--") else i : i + 1]
    elif value in FILES:
        path = tmp_path / value.removeprefix("@")
        if value == "@directory":
            path.mkdir(exist_ok=True)
        elif FILES[value] is not None:
            path.write_text(FILES[value])
        argv[i] = str(path)
    else:
        argv[i] = value
    code, err = run_main(argv)
    if isinstance(code, SystemExit):  # argparse's usage error
        code = code.code
    assert code in (0, 1, 2), (code, err)
    if code != 0:
        assert err.startswith(("error: ", "usage: ")), err
