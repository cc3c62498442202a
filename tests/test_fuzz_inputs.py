"""Mutated input files never crash the CLI.

Each case takes one shipped input file of one of the seven kinds (model,
chain, relation, edges, search scenario, Kalman scenario, constants), drops
a key or an item somewhere in it, or puts another JSON value there: a value
of another type, or a huge, negative, boolean or exponent number or time.
`cli.main` then runs on it in process. Whatever the file holds, the run must
end with exit 0, 1 or 2, let no exception out of `main` (argparse's own exit
included, since the argv is well formed), and finish within a wall bound.
"""

import contextlib
import io
import json
import time
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oitkit.classical  # noqa: F401  (numpy's import is not timed in the first Kalman case)
from oitkit.cli import main

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
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(target) if arg == "{}" else arg for arg in argv])
        except SystemExit as exc:  # argparse rejected a file through its `type`
            raise AssertionError(f"argparse exit {exc.code}: {err.getvalue()}") from None
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), (code, err.getvalue())
    assert elapsed < WALL_BOUND_S, f"{kind} {path} {op} {value!r}: {elapsed:.2f} s"
    if code == 2:
        assert err.getvalue().startswith("error: ")
