"""`rssm audit` on mutated trace files and `rssm verify-bounds` on mutated
simplex files: an exit code, never a traceback.

The README sin-quad trace and a regular simplex are mutated with type swaps,
missing keys, +-inf, NaN, 1e+-400, the least subnormal and bools, and read
in-process.
"""

import contextlib
import copy
import functools
import io
import json

from hypothesis import given, settings, strategies as st

from rssm.cli import main
from rssm.objectives import builtin
from rssm.simplex import make_regular_simplex
from rssm.solver import SolverConfig, run


@functools.cache
def _readme_trace() -> dict:
    cfg = SolverConfig(n=2, mode="theoretical", beta=1.0, L=8.0,
                       stopping="true_gradient", epsilon=1e-3, center=1.7)
    return run(builtin("sin-quad", 2), cfg).to_dict()


def _paths(d: dict) -> list[list[tuple]]:
    """Key paths of the trace by section: the top level, the config fields,
    the summary fields, and the records columns, each whole and at the
    first, second and last records."""
    columns = d["records"]
    last = len(columns["step"]) - 1
    records = [("records",)]
    for key in columns:
        records.append(("records", key))
        records += [("records", key, i) for i in (0, 1, last)]
    return [[(key,) for key in d],
            [("config", key) for key in d["config"]],
            [("summary", key) for key in d["summary"]],
            records]


# JSON text that json.loads reads as inf, -inf and 0.0
_RAW = {"@1e400@": "1e400", "@-1e400@": "-1e400", "@1e-400@": "1e-400"}

VALUES = st.sampled_from([
    None, True, False, 0, 1, -1, 2.0, 0.5, 10 ** 400, "x", "", [], {},
    [1.0, 2.0], float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
    1e-323, 1e308, "reflection", "shrink", "budget", "theoretical", *_RAW,
])
MUTATIONS = st.lists(
    st.tuples(st.one_of(*map(st.sampled_from, _paths(_readme_trace()))),
              st.one_of(st.just("delete"), VALUES)),
    min_size=1, max_size=3)
AUDITS = st.sampled_from([
    ["--case", "pl", "--L", "8", "--fstar", "0"],
    ["--case", "nonconvex", "--L", "8"],
    ["--case", "convex", "--L", "8", "--R", "3", "--fstar", "0"],
    ["--case", "strongly_convex", "--L", "8", "--R", "3", "--mu", "1",
     "--fstar", "0"],
])


def _mutate(d: dict, mutations) -> dict:
    """A copy of d with each (path, value) applied: the value set at the
    path, or the path deleted for "delete".  At a letter of a string (the
    step column) the letter is replaced by the value, as JSON text when the
    value is not a string, or deleted."""
    d = copy.deepcopy(d)
    for path, value in mutations:
        try:
            grandparent, parent = None, d
            for key in path[:-1]:
                grandparent, parent = parent, parent[key]
            if isinstance(parent, str):
                i = path[-1]
                text = ("" if value == "delete" else value
                        if isinstance(value, str) else json.dumps(value))
                grandparent[path[-2]] = parent[:i] + text + parent[i + 1:]
            elif value == "delete":
                del parent[path[-1]]
            else:
                # a copy: a later mutation may reach into a list or dict
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or retyped the path
    return d


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _run_mutated(tmp_path_factory, d: dict, argv) -> None:
    """Write d as JSON (with the _RAW sentinels as raw numbers) to the file
    that argv names as FILE, run the CLI in-process and check its ending."""
    text = json.dumps(d)
    for sentinel, raw in _RAW.items():
        text = text.replace(json.dumps(sentinel), raw)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if a == "FILE" else a for a in argv])
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: "))
    if code == 2:
        assert out.getvalue() == ""
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(mutations=MUTATIONS, audit=AUDITS)
def test_audit_of_a_mutated_trace_ends_in_an_exit_code(tmp_path_factory,
                                                       mutations, audit):
    _run_mutated(tmp_path_factory, _mutate(_readme_trace(), mutations),
                 ["audit", "--trace-in", "FILE", *audit])


_SIMPLEX = make_regular_simplex([0.3, -0.2], 0.7, 2).to_dict()
# the top level, and each vertex with each of its coordinates
SIMPLEX_PATHS = [(key,) for key in _SIMPLEX] + [
    path for i in range(3) for path in [("vertices", i)] + [
        ("vertices", i, j) for j in range(2)]]
SIMPLEX_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(SIMPLEX_PATHS),
              st.one_of(st.just("delete"), VALUES)),
    min_size=1, max_size=3)
VERIFY = st.sampled_from([[], ["--L", "2", "--gamma", "0.3"]])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(mutations=SIMPLEX_MUTATIONS, options=VERIFY)
def test_verify_bounds_of_a_mutated_simplex_ends_in_an_exit_code(
        tmp_path_factory, mutations, options):
    _run_mutated(tmp_path_factory, _mutate(_SIMPLEX, mutations),
                 ["verify-bounds", "--simplex-json", "FILE", *options])
