"""Mutants of the bundled signatures keep the exit-code contract.

A mutant deletes one key (or list entry) of a bundled signature, or
replaces one value with a JSON scalar, list or object.  The loader must
load it or refuse it with SignatureError / RefinementError; a mutant that
loads must run ``laws <sig> kernel --max-set 2``, ``laws <sig> structures
--max-set 2`` (which takes a presheaf mutant into the literal beta/eta
loop), ``check``, ``pull`` and ``push`` on its first declared type and
expression, ``residual`` on both sides of that type, ``star`` and
``wand`` on both sides when it keeps its monoid stanza, and ``hoare`` on
its first command when it keeps its machine, to exit codes in 0-3 without
raising.  A fixed batch of mutants runs through the
CLI once under ``python`` and once under ``python -O``, and both must
print the same exit codes and stdout.  A mutant that adds an unknown key, with the value
null, to any object of a bundled signature is refused, under ``python``
and ``python -O`` alike.
"""
from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from refsys.cli import main
from refsys.kernel import RefinementError
from refsys.signature import SignatureError, load_signature

from conftest import DATA

BUNDLED = {p.name: json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))}
DELETE = object()


def _paths(value, prefix=()):
    """The path of every value below the document's root, in document order."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutant(doc, path, replacement):
    """doc with the value at path deleted (replacement DELETE) or replaced."""
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return out


def _commands(path: str) -> list:
    """The commands each loading mutant runs: two law suites, one judgment,
    its pullback and pushforward, and both residuals, on its first declared
    type (along its first declared expression, or the identity when it
    declares none); then star and both wands when it keeps its monoid, and
    a triple over its first command when it keeps its machine."""
    sig = load_signature(path)
    etype = next(iter(sig.etypes), "none")
    expr = next(iter(sig.exprs), None)
    judgment = f"{etype} =[{expr}]=> {etype}" if expr else f"{etype} <= {etype}"
    commands = [["laws", path, "kernel", "--max-set", "2"],
                ["laws", path, "structures", "--max-set", "2"],
                ["check", path, judgment]]
    if expr:
        commands += [["pull", path, expr, etype], ["push", path, etype, expr]]
    commands += [["residual", path, "left", etype, etype],
                 ["residual", path, "right", etype, etype]]
    if sig.monoid_mult is not None:
        commands += [["star", path, etype, etype],
                     ["wand", path, etype, etype],
                     ["wand", path, etype, etype, "--side", "left"]]
    if sig.machine is not None:
        command = next(iter(sig.machine.commands), "")
        commands.append(["hoare", path, f"{{{etype}}} {command} {{{etype}}}"])
    return commands


def _exit_code(argv: list) -> int:
    """The exit code of the CLI on argv, run in-process."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5),
    st.floats(-4, 4, allow_nan=False), st.text(max_size=3),
)
_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3),
    st.dictionaries(st.text(max_size=3), _scalars, max_size=3),
)


@st.composite
def mutants(draw):
    doc = BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))]
    path = draw(st.sampled_from(list(_paths(doc))))
    return _mutant(doc, path, draw(st.one_of(st.just(DELETE), _values)))


@settings(max_examples=200, deadline=None)
@given(mutants())
def test_mutants_load_or_refuse_and_keep_the_exit_codes(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "mutant.json")
        Path(path).write_text(json.dumps(doc))
        try:
            commands = _commands(path)
        except (SignatureError, RefinementError):
            return
        for argv in commands:
            assert _exit_code(argv) in (0, 1, 2, 3), argv


_FIXED_VALUES = (DELETE, None, True, 0, -1, 2.5, "", "x", "B", [], [1, "a"], {}, {"of": "B"})

_BATCH_DRIVER = """
import contextlib, io, json, sys
from refsys.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


def test_a_fixed_batch_of_mutants_behaves_alike_under_python_and_python_O(tmp_path):
    # few mutants load, so the batch takes the first 20 that load and the first 20 that do not
    rng = random.Random(14)
    batch = {True: [], False: []}
    for i in itertools.count():
        if min(map(len, batch.values())) == 20:
            break
        doc = BUNDLED[rng.choice(sorted(BUNDLED))]
        path = tmp_path / f"mutant{i}.json"
        path.write_text(json.dumps(
            _mutant(doc, rng.choice(list(_paths(doc))), rng.choice(_FIXED_VALUES))))
        try:
            load_signature(str(path))
            loads = True
        except (SignatureError, RefinementError):
            loads = False
        if len(batch[loads]) < 20:
            batch[loads].append(str(path))
    # a loading mutant runs its commands, a refused one the kernel suite
    loaded = [argv for path in batch[True] for argv in _commands(path)]
    refused = [["laws", path, "kernel", "--max-set", "2"] for path in batch[False]]
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    runs = []
    for flags in ((), ("-O",)):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _BATCH_DRIVER, json.dumps(loaded + refused)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    codes = [code for code, _ in runs[0]]
    assert set(codes[:len(loaded)]) <= {0, 1, 2, 3}
    assert codes[len(loaded):] == [3] * 20


def _objects(value, prefix=()):
    """The path of every JSON object in the document, the root's first."""
    if isinstance(value, dict):
        yield prefix
    for key, child in (value.items() if isinstance(value, dict)
                       else enumerate(value) if isinstance(value, list) else ()):
        yield from _objects(child, prefix + (key,))


_LOAD_DRIVER = """
import json, sys
from refsys.kernel import RefinementError
from refsys.signature import SignatureError, load_signature
outcomes = []
for path in sys.argv[1:]:
    try:
        load_signature(path)
        outcomes.append("loads")
    except (SignatureError, RefinementError) as e:
        outcomes.append(f"{type(e).__name__}: {e}")
print(json.dumps(outcomes))
"""


def test_an_added_key_is_refused_in_every_object_under_python_and_python_O(tmp_path):
    paths = []
    for name, doc in BUNDLED.items():
        for where in _objects(doc):
            mutant = copy.deepcopy(doc)
            obj = mutant
            for key in where:
                obj = obj[key]
            # null is no valid entry anywhere, so a name map refuses it too
            obj["zz_added"] = None
            paths.append(str(tmp_path / f"{name}.{len(paths)}.json"))
            Path(paths[-1]).write_text(json.dumps(mutant))
    assert len(paths) == 121
    env = dict(os.environ, PYTHONPATH=str(DATA.parent.parent))
    runs = []
    for flags in ((), ("-O",)):
        proc = subprocess.run([sys.executable, *flags, "-c", _LOAD_DRIVER, *paths],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert [o for o in runs[0] if o == "loads"] == []
