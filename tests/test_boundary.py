"""A seeded mutation campaign over the weights file: ``lstmpc certify`` on
each mutation of one field of the shipped model.json returns 2 without a
traceback and writes one JSON line to stderr whose message names the field,
or the file."""

import json
import random
import re

from lstmpc import cli, lstm

from conftest import ASSETS

SHIPPED = json.loads((ASSETS / "model.json").read_text())
SCALARS = ("n", "m", "p", "u_max")
DROP = object()     # a mutation's value that removes the key


def _depth(value):
    """2 for a list of rows, 1 for a list of numbers."""
    return 2 if isinstance(value[0], list) else 1


def _element(value, rng, new):
    """``value`` (a list of numbers or of rows) with one random number set to ``new``."""
    out = json.loads(json.dumps(value))
    rows = out if _depth(out) == 2 else [out]
    row = rng.choice(rows)
    row[rng.randrange(len(row))] = new
    return out


def _ragged(value, rng):
    """One random row one number short, or, of a list of numbers, one number made a pair."""
    out = json.loads(json.dumps(value))
    k = rng.randrange(len(out))
    out[k] = out[k][:-1] if _depth(out) == 2 else [out[k], out[k]]
    return out


def _rows(value, rng, step):
    """``value`` with one random row (of a list of numbers, one number) added
    (``step`` 1) or removed (-1)."""
    out = json.loads(json.dumps(value))
    if step < 0:
        del out[rng.randrange(len(out))]
        return out
    new = rng.uniform(-1.0, 1.0)
    out.insert(rng.randrange(len(out) + 1), [new] * len(out[0]) if _depth(out) == 2 else new)
    return out


def _transposed(rows):
    return [list(column) for column in zip(*rows)]


def _reshaped(value, levels):
    """``value`` as a list of ``levels`` = 1, 2 or 3 levels, its numbers in order."""
    flat = [x for row in value for x in row] if _depth(value) == 2 else list(value)
    return {1: flat, 2: [[x] for x in flat], 3: [[[x]] for x in flat]}[levels]


def mutations(rng):
    """(field, kind, value) of every mutation, ``value`` DROP to remove the key."""
    out = []
    for field in (*lstm.MATRIX_FIELDS, *SCALARS):
        value = SHIPPED[field]
        kinds = {"drop": DROP, "null": None, "bool": True, "string": json.dumps(value),
                 "object": {field: value}}
        if field in SCALARS:
            kinds.update(nan=float("nan"), inf=float("inf"), ragged=[[value], [value, value]],
                         one_d=[value], three_d=[[[value]]], zero_columns=[])
            if field != "u_max":
                kinds.update(plus_one=value + 1, minus_one=value - 1)
        else:
            kinds.update(nan=_element(value, rng, float("nan")),
                         inf=_element(value, rng, rng.choice([-1.0, 1.0]) * float("inf")),
                         ragged=_ragged(value, rng),
                         **{f"{d}_d": _reshaped(value, d) for d in (1, 2, 3) if d != _depth(value)},
                         plus_row=_rows(value, rng, 1), minus_row=_rows(value, rng, -1),
                         zero_columns=[[] for _ in value] if _depth(value) == 2 else [])
            if _depth(value) == 2:
                kinds.update(plus_column=_transposed(_rows(_transposed(value), rng, 1)),
                             minus_column=_transposed(_rows(_transposed(value), rng, -1)))
        out += [(field, kind, mutated) for kind, mutated in kinds.items()]
    return out


def names(message, field, path):
    """Whether ``message`` names ``field``, as its subject, a missing key or
    the array whose shape another's was held to, or the file ``path``."""
    return bool(re.match(rf"{field}\b", message)) or f"['{field}']" in message \
        or f" {field}'s " in message or str(path) in message


def certify_error(path, capsys):
    """``lstmpc certify``'s return code and the message of its one stderr line."""
    rc = cli.main(["certify", "--weights", str(path)])
    out = capsys.readouterr()
    lines = out.err.splitlines()
    assert out.out == "" and len(lines) == 1, (out.out, out.err)
    return rc, json.loads(lines[0])["message"]


def test_every_field_mutation_exits_2_and_names_the_field(tmp_path, capsys):
    path = tmp_path / "model.json"
    cases = mutations(random.Random(21))
    failed = []
    for field, kind, value in cases:
        doc = {key: v for key, v in SHIPPED.items() if key != field}
        if value is not DROP:
            doc[field] = value
        path.write_text(json.dumps(doc))
        try:
            rc, message = certify_error(path, capsys)
        except Exception as exc:     # a traceback, or not one JSON line
            failed.append(f"{field} {kind}: {exc!r}")
            continue
        if rc != 2 or not names(message, field, path):
            failed.append(f"{field} {kind}: {rc} {message}")
    assert len(cases) >= 200
    assert failed == []


def test_zero_input_columns_exit_2(tmp_path, capsys):
    # a model of m = 0 has shapes that agree, but no input for the
    # certificate's norms or the controller
    doc = {**SHIPPED, **{f"W_{g}": [[] for _ in range(SHIPPED["n"])] for g in lstm.GATES}, "m": 0}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    rc, message = certify_error(path, capsys)
    assert rc == 2
    assert message.startswith("W_c's shape must be (rows, columns), each at least 1, got (5, 0)")
