"""Seeded mutation campaigns over the package's input files.

The weights file: ``lstmpc certify`` on each mutation of one field of the
shipped model.json, or of one gain of its observer section, returns 2
without a traceback and writes one JSON line to stderr whose message names
the field, or the file. The scenario file: ``lstmpc simulate`` on each
mutation of one field of the benchmark scenario, cut to a 30 s run,
returns 0, 1 or 2 without a traceback, and on 2 writes one JSON line to
stderr whose message names a field, or the file. The dataset: ``lstmpc
train --epochs 0`` from the shipped model on each mutation of a small saved
dataset, its manifest or one sequence file, returns 0, 1 or 2 without a
traceback, and on 2 writes one JSON line whose message names a manifest
field, a file or a line."""

import dataclasses
import json
import math
import random
import re

import numpy as np

from lstmpc import cli, harness, lstm, plant, sysid

from conftest import ASSETS

SHIPPED = json.loads((ASSETS / "model.json").read_text())
SCALARS = ("n", "m", "p", "u_max")
GAINS = ("L_f", "L_i", "L_o", "L_d")
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


def _array_kinds(value, rng):
    """The mutations of the array ``value`` (a list of numbers or of rows), by kind."""
    kinds = dict(nan=_element(value, rng, float("nan")),
                 inf=_element(value, rng, rng.choice([-1.0, 1.0]) * float("inf")),
                 ragged=_ragged(value, rng),
                 **{f"{d}_d": _reshaped(value, d) for d in (1, 2, 3) if d != _depth(value)},
                 plus_row=_rows(value, rng, 1), minus_row=_rows(value, rng, -1),
                 zero_columns=[[] for _ in value] if _depth(value) == 2 else [])
    if _depth(value) == 2:
        kinds.update(plus_column=_transposed(_rows(_transposed(value), rng, 1)),
                     minus_column=_transposed(_rows(_transposed(value), rng, -1)))
    return kinds


def mutations(rng):
    """(path, kind, value) of every mutation, ``path`` the keys down to the
    field, ``value`` DROP to remove the key: each array and scalar of the
    file, then each gain of its observer section."""
    out = []
    for path in [(field,) for field in (*lstm.MATRIX_FIELDS, *SCALARS)] + [
            ("observer", gain) for gain in GAINS]:
        value = SHIPPED[path[0]] if len(path) == 1 else SHIPPED["observer"][path[1]]
        kinds = {"drop": DROP, "null": None, "bool": True, "string": json.dumps(value),
                 "object": {path[-1]: value}}
        if path[-1] in SCALARS:
            kinds.update(nan=float("nan"), inf=float("inf"), ragged=[[value], [value, value]],
                         one_d=[value], three_d=[[[value]]], zero_columns=[])
            if path[-1] != "u_max":
                kinds.update(plus_one=value + 1, minus_one=value - 1)
        else:
            kinds.update(_array_kinds(value, rng))
        if path == ("observer", "L_d"):
            del kinds["1_d"]    # [0.1] is read as the 1x1 L_d, as [[0.1]] is
        out += [(path, kind, mutated) for kind, mutated in kinds.items()]
    return out


def mutated(doc, path, value):
    """A copy of the document ``doc`` with the field at ``path`` set to
    ``value``, or removed if it is DROP."""
    doc = json.loads(json.dumps(doc))
    *outer, key = path
    section = doc[outer[0]] if outer else doc
    section.pop(key, None)
    if value is not DROP:
        section[key] = value
    return doc


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
        path.write_text(json.dumps(mutated(SHIPPED, field, value)))
        try:
            rc, message = certify_error(path, capsys)
        except Exception as exc:     # a traceback, or not one JSON line
            failed.append(f"{field} {kind}: {exc!r}")
            continue
        if rc != 2 or not names(message, field[-1], path):
            failed.append(f"{field} {kind}: {rc} {message}")
    assert len(cases) >= 250
    assert failed == []


def test_a_gain_of_the_wrong_shape_is_named(tmp_path, capsys):
    # each gain is held to the model's (n, p) = (5, 1) by its own name, so
    # an L_f that breaks it is not reported as an L_i that disagrees with it
    path = tmp_path / "model.json"
    for gain, value, shape, want in (("L_f", [[] for _ in range(5)], (5, 0), (5, 1)),
                                     ("L_f", [0.0] * 5, (5,), (5, 1)),
                                     ("L_f", [[[0.0]]] * 5, (5, 1, 1), (5, 1)),
                                     ("L_o", [[0.0, 0.0]] * 5, (5, 2), (5, 1)),
                                     ("L_d", [[0.1, 0.0]], (1, 2), (1, 1)),
                                     ("L_d", [[0.1, 0.0], [0.0, 0.1]], (2, 2), (1, 1))):
        path.write_text(json.dumps(mutated(SHIPPED, ("observer", gain), value)))
        assert certify_error(path, capsys) == (
            2, f"{gain} has shape {shape}, not {want}, for the model's (n, p) = (5, 1)")


def test_zero_input_columns_exit_2(tmp_path, capsys):
    # a model of m = 0 has shapes that agree, but no input for the
    # certificate's norms or the controller
    doc = {**SHIPPED, **{f"W_{g}": [[] for _ in range(SHIPPED["n"])] for g in lstm.GATES}, "m": 0}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    rc, message = certify_error(path, capsys)
    assert rc == 2
    assert message.startswith("W_c's shape must be (rows, columns), each at least 1, got (5, 0)")


SCENARIO = {**json.loads((ASSETS / "benchmark_scenario.json").read_text()), "duration_s": 30.0}
SCENARIO_FIELDS = [f.name for f in dataclasses.fields(harness.Scenario)]
PROFILES = ("setpoints", "disturbances", "disturbance_increments")


def _pairs(value, rng):
    """The profile ``value``'s (time, value) pairs, or, if it has none, two
    seeded pairs at increasing times."""
    return [list(pair) for pair in value] or [[0.0, rng.uniform(0.0, 1.0)],
                                              [rng.uniform(1.0, 30.0), rng.uniform(0.0, 1.0)]]


def _profile_kinds(value, rng):
    """The mutations of a (time, value) profile, by kind: a ragged, flat,
    nested or transposed one, a pair's entry set to NaN, inf, 0, -1 or 1e308,
    pairs out of order, a repeated time, and no pairs."""
    pairs = _pairs(value, rng)
    k = rng.randrange(len(pairs))
    ragged = json.loads(json.dumps(pairs))
    ragged[k] = ragged[k][:1] if rng.random() < 0.5 else ragged[k] + ragged[k][1:]
    kinds = {"ragged": ragged, "flat": [x for pair in pairs for x in pair],
             "nested": [[pair] for pair in pairs], "transposed": _transposed(pairs),
             "reversed": pairs[::-1] if len(pairs) > 1 else pairs * 2,
             "repeated_time": pairs + [pairs[-1]], "empty": []}
    for name, new in (("nan", math.nan), ("inf", rng.choice([-1, 1]) * math.inf), ("zero", 0.0),
                      ("minus_one", -1.0), ("huge", 1e308)):
        for entry, label in ((0, "time"), (1, "value")):
            changed = json.loads(json.dumps(pairs))
            changed[rng.randrange(len(changed))][entry] = new
            kinds[f"{label}_{name}"] = changed
    return kinds


def scenario_mutations(rng):
    """(field, kind, value) of every one-field mutation of SCENARIO, ``value``
    DROP to remove the key: each field dropped, of another type, NaN, inf, 0,
    -1 or 1e308, each profile's pairs broken, plant parameters overridden,
    and keys added."""
    out = [(name, "added", rng.choice([1.0, "x", None])) for name in ("extra", "t_s", "Duration_s")]
    for field, value in SCENARIO.items():
        kinds = {"drop": DROP, "null": None, "bool": rng.choice([True, False]),
                 "string": json.dumps(value), "list": [value], "object": {field: value},
                 "nan": math.nan, "inf": rng.choice([-1, 1]) * math.inf, "zero": 0, "minus_one": -1,
                 "huge": 1e308}
        if field in PROFILES:
            kinds.update(_profile_kinds(value, rng))
        out += [(field, kind, mutated) for kind, mutated in kinds.items()]
    params = [f.name for f in dataclasses.fields(plant.PhParams)]
    for name in rng.sample(params, 6) + ["not_a_parameter"]:
        for kind, new in (("nan", math.nan), ("zero", 0.0), ("minus_one", -1.0), ("huge", 1e308),
                          ("string", "1.0")):
            out.append(("plant_overrides", f"{name}_{kind}", {name: new}))
    return out


def test_every_scenario_mutation_exits_cleanly(tmp_path, capsys):
    # a one-field mutation of the scenario file runs, or fails by name:
    # simulate returns 0, 1 or 2 and raises nothing, not even a warning, and
    # on 2 its one stderr line names a scenario or plant field, or the file
    path, weights = tmp_path / "scenario.json", str(ASSETS / "model.json")
    cases = scenario_mutations(random.Random(51))
    known = SCENARIO_FIELDS + [f.name for f in dataclasses.fields(plant.PhParams)]
    failed = []
    for k, (field, kind, value) in enumerate(cases):
        path.write_text(json.dumps(mutated(SCENARIO, (field,), value)))
        try:
            rc = cli.main(["simulate", "--scenario", str(path), "--weights", weights,
                           "--out", str(tmp_path / f"run{k}")])
            out = capsys.readouterr()
            err = out.err.splitlines()
            message = json.loads(err[0])["message"] \
                if rc == 2 and len(err) == 1 and out.out == "" else None
        except Exception as exc:     # a traceback, or not one JSON line
            failed.append(f"{field} {kind}: {exc!r}")
            continue
        if rc not in (0, 1, 2) or rc == 2 and not (
                message and (str(path) in message
                             or any(re.search(rf"\b{name}\b", message)
                                    for name in [field, *known]))):
            failed.append(f"{field} {kind}: {rc} {err}")
    assert len(cases) >= 150
    assert failed == []


DATA_FILES = ("seq_000.csv", "seq_001.csv", "seq_002.csv")    # train, val, test
# what a message may name: a manifest field (the train split also as the
# training split), or the washout that a test sequence is too short or
# constant after
DATASET_FIELDS = ("manifest", "normalization", "splits", "train", "training split", "val", "test",
                  "u_lo", "u_hi", "y_lo", "y_hi", "washout")


def saved_dataset(directory, rng):
    """A small saved dataset in ``directory``: one 30-sample sequence of
    seeded values per split."""
    seqs = [(np.array([rng.uniform(-1.0, 1.0) for _ in range(30)]),
             np.array([rng.uniform(-1.0, 1.0) for _ in range(30)])) for _ in DATA_FILES]
    sysid.save_dataset(sysid.Dataset(*([seq] for seq in seqs),
                                     normalizer=plant.Normalizer(0.0, 20.0, 6.0, 9.0)),
                       directory)


def _manifest_kinds(doc, directory, rng):
    """The mutations of the manifest ``doc``, by kind: each a document, or
    bytes for the file's whole text."""
    kinds = {f"whole_{type(v).__name__}": v for v in (None, [doc], "manifest", 5, {})}
    kinds["not_utf8"] = json.dumps(doc).encode()[:-1] + b"\xff}"
    kinds["truncated"] = json.dumps(doc).encode()[:rng.randrange(1, 40)]
    sections = (((), doc), (("normalization",), doc["normalization"]),
                (("splits",), doc["splits"]))
    for outer, section in sections:
        kinds["/".join([*outer, "added"])] = mutated(doc, (*outer, "extra"), 1.0)
        for key, value in section.items():
            path = (*outer, key)
            swaps = {"drop": DROP, "null": None, "bool": rng.choice([True, False]),
                     "string": json.dumps(value), "number": rng.choice([0, -1, 2.5]),
                     "list": [value], "object": {key: value}}
            if outer == ("normalization",):
                swaps.update(nan=math.nan, inf=math.inf, minus_inf=-math.inf, zero=0.0,
                             minus_one=-1.0, huge=1e308, minus_huge=-1e308)
            if outer == ("splits",):
                swaps.update(empty=[], doubled=value + value)
                entries = {"": "", "dot": ".", "dotdot": "..",
                           "parent": f"../{directory.name}/{value[0]}",
                           "absolute": str(directory / value[0]), "nested": f"sub/{value[0]}",
                           "missing": "seq_999.csv", "directory_slash": f"{value[0]}/",
                           "nul": f"{value[0]}\x00", "null": None, "number": 0,
                           "list": [value[0]]}
                swaps.update({f"entry_{name}": [entry] for name, entry in entries.items()})
            kinds.update({"/".join([*path, kind]): mutated(doc, path, v)
                          for kind, v in swaps.items()})
    return kinds


def _text_kinds(text, rng):
    """The mutations of a sequence file's ``text``, by kind: its header, rows
    and cells broken; each the file's new text, or bytes."""
    lines = text.splitlines()
    k = rng.randrange(1, len(lines))

    def with_line(new):
        return "\n".join(lines[:k] + [new] + lines[k + 1:]) + "\n"

    def with_cell(value, column=None):
        cells = lines[k].split(",")
        cells[rng.randrange(1, 3) if column is None else column] = value
        return with_line(",".join(cells))

    kinds = {"empty": "", "header_only": lines[0] + "\n", "no_header": "\n".join(lines[1:]),
             "header_text": "\n".join(["time;u;y"] + lines[1:]) + "\n",
             "header_blank": "\n".join([""] + lines[1:]) + "\n",
             "row_dropped": "\n".join(lines[:k] + lines[k + 1:]) + "\n",
             "row_doubled": "\n".join(lines[:k + 1] + lines[k:]) + "\n",
             "blank_line": with_line(""), "trailing_blank": text + "\n",
             "truncated": text[:rng.randrange(len(lines[0]) + 1, len(text))],
             "short_file": "\n".join(lines[:rng.randrange(2, 6)]) + "\n",
             "missing_column": with_line(lines[k].rsplit(",", 1)[0]),
             "extra_column": with_line(lines[k] + ",1.0"),
             "not_utf8": text.encode()[:len(lines[0]) + 4] + b"\xfe\xff" +
             text.encode()[len(lines[0]) + 4:],
             "header_not_utf8": b"\xff" + text.encode()}
    for name, value in (("nan", "nan"), ("inf", "inf"), ("minus_inf", "-inf"), ("huge", "1e308"),
                        ("minus_huge", "-1e308"), ("text", "abc"), ("blank", ""),
                        ("quoted", '"1.0"')):
        kinds[f"cell_{name}"] = with_cell(value)
    kinds["time_text"] = with_cell("abc", column=0)
    return kinds


def dataset_mutations(directory, rng):
    """(file, kind, content) of every mutation of the saved dataset in
    ``directory``, ``content`` the file's new text or bytes: the manifest's
    keys, values, types and split entries, then each sequence file's
    header, rows and cells."""
    doc = json.loads((directory / "manifest.json").read_text())
    out = [("manifest.json", kind, value if isinstance(value, bytes) else json.dumps(value))
           for kind, value in _manifest_kinds(doc, directory, rng).items()]
    for name in DATA_FILES:
        text = (directory / name).read_text()
        out += [(name, kind, value) for kind, value in _text_kinds(text, rng).items()]
    return out


def test_every_dataset_mutation_exits_cleanly(tmp_path, capsys):
    # one mutation of a saved dataset under train --epochs 0 from the
    # shipped model: it trains nothing and reports a finite test FIT, or
    # fails by name: train returns 0, 1 or 2 and raises nothing, not even a
    # warning, and on 2 its one stderr line names a manifest field, a file
    # or a line; a y_hi so large that every output normalizes to -1 is
    # named as y_hi, not as the washout the constant test trace fails
    directory = tmp_path / "ds"
    rng = random.Random(52)
    saved_dataset(directory, rng)
    original = {path.name: path.read_bytes() for path in directory.iterdir()}
    cases = dataset_mutations(directory, rng)
    out, weights = str(tmp_path / "model.json"), str(ASSETS / "model.json")
    file_names = "|".join(re.escape(name) for name in [*original, str(directory)])
    named = re.compile(rf"\b({'|'.join(DATASET_FIELDS)})\b|{file_names}|\bline \d+")
    failed, messages = [], {}
    for file, kind, content in cases:
        for name, kept in original.items():
            (directory / name).write_bytes(kept)
        (directory / file).write_bytes(content if isinstance(content, bytes) else content.encode())
        try:
            rc = cli.main(["train", "--data", str(directory), "--init", weights, "--out", out,
                           "--epochs", "0", "--washout", "2"])
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            message = json.loads(err[0])["message"] \
                if rc == 2 and len(err) == 1 and captured.out == "" else None
        except Exception as exc:     # a traceback, or not one JSON line
            failed.append(f"{file} {kind}: {exc!r}")
            continue
        messages[kind] = message
        if rc not in (0, 1, 2) or rc == 2 and not (message and named.search(message)) \
                or rc == 0 and re.search(r"\b(nan|inf)\b", captured.out):
            failed.append(f"{file} {kind}: {rc} {err} {captured.out}")
    assert len(cases) >= 150
    assert failed == []
    assert re.search(r"\by_hi\b", messages["normalization/y_hi/huge"] or "")
